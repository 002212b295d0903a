"""Medial graph of an embedded graph, as int tables over the face walks.

Every edge of the base graph contributes one vertex (its midpoint).  Inside
each face, midpoints of consecutive boundary edges are joined.  The join at
walk position p of face f is the boundary dart d = f.darts[p]: it joins the
midpoints dart_edge[d] and dart_edge[dart_next[d]] and cuts off the corner
dart_head[d].  Medial edges are numbered in (face, position) order, so
comparing two indices compares their (face, position) keys, and joins from
different faces stay distinct parallel edges.  As each face's medial cycle
is even, its two perfect matchings are exactly its edges at even positions
and those at odd ones: selected[f][0] and selected[f][1].  An edge's corner
and face are not copied: they are g.dart_head and g.dart_face of its dart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane_graph import PlaneGraph


@dataclass(frozen=True)
class MedialGraph:
    """Medial edge i is the dart dart[i], in (face, position) order."""

    graph: PlaneGraph
    dart: tuple[int, ...]
    ends: tuple[tuple[int, int], ...]  # the two midpoints of each medial edge
    selected: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # [face][bit]
    # [face][bit]: the corners that bit's unselected edges cut off, one
    # bipartition side of the face's boundary (see dividing)
    sides: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def build_medial_graph(g: PlaneGraph) -> MedialGraph:
    """Construct the medial graph's tables in one pass over the face walks."""
    darts = [d for f in g.faces for d in f.darts]
    dart_edge, dart_next = g.dart_edge, g.dart_next
    selected = []
    start = 0
    for f in g.faces:
        stop = start + f.degree
        selected.append(
            (tuple(range(start, stop, 2)), tuple(range(start + 1, stop, 2)))
        )
        start = stop
    return MedialGraph(
        graph=g,
        dart=tuple(darts),
        ends=tuple((dart_edge[d], dart_edge[dart_next[d]]) for d in darts),
        selected=tuple(selected),
        sides=tuple((f.vertices[0::2], f.vertices[1::2]) for f in g.faces),
    )
