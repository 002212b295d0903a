"""Medial graph of an embedded graph, as int tables over the face walks.

Every edge of the base graph contributes one vertex (its midpoint).  Inside
each face, midpoints of consecutive boundary edges are joined.  The join at
walk position p of face f is the boundary dart d = face_start[f] + p: it
joins the midpoints dart_edge[d] and dart_edge[dart_next[d]] and cuts off
the corner dart_head[d].  So medial edge d is dart d, and as darts run in
(face, position) order, comparing two medial edges compares their
(face, position) keys; joins from different faces stay distinct parallel
edges.  As each face's medial cycle is even, its two perfect matchings are
exactly its edges at even positions and those at odd ones: bit b of face f
selects range(face_start[f] + b, face_start[f + 1], 2).  Nothing per edge
is copied: an edge's midpoints, corner and face are read off g.dart_edge,
g.dart_next, g.dart_head and g.dart_face where they are needed.
"""

from __future__ import annotations

from typing import NamedTuple

from .plane_graph import PlaneGraph


class MedialGraph(NamedTuple):
    """Medial edge d is the base graph's dart d."""

    graph: PlaneGraph
    # [face][bit]: the corners that bit's unselected edges cut off, one
    # bipartition side of the face's boundary (see dividing)
    sides: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def build_medial_graph(g: PlaneGraph) -> MedialGraph:
    """Construct each face's two sides in one pass over the face walks."""
    fs, tail = g.face_start, g.dart_tail
    return MedialGraph(
        graph=g,
        sides=tuple((tail[s:e:2], tail[s + 1:e:2]) for s, e in zip(fs, fs[1:])),
    )
