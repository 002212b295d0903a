"""Medial graph of an embedded graph, tagged for matching selection.

Every edge of the base graph contributes one vertex (its midpoint).  Inside
each face, midpoints of consecutive boundary edges are joined; each join is
tagged with the face it lies in, its position along the face walk, and the
corner vertex it cuts off.  Joins coming from different faces are kept as
distinct parallel edges.  face_edges[f] is face f's medial cycle in walk
order; as the cycle is even, its two perfect matchings are exactly the
edges at even positions, face_edges[f][0::2], and those at odd ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plane_graph import PlaneGraph, require_even_polygonal


@dataclass(frozen=True)
class MedialEdge:
    face: int
    position: int
    a: int  # midpoint vertex ids (= base edge ids)
    b: int
    corner: int  # base vertex cut off by this edge

    @property
    def key(self) -> tuple[int, int]:
        return (self.face, self.position)


@dataclass(frozen=True)
class MedialGraph:
    graph: PlaneGraph
    num_vertices: int  # one midpoint per base edge
    edges: tuple[MedialEdge, ...]
    face_edges: tuple[tuple[MedialEdge, ...], ...]


def build_medial_graph(g: PlaneGraph) -> MedialGraph:
    """Construct the medial graph with face/position/corner tags.

    Raises FaceStructureError unless every face is an even simple cycle.
    """
    require_even_polygonal(g)
    return build_medial_graph_unchecked(g)


def build_medial_graph_unchecked(g: PlaneGraph) -> MedialGraph:
    """build_medial_graph for a g whose faces the caller has validated."""
    face_edges: list[tuple[MedialEdge, ...]] = []
    all_edges: list[MedialEdge] = []
    for f in g.faces:
        deg = f.degree
        cyc = tuple(g.dart_edge[d] for d in f.darts)
        per_face = tuple(
            MedialEdge(
                face=f.id,
                position=i,
                a=cyc[i],
                b=cyc[(i + 1) % deg],
                corner=g.dart_head[f.darts[i]],
            )
            for i in range(deg)
        )
        face_edges.append(per_face)
        all_edges.extend(per_face)
    return MedialGraph(
        graph=g,
        num_vertices=g.num_edges,
        edges=tuple(all_edges),
        face_edges=tuple(face_edges),
    )

