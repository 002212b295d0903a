"""Vertex colorings and the two checks that define admissibility.

A coloring is admissible when it is proper and, on every face of degree 2k,
some color class covers at least k of the boundary vertices.  Under a
proper coloring a class on an even cycle reaches half only as one of the
two alternation classes, so the count-based check below is equivalent to
"one alternation class of each face is monochromatic".  Both checks take
one label per vertex; a caller holding a Coloring passes its colors.
The law sweep checks the alternation-class form on its union-find's roots
(search._leaf_laws) and the witness on the region kernel's arrays
(search._check_region_coloring); the count form here remains the check
for arbitrary labels, such as the oracle's.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .dividing import RegionDecomposition
from .plane_graph import BLACK, PlaneGraph


class _ColoringFields(NamedTuple):
    colors: tuple[int, ...]
    num_colors: int


class Coloring(_ColoringFields):
    """Dense surjective coloring: every color in 0..num_colors-1 is used."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], num_colors: int) -> Coloring:
        if set(colors) != set(range(num_colors)):
            raise ValueError("colors must be exactly 0..num_colors-1, all used")
        return super().__new__(cls, colors, num_colors)

    @classmethod
    def _make(cls, iterable) -> Coloring:  # _replace builds through this
        return cls(*iterable)


def check_proper(g: PlaneGraph, labels: Sequence[int]) -> bool:
    """True iff no edge joins two equal labels."""
    for u, v in g.edges:
        if labels[u] == labels[v]:
            return False
    return True


def check_half_monochromatic(g: PlaneGraph, labels: Sequence[int]) -> bool:
    """True iff on every face some label covers at least half the boundary."""
    fs = g.face_start
    for s, e in zip(fs, fs[1:]):
        counts: dict[int, int] = {}
        best = 0
        for v in g.dart_tail[s:e]:
            c = labels[v]
            k = counts.get(c, 0) + 1
            counts[c] = k
            if k > best:
                best = k
        if 2 * best < e - s:
            return False
    return True


def coloring_from_regions(r: RegionDecomposition) -> Coloring:
    """Color every vertex by its region id.

    Regions are independent sets and adjacent vertices always fall into
    distinct neighbouring regions, so the result is proper; the uncut
    alternation class of each face shares one region, so it is also
    half-monochromatic.
    """
    return Coloring(
        colors=tuple(r.region_of_cell[v] for v in range(r.n)),
        num_colors=r.num_regions,
    )


def baseline_coloring(g: PlaneGraph) -> Coloring:
    """Give each vertex of the larger side its own color, one shared color
    for the rest.

    Boundary vertices of every face alternate sides, so the shared side is
    monochromatic on half of each face.  Uses max(|sides|) + 1 colors, at
    least ceil(n/2) + 1; ties go to BLACK, the side of vertex 0.  The sides
    are g.side, the 2-colouring that build_plane_graph stored.
    """
    black = [v for v, s in enumerate(g.side) if s == BLACK]
    white = [v for v, s in enumerate(g.side) if s != BLACK]
    fresh = white if len(white) > len(black) else black
    shared_color = len(fresh)
    colors = [shared_color] * g.n
    for i, v in enumerate(fresh):
        colors[v] = i
    return Coloring(colors=tuple(colors), num_colors=shared_color + 1)
