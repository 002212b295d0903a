"""Dividing systems: per-face matchings, their closed curves and regions.

A dividing system picks, in every face, one of the two perfect matchings of
that face's medial cycle.  The union of the selected edges is a disjoint
collection of closed curves.  Regions are computed without any geometry:
the faces of the medial graph are one cell per base vertex plus one cell
per base face, and two cells sharing a non-selected medial edge lie in the
same region.  Medial edge d is base dart d (see medial): the edge at
walk position i of face f is dart face_start[f] + i, which joins the
midpoints of walk edges i and i + 1, so it cuts off walk vertex i + 1.  A
face with bit b selects positions b, b + 2, ... and leaves 1 - b,
3 - b, ... unselected, and as its walk has even length those cut off walk
vertices b, b + 2, ...: one bipartition side of its boundary.  So the
regions are the components of the graph joining each face cell to that
side.  The classical fact
"k closed curves cut the sphere into k + 1 regions" becomes a verified law
rather than an assumption.

One system takes two steps: `join_face` joins each face cell to
its uncut side in a union-find over the cells, and `label_regions`
numbers the regions and reads each curve's two sides at its smallest
edge.  `decompose_regions` takes them for one parity vector, walks the
curves and returns it all as one `RegionDecomposition`;
`build_division_tree` checks the tree laws on the sides.  It is the
single-system path of the search's witness, the renderer and the public
API.  The search's walk (`search._sweep`) builds its systems
depth-first, sharing each prefix of faces, and counts components by
`join_face`'s merges; with laws it checks each leaf on the union-find's
roots, and takes the same two steps only on a leaf that fails;
`decompose_regions` is the reference it is tested against and
re-evaluates any system on which it finds a law violated.  `_walks` is
the one curve walker: one pass over the selected edges counts every
midpoint's degree, and one walk per curve lists its edges and midpoints,
which become `Cycle`s as they stand, so the curves printed are the
curves whose laws were checked.  `assemble_dividing_system` checks
parity vectors that come from outside.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    BadParameter,
    InternalDegreeViolation,
    InternalInvariantError,
    NotATree,
    RegionCycleMismatch,
)
from .medial import MedialGraph


class Cycle(NamedTuple):
    """One closed curve; edges[i] joins vertices[i] to vertices[(i+1) % len].

    vertices are midpoints (base edge ids) and edges are medial edges,
    which are base darts: dart d joins the midpoints of d and of the dart
    after it in its face walk, cutting off the head of d.
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


class RegionDecomposition(NamedTuple):
    """One system's regions and curves, as decompose_regions checked them.

    curve_sides[i] is (corner's region, face cell's region, first midpoint)
    at the smallest medial edge of cycles[i]: the division tree's edges.
    """

    n: int  # base vertex count; cells 0..n-1 are vertex cells, then face cells
    num_regions: int
    region_of_cell: tuple[int, ...]
    regions: tuple[tuple[int, ...], ...]  # base vertices per region, sorted
    cycles: tuple[Cycle, ...]
    curve_sides: tuple[tuple[int, int, int], ...]


def _walks(num_midpoints: int, ends, selected) -> list[tuple[list[int], list[int]]]:
    """Split selected medial edges into closed curves, ordered by smallest midpoint.

    Each curve is (edges, midpoints) in walk order, leaving its smallest
    midpoint first; edges[i] leaves midpoints[i].  Verifies the degree-two
    law before walking.  `selected` must be in index order: then each
    midpoint's first incidence is its smaller-keyed edge, by which a curve
    leaves its smallest midpoint.
    """
    first = [-1] * num_midpoints
    second = [-1] * num_midpoints
    degree = [0] * num_midpoints
    for e in selected:
        for v in ends[e]:  # a loop edge meets its midpoint twice
            d = degree[v]
            if d == 0:
                first[v] = e
            elif d == 1:
                second[v] = e
            degree[v] = d + 1
    for v, d in enumerate(degree):
        if d != 2:
            raise InternalDegreeViolation(f"midpoint {v} has degree {d}, expected 2")
    walks = []
    for start in range(num_midpoints):
        e = first[start]
        if e < 0:  # walked as part of an earlier curve
            continue
        v = start
        edges, midpoints = [e], [start]
        while True:
            a, b = ends[e]
            v = b if a == v else a
            if v == start:
                break
            nxt = first[v]
            first[v] = -1
            e = second[v] if nxt == e else nxt  # leave by the other edge
            edges.append(e)
            midpoints.append(v)
        walks.append((edges, midpoints))
    return walks


def join_face(parent: list[int], cell: int, side) -> int:
    """Join face cell `cell` to every vertex of `side` in the cell union-find.

    parent is a union-find over the V + F cells.  Faces are joined in
    order, so cell is still a root and each root is only pointed at a
    later face cell; path halving only skips ahead.  So parent[c] >= c,
    with equality exactly at the roots, which label_regions relies on.
    Returns how many components were merged into the face cell's: with
    the face cell added, the component count falls by that number less 1.
    """
    merged = 0
    for v in side:
        while parent[v] != v:  # find v's root, halving the path
            parent[v] = v = parent[parent[v]]
        if v != cell:
            parent[v] = cell
            merged += 1
    return merged


def decompose_regions(m: MedialGraph, bits) -> RegionDecomposition:
    """Regions and curves of the dividing system with these parity bits.

    Joins face cell n + f to m.sides[f][bit] (see the module docstring)
    with join_face, walks the curves (_walks) and labels the regions and
    each curve's sides at its smallest-keyed edge (label_regions).
    Verifies the degree-two law, that every region holds a base vertex and
    that regions outnumber curves by exactly one.  Each region lists its
    base vertices; each walk becomes a Cycle that starts at its smallest
    midpoint.  `bits` must be one 0 or 1 per face;
    assemble_dividing_system checks parity vectors from outside.
    """
    n, sides, fs = m.graph.n, m.sides, m.graph.face_start
    parent = list(range(n + len(bits)))
    selected: list[int] = []
    for f, bit in enumerate(bits):
        join_face(parent, n + f, sides[f][bit])
        selected += range(fs[f] + bit, fs[f + 1], 2)

    # selected lists faces in order, each face's edges in position order:
    # the index order _walks needs
    walks = _walks(m.graph.num_edges, m.ends, selected)
    lows = [min(edges) for edges, _ in walks]
    region_of_cell, num_regions, curve_sides = label_regions(m, parent, lows)
    regions: list[list[int]] = [[] for _ in range(num_regions)]
    for v in range(n):
        regions[region_of_cell[v]].append(v)
    return RegionDecomposition(
        n=n,
        num_regions=num_regions,
        region_of_cell=tuple(region_of_cell),
        regions=tuple(map(tuple, regions)),
        cycles=tuple(
            Cycle(tuple(midpoints), tuple(edges))
            for edges, midpoints in walks
        ),
        curve_sides=tuple(curve_sides),
    )


def label_regions(m: MedialGraph, parent: list[int], lows) -> tuple[list, int, list]:
    """Number a system's regions; read each curve's sides at its smallest edge.

    parent is the system's cell union-find, joined by join_face; this
    resolves it in place and numbers regions by smallest vertex cell.
    lows holds each curve's smallest-keyed edge, a deterministic witness,
    as every edge of a curve separates the same two regions.  Returns the
    region of every cell, the region count and per curve (corner's region,
    face cell's region, first midpoint).  Raises InternalInvariantError if
    a region holds no base vertex, then RegionCycleMismatch unless regions
    outnumber curves by one.
    """
    g = m.graph
    n, head, face, edge = g.n, g.dart_head, g.dart_face, g.dart_edge
    # parent[c] > c unless c is a root (see join_face), so resolving the
    # cells from the last one down leaves every cell pointing at its root.
    for c in range(len(parent) - 1, -1, -1):
        parent[c] = parent[parent[c]]
    # Roots in order of their smallest vertex cell; a region whose smallest
    # cell is a face cell has no vertex cell at all.
    label = {root: i for i, root in enumerate(dict.fromkeys(parent[:n]))}
    try:
        region_of_cell = list(map(label.__getitem__, parent))
    except KeyError:
        raise InternalInvariantError("region without any base vertex") from None
    sides = [  # the dart's own edge is the medial edge's first midpoint
        (region_of_cell[head[d]], region_of_cell[n + face[d]], edge[d])
        for d in lows
    ]
    if len(label) != len(sides) + 1:
        raise RegionCycleMismatch(f"{len(label)} regions but {len(sides)} curves")
    return region_of_cell, len(label), sides


def build_division_tree(
    curve_sides, num_regions: int
) -> tuple[set[int], list[int]]:
    """Join, for every curve, the two regions on its sides; verify treeness.

    curve_sides holds (region, region, midpoint) per curve.  Returns the
    tree's adjacency as one int a * num_regions + b per edge and order, and
    the node degrees.
    """
    k = num_regions
    adjacent: set[int] = set()
    degrees = [0] * k
    parent = list(range(k))
    for a, b, midpoint in curve_sides:
        if a == b:
            raise NotATree(
                f"curve through midpoint {midpoint} borders a single region"
            )
        ra, rb = a, b
        while parent[ra] != ra:  # find both roots, halving the paths
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            raise NotATree(
                f"regions {min(a, b)} and {max(a, b)} are joined by two curve paths"
            )
        parent[ra] = rb
        adjacent.add(a * k + b)
        adjacent.add(b * k + a)
        degrees[a] += 1
        degrees[b] += 1
    # k nodes with k - 1 acyclic edges are connected.
    if len(curve_sides) != k - 1:
        raise NotATree(f"{len(curve_sides)} edges on {k} regions")
    return adjacent, degrees


def assemble_dividing_system(m: MedialGraph, parities) -> tuple[int, ...]:
    """Check a parity vector from outside; return it as a tuple of int bits.

    Raises BadParameter unless parities holds one 0 or 1 per face; equal
    values such as 1.0 and True come back as the int 1.  Bit b of face f
    selects the medial edges at positions b, b + 2, ... of face f's walk,
    one of the two perfect matchings of the face's medial cycle.
    """
    bits = tuple(parities)
    if len(bits) != len(m.sides):
        raise BadParameter(
            f"expected {len(m.sides)} parity bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise BadParameter("parity bits must be 0 or 1")
    return tuple(map(int, bits))


def extract_cycles(m: MedialGraph, bits) -> tuple[Cycle, ...]:
    """The closed curves of the system with these bits, by smallest midpoint."""
    return decompose_regions(m, bits).cycles
