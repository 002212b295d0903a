"""Dividing systems: per-face matchings, their closed curves and regions.

A dividing system picks, in every face, one of the two perfect matchings of
that face's medial cycle.  The union of the selected edges is a disjoint
collection of closed curves.  Regions are computed without any geometry:
the faces of the medial graph are one cell per base vertex plus one cell
per base face, and two cells sharing a non-selected medial edge lie in the
same region.  The medial edge at walk position i of a face joins the
midpoints of walk edges i and i + 1, so it cuts off walk vertex i + 1.  A
face with bit b leaves positions 1 - b, 3 - b, ... unselected, and as its
walk has even length those cut off walk vertices b, b + 2, ...: one
bipartition side of its boundary.  So the regions are the components of
the graph joining each face cell to that side.  The classical fact
"k closed curves cut the sphere into k + 1 regions" becomes a verified law
rather than an assumption.

`region_kernel` does all of this for one parity vector on int tables that
`kernel_tables` builds once per medial graph, and allocates no per-curve
or per-region object; the law sweep and the witness certificate run it.
`region_decomposition` turns its arrays into the dataclasses below, once,
for the output of a result; `decompose_regions`, `extract_cycles` and
`build_division_tree` do the same from a `DividingSystem` for the renderer,
the public API and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadParameter,
    InternalDegreeViolation,
    InternalInvariantError,
    NotATree,
    RegionCycleMismatch,
)
from .medial import MedialEdge, MedialGraph


@dataclass(frozen=True)
class DividingSystem:
    """One selected matching per face.

    edges is sorted by (face, position) key; extract_cycles relies on it.
    """

    parities: tuple[int, ...]  # one matching-selection bit per face
    edges: tuple[MedialEdge, ...]


@dataclass(frozen=True)
class Cycle:
    """One closed curve; edges[i] joins vertices[i] to vertices[(i+1) % len]."""

    vertices: tuple[int, ...]
    edges: tuple[MedialEdge, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class RegionDecomposition:
    n: int  # base vertex count; cells 0..n-1 are vertex cells, then face cells
    num_regions: int
    region_of_cell: tuple[int, ...]
    regions: tuple[tuple[int, ...], ...]  # base vertices per region, sorted
    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class DivisionTree:
    """One node per region, one edge per closed curve between its two sides."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]  # aligned with the decomposition cycles
    edge_set: frozenset[tuple[int, int]]
    degrees: tuple[int, ...]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edge_set

    def degree_classes(self) -> dict[int, tuple[int, ...]]:
        classes: dict[int, list[int]] = {}
        for node, deg in enumerate(self.degrees):
            classes.setdefault(deg, []).append(node)
        return {deg: tuple(nodes) for deg, nodes in sorted(classes.items())}


@dataclass(frozen=True)
class KernelTables:
    """Int tables of one medial graph, shared by every system of an op.

    Medial edge i is m.edges[i].  m.edges is in (face, position) order, so
    comparing two indices compares the two keys.
    """

    n: int  # base vertex count
    num_midpoints: int
    selected: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # [face][bit]
    sides: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # [face][bit]
    ends: tuple[tuple[int, int], ...]  # the two midpoints of each medial edge
    corner: tuple[int, ...]
    face: tuple[int, ...]


class SystemArrays(NamedTuple):
    """What region_kernel computes for one parity vector."""

    region_of_cell: list[int]
    num_regions: int
    walk: list[int]  # selected medial edges, curve after curve, in walk order
    walk_midpoints: list[int]  # walk[k] leaves walk_midpoints[k]
    curve_ends: list[int]  # curve c is walk[curve_ends[c - 1]:curve_ends[c]]
    curve_sides: list[tuple[int, int, int]]  # (region, region, midpoint)


def kernel_tables(m: MedialGraph) -> KernelTables:
    """The int tables region_kernel reads, built in one pass over m."""
    g = m.graph
    selected = []
    start = 0
    for f in g.faces:
        stop = start + f.degree
        selected.append(
            (tuple(range(start, stop, 2)), tuple(range(start + 1, stop, 2)))
        )
        start = stop
    return KernelTables(
        n=g.n,
        num_midpoints=m.num_vertices,
        selected=tuple(selected),
        sides=tuple((f.vertices[0::2], f.vertices[1::2]) for f in g.faces),
        ends=tuple((e.a, e.b) for e in m.edges),
        corner=tuple(e.corner for e in m.edges),
        face=tuple(e.face for e in m.edges),
    )


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _incidences(
    num_midpoints: int, ends, selected
) -> tuple[list[int], list[int]]:
    """Each midpoint's two selected edges, in the order of `selected`.

    Verifies the degree-two law: every midpoint lies on exactly two.
    """
    first = [-1] * num_midpoints
    second = [-1] * num_midpoints
    for e in selected:
        for v in ends[e]:
            if first[v] < 0:
                first[v] = e
            elif second[v] < 0:
                second[v] = e
            else:
                raise _degree_violation(num_midpoints, ends, selected)
    if -1 in second:
        raise _degree_violation(num_midpoints, ends, selected)
    return first, second


def _degree_violation(num_midpoints: int, ends, selected) -> InternalDegreeViolation:
    degree = [0] * num_midpoints
    for e in selected:
        for v in ends[e]:
            degree[v] += 1
    bad = next(v for v, d in enumerate(degree) if d != 2)
    return InternalDegreeViolation(
        f"midpoint {bad} has degree {degree[bad]}, expected 2"
    )


def _walk_curves(
    num_midpoints: int, ends, selected
) -> tuple[list[int], list[int], list[int]]:
    """Split the selected edges into closed curves, ordered by smallest midpoint.

    `selected` must be in key order: then each midpoint's first incidence is
    its smaller-keyed edge, by which a curve leaves its smallest midpoint.
    Returns (walk, walk_midpoints, curve_ends) as in SystemArrays.
    """
    first, second = _incidences(num_midpoints, ends, selected)
    walk: list[int] = []
    walk_midpoints: list[int] = []
    curve_ends: list[int] = []
    for start in range(num_midpoints):
        e = first[start]
        if e < 0:  # walked as part of an earlier curve
            continue
        first[start] = -1
        v = start
        while True:
            walk_midpoints.append(v)
            walk.append(e)
            a, b = ends[e]
            v = b if a == v else a
            if v == start:
                break
            nxt = first[v]
            first[v] = -1
            e = second[v] if nxt == e else nxt  # leave by the other edge
        curve_ends.append(len(walk))
    return walk, walk_midpoints, curve_ends


def region_kernel(t: KernelTables, bits) -> SystemArrays:
    """Regions and curves of the dividing system with these parity bits.

    Joins face cell n + f to t.sides[f][bit] (see the module docstring) by
    union-find, numbers regions by smallest cell and walks the curves.
    Verifies the degree-two law, that every region holds a base vertex and
    that regions outnumber curves by exactly one.  `bits` must be one 0 or
    1 per face; assemble_dividing_system checks parity vectors from outside.
    """
    n, sides, selected_by_face = t.n, t.sides, t.selected
    parent = list(range(n + len(bits)))
    selected: list[int] = []
    for f, bit in enumerate(bits):
        # No earlier face links cell n + f, so it is a root and stays one.
        cell = n + f
        for v in sides[f][bit]:
            root = _find(parent, v)
            if root != cell:
                parent[root] = cell
        selected += selected_by_face[f][bit]

    # A union points a root at a later face cell and path halving only
    # skips ahead, so parent[c] > c unless c is a root: resolving the cells
    # from the last one down leaves every cell pointing at its root.
    for c in range(len(parent) - 1, -1, -1):
        parent[c] = parent[parent[c]]
    # Roots in order of their smallest vertex cell; a region whose smallest
    # cell is a face cell has no vertex cell at all.
    label = {root: i for i, root in enumerate(dict.fromkeys(parent[:n]))}
    try:
        region_of_cell = list(map(label.__getitem__, parent))
    except KeyError:
        raise InternalInvariantError("region without any base vertex") from None

    walk, walk_midpoints, curve_ends = _walk_curves(
        t.num_midpoints, t.ends, selected
    )
    if len(label) != len(curve_ends) + 1:
        raise RegionCycleMismatch(
            f"{len(label)} regions but {len(curve_ends)} curves"
        )
    # Every edge of one curve separates the same two regions, so the edge
    # with the smallest (face, position) key is the deterministic witness.
    corner, face, ends = t.corner, t.face, t.ends
    curve_sides = []
    begin = 0
    for end in curve_ends:
        e = min(walk[begin:end])
        curve_sides.append(
            (region_of_cell[corner[e]], region_of_cell[n + face[e]], ends[e][0])
        )
        begin = end
    return SystemArrays(
        region_of_cell, len(label), walk, walk_midpoints, curve_ends, curve_sides
    )


def division_tree(
    curve_sides, num_regions: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Join, for every curve, the two regions on its sides; verify treeness.

    curve_sides holds (region, region, midpoint) per curve.  Returns the
    tree edges, aligned with the curves, and the node degrees.
    """
    edges: list[tuple[int, int]] = []
    for a, b, midpoint in curve_sides:
        if a == b:
            raise NotATree(
                f"curve through midpoint {midpoint} borders a single region"
            )
        edges.append((a, b) if a < b else (b, a))

    parent = list(range(num_regions))
    degrees = [0] * num_regions
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            raise NotATree(f"regions {a} and {b} are joined by two curve paths")
        parent[ra] = rb
    # num_regions nodes with num_regions - 1 acyclic edges are connected.
    if len(edges) != num_regions - 1:
        raise NotATree(f"{len(edges)} edges on {num_regions} regions")
    return edges, degrees


def assemble_dividing_system(
    m: MedialGraph, parities
) -> DividingSystem:
    """Check a parity vector from outside and select one matching per face.

    Raises BadParameter unless parities holds one 0 or 1 per face.  Every
    midpoint lies on exactly two face cycles and receives one matching edge
    from each, so the selected edges form vertex-disjoint closed curves;
    extract_cycles and decompose_regions verify that degree-two law.
    """
    bits = tuple(parities)
    if len(bits) != len(m.face_edges):
        raise BadParameter(
            f"expected {len(m.face_edges)} parity bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise BadParameter("parity bits must be 0 or 1")

    selected: list[MedialEdge] = []
    for f, bit in enumerate(bits):
        selected.extend(m.face_edges[f][bit::2])
    return DividingSystem(parities=bits, edges=tuple(selected))


def _cycles(
    edges, walk: list[int], walk_midpoints: list[int], curve_ends: list[int]
) -> tuple[Cycle, ...]:
    cycles = []
    begin = 0
    for end in curve_ends:
        cycles.append(
            Cycle(
                vertices=tuple(walk_midpoints[begin:end]),
                edges=tuple(edges[e] for e in walk[begin:end]),
            )
        )
        begin = end
    return tuple(cycles)


def extract_cycles(d: DividingSystem) -> tuple[Cycle, ...]:
    """Split the selected edges into closed curves, ordered by smallest midpoint."""
    # Midpoints have degree two, so they are as many as the edges.
    k = len(d.edges)
    walked = _walk_curves(k, [(e.a, e.b) for e in d.edges], range(k))
    return _cycles(d.edges, *walked)


def region_decomposition(m: MedialGraph, s: SystemArrays) -> RegionDecomposition:
    """The dataclass view of region_kernel's arrays s for a system of m.

    Regions are numbered by smallest cell; each lists its base vertices.
    """
    n = m.graph.n
    regions: list[list[int]] = [[] for _ in range(s.num_regions)]
    for v in range(n):
        regions[s.region_of_cell[v]].append(v)
    return RegionDecomposition(
        n=n,
        num_regions=s.num_regions,
        region_of_cell=tuple(s.region_of_cell),
        regions=tuple(map(tuple, regions)),
        cycles=_cycles(m.edges, s.walk, s.walk_midpoints, s.curve_ends),
    )


def decompose_regions(m: MedialGraph, d: DividingSystem) -> RegionDecomposition:
    """The regions and curves of d, as region_kernel computes and checks them."""
    return region_decomposition(m, region_kernel(kernel_tables(m), d.parities))


def build_division_tree(r: RegionDecomposition) -> DivisionTree:
    """The division tree of r's curves; see division_tree."""
    rc = r.region_of_cell
    sides = []
    for cyc in r.cycles:
        e = min(cyc.edges, key=lambda me: me.key)
        sides.append((rc[e.corner], rc[r.n + e.face], e.a))
    edges, degrees = division_tree(sides, r.num_regions)
    return DivisionTree(
        num_nodes=r.num_regions,
        edges=tuple(edges),
        edge_set=frozenset(edges),
        degrees=tuple(degrees),
    )
