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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    cut_count: tuple[int, ...]  # selected edges cutting each base vertex


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


def assemble_dividing_system(
    m: MedialGraph, parities
) -> DividingSystem:
    """Select one matching per face and verify the degree-two law.

    Every midpoint lies on exactly two face cycles and receives one matching
    edge from each, so the selected edges form vertex-disjoint closed curves.
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

    degree = [0] * m.num_vertices
    cut_count = [0] * m.graph.n
    for e in selected:
        degree[e.a] += 1
        degree[e.b] += 1
        cut_count[e.corner] += 1
    bad = [v for v, d in enumerate(degree) if d != 2]
    if bad:
        raise InternalDegreeViolation(
            f"midpoint {bad[0]} has degree {degree[bad[0]]}, expected 2"
        )
    return DividingSystem(
        parities=bits, edges=tuple(selected), cut_count=tuple(cut_count)
    )


def extract_cycles(d: DividingSystem) -> tuple[Cycle, ...]:
    """Split the selected edges into closed curves, ordered by smallest midpoint."""
    # d.edges is in key order, so each incidence list is too, and a curve
    # leaves its smallest midpoint by the smaller-keyed edge.  Midpoints have
    # degree two, so they are as many as the edges; inserting them largest
    # first makes popitem() yield the smallest midpoint not yet walked.
    incident: dict[int, list[MedialEdge]] = {
        v: [] for v in reversed(range(len(d.edges)))
    }
    for e in d.edges:
        incident[e.a].append(e)
        incident[e.b].append(e)

    cycles: list[Cycle] = []
    while incident:
        start, (edge, _) = incident.popitem()
        verts = [start]
        edges: list[MedialEdge] = []
        current = start
        while True:
            edges.append(edge)
            current = edge.b if edge.a == current else edge.a
            if current == start:
                break
            verts.append(current)
            pair = incident.pop(current)
            edge = pair[pair[0] is edge]  # leave by the other edge
        cycles.append(Cycle(vertices=tuple(verts), edges=tuple(edges)))
    return tuple(cycles)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def decompose_regions(m: MedialGraph, d: DividingSystem) -> RegionDecomposition:
    """Union-find the medial cells into regions of the dividing system.

    Each non-selected medial edge is an open border between the cell of the
    vertex it cuts off and the cell of its face; for face f with bit b those
    vertices are g.faces[f].vertices[b::2] (see the module docstring).
    Regions are numbered by smallest cell.  Verifies that every region
    holds a base vertex and that regions outnumber curves by exactly one.
    """
    g = m.graph
    n = g.n
    num_cells = n + g.num_faces
    parent = list(range(num_cells))
    for f, bit in enumerate(d.parities):
        # No earlier face links cell n + f, so it is a root and stays one.
        cell = n + f
        for v in g.faces[f].vertices[bit::2]:
            root = _find(parent, v)
            if root != cell:
                parent[root] = cell

    # Scanning cells in order numbers each region at its smallest cell.
    region_of_cell = [-1] * num_cells
    regions: list[list[int]] = []
    for cell in range(num_cells):
        root = _find(parent, cell)
        if region_of_cell[root] < 0:
            if cell >= n:
                raise InternalInvariantError("region without any base vertex")
            region_of_cell[root] = len(regions)
            regions.append([])
        rid = region_of_cell[cell] = region_of_cell[root]
        if cell < n:
            regions[rid].append(cell)

    cycles = extract_cycles(d)
    if len(regions) != len(cycles) + 1:
        raise RegionCycleMismatch(
            f"{len(regions)} regions but {len(cycles)} curves"
        )
    return RegionDecomposition(
        n=n,
        num_regions=len(regions),
        region_of_cell=tuple(region_of_cell),
        regions=tuple(map(tuple, regions)),
        cycles=cycles,
    )


def build_division_tree(r: RegionDecomposition) -> DivisionTree:
    """Join, for every curve, the two regions on its sides; verify treeness.

    Every edge of one curve separates the same two regions, so the edge with
    the smallest (face, position) tag is used as the deterministic witness.
    """
    tree_edges: list[tuple[int, int]] = []
    for cyc in r.cycles:
        e = min(cyc.edges, key=lambda me: me.key)
        a = r.region_of_cell[e.corner]
        b = r.region_of_cell[r.n + e.face]
        if a == b:
            raise NotATree(f"curve through midpoint {e.a} borders a single region")
        tree_edges.append((min(a, b), max(a, b)))

    parent = list(range(r.num_regions))
    degrees = [0] * r.num_regions
    for a, b in tree_edges:
        degrees[a] += 1
        degrees[b] += 1
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            raise NotATree(f"regions {a} and {b} are joined by two curve paths")
        parent[ra] = rb
    # num_regions nodes with num_regions - 1 acyclic edges are connected.
    if len(tree_edges) != r.num_regions - 1:
        raise NotATree(
            f"{len(tree_edges)} edges on {r.num_regions} regions"
        )
    return DivisionTree(
        num_nodes=r.num_regions,
        edges=tuple(tree_edges),
        edge_set=frozenset(tree_edges),
        degrees=tuple(degrees),
    )
