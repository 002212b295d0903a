import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import (
    corpus_graphs,
    cycle_graph,
    face_vertices,
    grid_graph,
    medial_ends,
    oracle_corpus_graphs,
    prism_graph,
    random_split_graphs,
    random_subdivided_graphs,
)
from halfmono.dividing import (
    assemble_dividing_system,
    build_division_tree,
    decompose_regions,
    extract_cycles,
    join_face,
)
from halfmono.errors import BadParameter
from halfmono.medial import build_medial_graph

SMALL = [cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)]


def _decompose(g, parities):
    m = build_medial_graph(g)
    return decompose_regions(m, assemble_dividing_system(m, parities))


def _tree(g, parities):
    """The division tree of one system: its edges, aligned with the curves,
    its adjacency and its node degrees."""
    s = decompose_regions(build_medial_graph(g), parities)
    adjacent, degrees = build_division_tree(s.curve_sides, s.num_regions)
    return _aligned_edges(s), adjacent, degrees


def _aligned_edges(s):
    return [(a, b) if a < b else (b, a) for a, b, _ in s.curve_sides]


def test_c4_double_digon_system():
    g = cycle_graph(4)
    r = _decompose(g, (0, 0))
    assert [c.vertices for c in r.cycles] == [(0, 2), (1, 3)]
    assert all(len(c.edges) == 2 for c in r.cycles)
    assert r.num_regions == 3
    assert r.regions == ((0, 2), (1,), (3,))
    cut = sorted(g.dart_head[d] for c in r.cycles for d in c.edges)
    assert cut == [1, 1, 3, 3]  # cut vertices


def test_c4_single_curve_system():
    r = _decompose(cycle_graph(4), (0, 1))
    assert len(r.cycles) == 1
    assert len(r.cycles[0].edges) == 4
    assert r.num_regions == 2
    assert r.regions == ((0, 2), (1, 3))


def test_c6_triple_digon_system():
    r = _decompose(cycle_graph(6), (0, 0))
    assert [c.vertices for c in r.cycles] == [(0, 2), (1, 5), (3, 4)]
    assert r.num_regions == 4
    assert r.regions == ((0, 2, 4), (1,), (3,), (5,))


def test_c4_trees():
    edges, adjacent, degrees = _tree(cycle_graph(4), (0, 0))
    assert edges == [(0, 1), (0, 2)]
    assert adjacent == {0 * 3 + 1, 1 * 3 + 0, 0 * 3 + 2, 2 * 3 + 0}
    assert degrees == [2, 1, 1]  # leaves 1 and 2, node 0 of degree 2

    edges, adjacent, degrees = _tree(cycle_graph(4), (0, 1))
    assert edges == [(0, 1)]
    assert adjacent == {0 * 2 + 1, 1 * 2 + 0}
    assert degrees == [1, 1]


def test_c6_star_tree():
    edges, _, degrees = _tree(cycle_graph(6), (0, 0))
    assert sorted(edges) == [(0, 1), (0, 2), (0, 3)]
    assert degrees == [3, 1, 1, 1]  # leaves 1, 2 and 3, node 0 of degree 3


def test_bad_parity_vectors_rejected():
    m = build_medial_graph(cycle_graph(4))
    with pytest.raises(BadParameter, match=r"^expected 2 parity bits, got 1$"):
        assemble_dividing_system(m, (0,))
    with pytest.raises(BadParameter, match=r"^parity bits must be 0 or 1$"):
        assemble_dividing_system(m, (0, 2))


@pytest.mark.parametrize("parities", [(1.0, 0.0), (True, False)])
def test_equal_float_and_bool_bits_assemble_as_ints(parities):
    m = build_medial_graph(cycle_graph(4))
    bits = assemble_dividing_system(m, parities)
    assert bits == (1, 0) and all(type(b) is int for b in bits)
    assert decompose_regions(m, bits) == decompose_regions(m, (1, 0))


@pytest.mark.parametrize("g", SMALL, ids=lambda g: f"n{g.n}f{g.num_faces}")
def test_all_systems_obey_the_laws(g):
    m = build_medial_graph(g)
    nf = g.num_faces
    for idx in range(1 << nf):
        parities = tuple((idx >> (nf - 1 - f)) & 1 for f in range(nf))
        bits = assemble_dividing_system(m, parities)
        cycles = extract_cycles(m, bits)  # verifies degree-2 law
        r = decompose_regions(m, bits)  # verifies regions == cycles + 1
        assert r.cycles == cycles
        _, degrees = build_division_tree(r.curve_sides, r.num_regions)  # tree laws
        assert len(degrees) == r.num_regions
        assert len(r.curve_sides) == len(cycles) == r.num_regions - 1
        # the region vertex sets partition the base vertices
        everything = [v for region in r.regions for v in region]
        assert sorted(everything) == list(range(g.n))
        # each vertex is cut at most once per incident face
        cuts = Counter(g.dart_head[d] for c in cycles for d in c.edges)
        assert all(cuts[v] <= g.degree(v) for v in range(g.n))


@given(
    g=st.sampled_from([g for _, g in corpus_graphs() if g.num_faces <= 10]),
    data=st.data(),
)
def test_random_system_laws(g, data):
    nf = g.num_faces
    idx = data.draw(st.integers(min_value=0, max_value=(1 << nf) - 1))
    parities = tuple((idx >> (nf - 1 - f)) & 1 for f in range(nf))
    m = build_medial_graph(g)
    r = decompose_regions(m, assemble_dividing_system(m, parities))
    _, adjacent, degrees = _tree(g, parities)
    assert r.num_regions == len(r.cycles) + 1
    assert all(len(region) >= 1 for region in r.regions)
    # structural claims: base edges only join adjacent regions; busy nodes
    # hold at least two vertices
    k = r.num_regions
    for u, v in g.edges:
        ru, rv = r.region_of_cell[u], r.region_of_cell[v]
        assert ru != rv
        assert ru * k + rv in adjacent
    for node, deg in enumerate(degrees):
        if deg >= 2:
            assert len(r.regions[node]) >= 2


@given(g=st.sampled_from(SMALL))
def test_cycle_walks_are_consistent(g):
    m = build_medial_graph(g)
    bits = assemble_dividing_system(m, tuple([0] * g.num_faces))
    cycles = extract_cycles(m, bits)
    # each curve starts at its smallest midpoint, in order of that midpoint
    assert all(cyc.vertices[0] == min(cyc.vertices) for cyc in cycles)
    starts = [cyc.vertices[0] for cyc in cycles]
    assert starts == sorted(starts)
    for cyc in cycles:
        k = len(cyc.vertices)
        assert len(cyc.edges) == k
        for i, d in enumerate(cyc.edges):
            ends = {g.dart_edge[d], g.dart_edge[g.dart_next[d]]}
            assert {cyc.vertices[i], cyc.vertices[(i + 1) % k]} == ends


CURVE_GRAPHS = [
    (name, g)
    for name, g in corpus_graphs() + random_split_graphs()
    if g.num_faces <= 10
]


@pytest.mark.parametrize("name,g", CURVE_GRAPHS)
def test_kernel_curve_sides_follow_the_extracted_curves(name, g):
    # decompose_regions and extract_cycles share one walker: the same curves
    # in the same order, each side entry taken at a midpoint of its curve.
    m = build_medial_graph(g)
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        sides = decompose_regions(m, bits).curve_sides
        cycles = extract_cycles(m, bits)
        assert len(sides) == len(cycles), bits
        for (_, _, midpoint), cyc in zip(sides, cycles):
            assert midpoint in cyc.vertices, bits


@pytest.mark.parametrize("name,g", CURVE_GRAPHS)
def test_every_edge_of_a_curve_separates_its_two_sides(name, g):
    # curve_sides reads one edge per curve; every other edge of that curve
    # must separate the same two regions: the corner its dart cuts off and
    # the face cell it runs through.
    m = build_medial_graph(g)
    n, head, face = g.n, g.dart_head, g.dart_face
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        r = decompose_regions(m, bits)
        cell = r.region_of_cell
        for (a, b, _), c in zip(r.curve_sides, r.cycles, strict=True):
            for d in c.edges:
                assert {cell[head[d]], cell[n + face[d]]} == {a, b}, (bits, d)


@pytest.mark.parametrize("name,g", CURVE_GRAPHS)
def test_joined_faces_point_every_cell_at_a_later_one(name, g):
    # label_regions resolves the union-find from the last cell down, which
    # is right only if every non-root points at a later cell
    m = build_medial_graph(g)
    n = g.n
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        parent = list(range(n + len(bits)))
        merged = sum(
            join_face(parent, n + f, m.sides[f][bit]) for f, bit in enumerate(bits)
        )
        assert all(p >= c for c, p in enumerate(parent)), bits
        roots = sum(p == c for c, p in enumerate(parent))
        assert roots == decompose_regions(m, bits).num_regions, bits
        assert n + len(bits) - merged == roots, bits


def _reference_region_of_cell(m, parities):
    """Union-find over each unselected medial edge's (corner, face cell) pair,
    regions numbered by smallest cell."""
    g = m.graph
    parent = list(range(g.n + g.num_faces))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    fs = g.face_start
    for f, bit in enumerate(parities):
        for d in range(fs[f] + 1 - bit, fs[f + 1], 2):
            parent[find(g.dart_head[d])] = find(g.n + g.dart_face[d])
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(cell), len(ids)) for cell in range(len(parent)))


@given(
    g=st.sampled_from(
        [g for _, g in corpus_graphs() + oracle_corpus_graphs() if g.num_faces <= 10]
    ),
    data=st.data(),
)
def test_regions_match_medial_edge_union_find(g, data):
    nf = g.num_faces
    parities = tuple(data.draw(st.lists(st.integers(0, 1), min_size=nf, max_size=nf)))
    m = build_medial_graph(g)
    r = decompose_regions(m, assemble_dividing_system(m, parities))
    assert r.region_of_cell == _reference_region_of_cell(m, parities)


# sha256 over every system's regions, curves and curve edge keys, in
# parity-vector order; captured before regions were read off the face walks.
# A curve edge's key is (face, position) of its dart in the face walks.
SYSTEM_DIGESTS = {
    "cycle6": (
        cycle_graph(6),
        "1658d6854dce3fc8c6a867b385a6400bd0454d217a2970f1f0395924b8b50569",
    ),
    "grid3x4": (
        grid_graph(3, 4),
        "db8cad7ecfb6a8d45069a627dfd037afc100dcc9c080d0051ff649c5d6300a70",
    ),
    "prism6": (
        prism_graph(6),
        "838aee0064b5ac3a638d32e83874d8b18907fc5b3e04b64f9332cd6d4a121261",
    ),
}


def _dart_key(g):
    return lambda d: (g.dart_face[d], d - g.face_start[g.dart_face[d]])


# sha256 over every system's (bits, curve_sides): the division tree's edges
# and the midpoint each NotATree message names, read at each curve's
# largest edge.
CURVE_SIDE_DIGESTS = {
    "cycle6": "e2fd47d6c4199fd7a9083eeda5d63b5950058cdeee28db55e60ce89fcd112be7",
    "grid3x4": "39de83fee14aa082dc674314e35fb6f4e7efc5c02c89d4f6b87d9c2f179b8a64",
    "prism6": "36e3da62729e3bd11400d02ecf6a2292553651f9eb9e00043ce4e5f341d1bba6",
}


@pytest.mark.parametrize("name", sorted(CURVE_SIDE_DIGESTS))
def test_every_system_curve_sides_golden_digest(name):
    g = SYSTEM_DIGESTS[name][0]
    m = build_medial_graph(g)
    h = hashlib.sha256()
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        sides = decompose_regions(m, bits).curve_sides
        h.update(repr((bits, tuple(map(tuple, sides)))).encode())
    assert h.hexdigest() == CURVE_SIDE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SYSTEM_DIGESTS))
def test_every_system_golden_digest(name):
    g, expected = SYSTEM_DIGESTS[name]
    m = build_medial_graph(g)
    h = hashlib.sha256()
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        r = decompose_regions(m, assemble_dividing_system(m, bits))
        record = (
            bits,
            r.region_of_cell,
            r.regions,
            tuple(c.vertices for c in r.cycles),
            tuple(tuple(map(_dart_key(g), c.edges)) for c in r.cycles),
        )
        h.update(repr(record).encode())
    assert h.hexdigest() == expected


def _reference_system(m, bits):
    """The object pipeline the region kernel replaced, kept as its reference:
    (region_of_cell, region count, curve count, division tree edges)."""
    g = m.graph
    n = g.n
    fs = g.face_start
    selected = [e for f, b in enumerate(bits) for e in range(fs[f] + b, fs[f + 1], 2)]
    degree = [0] * g.num_edges
    for e in selected:
        for v in medial_ends(g, e):
            degree[v] += 1
    assert all(d == 2 for d in degree)

    incident = {v: [] for v in reversed(range(len(selected)))}
    for e in selected:
        for v in medial_ends(g, e):
            incident[v].append(e)
    cycles = []
    while incident:
        start, (edge, _) = incident.popitem()
        edges = []
        current = start
        while True:
            edges.append(edge)
            a, b = medial_ends(g, edge)
            current = b if a == current else a
            if current == start:
                break
            pair = incident.pop(current)
            edge = pair[pair[0] == edge]
        cycles.append(edges)

    parent = list(range(n + g.num_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, (bit, walk) in enumerate(zip(bits, face_vertices(g))):
        for v in walk[bit::2]:
            root = find(v)
            if root != n + f:
                parent[root] = n + f
    region_of_cell = [-1] * len(parent)
    num_regions = 0
    for cell in range(len(parent)):
        root = find(cell)
        if region_of_cell[root] < 0:
            assert cell < n, "region without any base vertex"
            region_of_cell[root] = num_regions
            num_regions += 1
        region_of_cell[cell] = region_of_cell[root]

    tree = []
    for edges in cycles:
        d = min(edges)  # darts run in (face, position) order
        a, b = region_of_cell[g.dart_head[d]], region_of_cell[n + g.dart_face[d]]
        tree.append((min(a, b), max(a, b)))
    return region_of_cell, num_regions, len(cycles), tree


@pytest.mark.parametrize(
    "name,g", corpus_graphs() + oracle_corpus_graphs() + random_subdivided_graphs()
)
def test_kernel_matches_object_pipeline_on_every_system(name, g):
    m = build_medial_graph(g)
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        s = decompose_regions(m, bits)
        build_division_tree(s.curve_sides, s.num_regions)  # verifies tree laws
        tree_edges = _aligned_edges(s)
        kernel = (list(s.region_of_cell), s.num_regions, len(s.curve_sides), tree_edges)
        assert kernel == _reference_system(m, bits), bits
