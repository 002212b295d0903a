import tracemalloc

import pytest

from corpus import (
    corpus_graphs,
    cycle_graph,
    face_darts,
    face_vertices,
    grid_graph,
    medial_ends,
    prism_graph,
    random_split_graphs,
)
from halfmono.instance_io import build, grid_instance
from halfmono.medial import build_medial_graph

CORPUS = corpus_graphs()


def _midpoint_walk(g, darts):
    """The midpoints (= base edge ids) around a face, in walk order."""
    return [g.dart_edge[d] for d in darts]


def _corner(m, i):
    """The base vertex that medial edge i cuts off: dart i's head."""
    return m.graph.dart_head[i]


def _face(m, i):
    """The face that medial edge i runs through: dart i's face."""
    return m.graph.dart_face[i]


def _position(m, i):
    """Walk position of medial edge i: dart i's offset in its face walk."""
    return i - m.graph.face_start[_face(m, i)]


def _matchings(m, f):
    """Face f's two perfect matchings, bit 0's and bit 1's medial edges."""
    fs = m.graph.face_start
    return range(fs[f], fs[f + 1], 2), range(fs[f] + 1, fs[f + 1], 2)


def _face_edges(m, face_id):
    """Face face_id's medial edges as (face, position, a, b, corner)."""
    return [
        (_face(m, i), _position(m, i), *medial_ends(m.graph, i), _corner(m, i))
        for i in range(len(m.graph.dart_tail))
        if _face(m, i) == face_id
    ]


def test_c4_counts_and_tags():
    m = build_medial_graph(cycle_graph(4))
    assert m.graph.num_edges == 4
    assert len(m.graph.dart_tail) == 8
    # base edge ids: 0={0,1}, 1={0,3}, 2={1,2}, 3={2,3}
    assert _face_edges(m, 0) == [
        (0, 0, 0, 2, 1),
        (0, 1, 2, 3, 2),
        (0, 2, 3, 1, 3),
        (0, 3, 1, 0, 0),
    ]
    assert _face_edges(m, 1) == [
        (1, 0, 1, 3, 3),
        (1, 1, 3, 2, 2),
        (1, 2, 2, 0, 1),
        (1, 3, 0, 1, 0),
    ]
    # indices run in (face, position) order
    assert [(_face(m, i), _position(m, i)) for i in range(8)] == sorted(
        (f, p) for f in range(2) for p in range(4)
    )


def test_grid_and_prism_counts():
    m = build_medial_graph(grid_graph(2, 3))
    assert (m.graph.num_edges, len(m.graph.dart_tail)) == (7, 14)
    cube = build_medial_graph(prism_graph(4))
    assert (cube.graph.num_edges, len(cube.graph.dart_tail)) == (12, 24)
    assert all(len(_midpoint_walk(cube.graph, f)) == 4 for f in face_darts(cube.graph))
    for f in range(cube.graph.num_faces):
        assert [len(matching) for matching in _matchings(cube, f)] == [2, 2]


def test_c4_matchings():
    m = build_medial_graph(cycle_graph(4))
    m0, m1 = _matchings(m, 0)
    assert [_position(m, i) for i in m0] == [0, 2]
    assert {_corner(m, i) for i in m0} == {1, 3}
    assert [_position(m, i) for i in m1] == [1, 3]
    assert {_corner(m, i) for i in m1} == {0, 2}


def test_hexagon_matchings_cut_one_side():
    g = grid_graph(2, 3)
    m = build_medial_graph(g)
    b = g.side
    hexagon = next(f for f, walk in enumerate(face_darts(g)) if len(walk) == 6)
    m0, m1 = _matchings(m, hexagon)
    assert len(m0) == len(m1) == 3
    assert len({b[_corner(m, i)] for i in m0}) == 1
    assert len({b[_corner(m, i)] for i in m1}) == 1
    assert {b[_corner(m, i)] for i in m0} != {b[_corner(m, i)] for i in m1}


@pytest.mark.parametrize("name,g", CORPUS)
def test_edge_count_law(name, g):
    m = build_medial_graph(g)
    # one medial edge per dart: one per walk position of each face
    assert sum(map(len, face_darts(g))) == len(g.dart_tail) == 2 * g.num_edges
    assert sum(len(s0) + len(s1) for s0, s1 in m.sides) == len(g.dart_tail)


@pytest.mark.parametrize("name,g", CORPUS)
def test_matchings_are_perfect_and_exhaustive(name, g):
    m = build_medial_graph(g)
    for f, darts in enumerate(face_darts(g)):
        walk = _midpoint_walk(g, darts)
        # the medial cycle runs along the walk: edge i joins walk[i], walk[i + 1]
        assert [medial_ends(g, i) for i in darts] == list(zip(walk, walk[1:] + walk[:1]))
        m0, m1 = _matchings(m, f)
        cycle_vertices = set(walk)
        for matching in (m0, m1):
            touched = [x for i in matching for x in medial_ends(g, i)]
            assert sorted(touched) == sorted(cycle_vertices)
        positions = [_position(m, i) for i in [*m0, *m1]]
        assert sorted(positions) == list(range(len(darts)))


@pytest.mark.parametrize("name,g", CORPUS)
def test_every_midpoint_on_two_faces_with_degree_four(name, g):
    appearances = [0] * g.num_edges
    for darts in face_darts(g):
        for x in set(_midpoint_walk(g, darts)):
            appearances[x] += 1
    assert appearances == [2] * g.num_edges
    degree = [0] * g.num_edges
    for d in range(len(g.dart_tail)):
        for x in medial_ends(g, d):
            degree[x] += 1
    assert degree == [4] * g.num_edges


@pytest.mark.parametrize("name,g", CORPUS)
def test_corners_alternate_bipartition_classes(name, g):
    m = build_medial_graph(g)
    b = g.side
    for f in range(g.num_faces):
        corners = [_corner(m, i) for i in range(len(g.dart_tail)) if _face(m, i) == f]
        sides = [b[v] for v in corners]
        assert all(
            sides[i] != sides[(i + 1) % len(sides)] for i in range(len(sides))
        )


@pytest.mark.parametrize("name,g", CORPUS + random_split_graphs())
def test_tables_follow_the_darts(name, g):
    m = build_medial_graph(g)
    # midpoints, corner and face are the plane graph's: edge i is dart i,
    # and the medial graph copies nothing per edge
    assert m._fields == ("graph", "sides")
    assert m.graph is g
    b = g.side
    for f, walk in enumerate(face_vertices(g)):
        matchings = _matchings(m, f)
        assert [_position(m, i) for i in matchings[0]] == list(range(0, len(walk), 2))
        assert [_position(m, i) for i in matchings[1]] == list(range(1, len(walk), 2))
        sides = [{b[_corner(m, i)] for i in s} for s in matchings]
        assert len(sides[0]) == len(sides[1]) == 1 and sides[0] != sides[1]
        for bit in (0, 1):  # the corners cut off by the unselected edges
            cut = sorted(_corner(m, i) for i in matchings[1 - bit])
            assert sorted(m.sides[f][bit]) == cut
            assert m.sides[f][bit] == walk[bit::2]


def test_grid_tables_stay_small():
    # What build and build_medial_graph keep for the 100 x 100 grid (10^4
    # vertices, 39,600 darts, 9,802 faces), in bytes, under Python 3.10 to
    # 3.12: 6.98-7.24 MB when the medial graph keeps only each face's two
    # sides, 9.51-9.78 MB when it also copied both midpoints of every
    # edge, and 16.96 MB, measured earlier, when each face was also an
    # object holding its darts and vertices and the medial graph kept its
    # own dart order and both matchings of every face.
    inst = grid_instance(100, 100)
    tracemalloc.start()
    try:
        g = build(inst)
        m = build_medial_graph(g)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.graph is g
    assert size < 8_500_000
