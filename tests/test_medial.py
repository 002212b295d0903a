import dataclasses

import pytest

from corpus import corpus_graphs, cycle_graph, grid_graph, prism_graph, random_split_graphs
from halfmono.medial import build_medial_graph

CORPUS = corpus_graphs()


def _midpoint_walk(g, f):
    """The midpoints (= base edge ids) around face f, in walk order."""
    return [g.dart_edge[d] for d in f.darts]


def _corner(m, i):
    """The base vertex that medial edge i cuts off: its dart's head."""
    return m.graph.dart_head[m.dart[i]]


def _face(m, i):
    """The face that medial edge i runs through: its dart's face."""
    return m.graph.dart_face[m.dart[i]]


def _position(m, i):
    """Walk position of medial edge i: its dart's place in its face walk."""
    return m.graph.faces[_face(m, i)].darts.index(m.dart[i])


def _face_edges(m, face_id):
    """Face face_id's medial edges as (face, position, a, b, corner)."""
    return [
        (_face(m, i), _position(m, i), *m.ends[i], _corner(m, i))
        for i in range(len(m.dart))
        if _face(m, i) == face_id
    ]


def test_c4_counts_and_tags():
    m = build_medial_graph(cycle_graph(4))
    assert m.graph.num_edges == 4
    assert len(m.dart) == 8
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
    assert (m.graph.num_edges, len(m.dart)) == (7, 14)
    cube = build_medial_graph(prism_graph(4))
    assert (cube.graph.num_edges, len(cube.dart)) == (12, 24)
    assert all(len(_midpoint_walk(cube.graph, f)) == 4 for f in cube.graph.faces)
    assert all(len(m0) == len(m1) == 2 for m0, m1 in cube.selected)


def test_c4_matchings():
    m = build_medial_graph(cycle_graph(4))
    m0, m1 = m.selected[0]
    assert [_position(m, i) for i in m0] == [0, 2]
    assert {_corner(m, i) for i in m0} == {1, 3}
    assert [_position(m, i) for i in m1] == [1, 3]
    assert {_corner(m, i) for i in m1} == {0, 2}


def test_hexagon_matchings_cut_one_side():
    g = grid_graph(2, 3)
    m = build_medial_graph(g)
    b = g.side
    hexagon = next(f.id for f in g.faces if f.degree == 6)
    m0, m1 = m.selected[hexagon]
    assert len(m0) == len(m1) == 3
    assert len({b[_corner(m, i)] for i in m0}) == 1
    assert len({b[_corner(m, i)] for i in m1}) == 1
    assert {b[_corner(m, i)] for i in m0} != {b[_corner(m, i)] for i in m1}


@pytest.mark.parametrize("name,g", CORPUS)
def test_edge_count_law(name, g):
    m = build_medial_graph(g)
    tables = (m.dart, m.ends)
    assert {len(t) for t in tables} == {sum(f.degree for f in g.faces)}
    assert len(m.dart) == 2 * g.num_edges


@pytest.mark.parametrize("name,g", CORPUS)
def test_matchings_are_perfect_and_exhaustive(name, g):
    m = build_medial_graph(g)
    for f in g.faces:
        walk = _midpoint_walk(g, f)
        # the medial cycle runs along the walk: edge i joins walk[i], walk[i + 1]
        assert [m.ends[i] for i in range(len(m.dart)) if _face(m, i) == f.id] == list(
            zip(walk, walk[1:] + walk[:1])
        )
        m0, m1 = m.selected[f.id]
        cycle_vertices = set(walk)
        for matching in (m0, m1):
            touched = [x for i in matching for x in m.ends[i]]
            assert sorted(touched) == sorted(cycle_vertices)
        positions = [_position(m, i) for i in m0 + m1]
        assert sorted(positions) == list(range(f.degree))


@pytest.mark.parametrize("name,g", CORPUS)
def test_every_midpoint_on_two_faces_with_degree_four(name, g):
    m = build_medial_graph(g)
    appearances = [0] * g.num_edges
    for f in g.faces:
        for x in set(_midpoint_walk(g, f)):
            appearances[x] += 1
    assert appearances == [2] * g.num_edges
    degree = [0] * g.num_edges
    for a, b in m.ends:
        degree[a] += 1
        degree[b] += 1
    assert degree == [4] * g.num_edges


@pytest.mark.parametrize("name,g", CORPUS)
def test_corners_alternate_bipartition_classes(name, g):
    m = build_medial_graph(g)
    b = g.side
    for f in g.faces:
        corners = [_corner(m, i) for i in range(len(m.dart)) if _face(m, i) == f.id]
        sides = [b[v] for v in corners]
        assert all(
            sides[i] != sides[(i + 1) % len(sides)] for i in range(len(sides))
        )


@pytest.mark.parametrize("name,g", CORPUS + random_split_graphs())
def test_tables_follow_the_darts(name, g):
    m = build_medial_graph(g)
    # corner, face and midpoint count are the plane graph's, through m.dart
    fields = [field.name for field in dataclasses.fields(m)]
    assert fields == ["graph", "dart", "ends", "selected", "sides"]
    assert m.dart == tuple(d for f in g.faces for d in f.darts)
    for i, d in enumerate(m.dart):
        assert m.ends[i] == (g.dart_edge[d], g.dart_edge[g.dart_next[d]])
    b = g.side
    for f in g.faces:
        selected = m.selected[f.id]
        assert [m.dart[i] for i in selected[0]] == list(f.darts[0::2])
        assert [m.dart[i] for i in selected[1]] == list(f.darts[1::2])
        sides = [{b[_corner(m, i)] for i in s} for s in selected]
        assert len(sides[0]) == len(sides[1]) == 1 and sides[0] != sides[1]
        for bit in (0, 1):  # the corners cut off by the unselected edges
            cut = sorted(_corner(m, i) for i in selected[1 - bit])
            assert sorted(m.sides[f.id][bit]) == cut
