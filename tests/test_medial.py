import pytest

from corpus import corpus_graphs, cycle_graph, grid_graph, prism_graph
from halfmono.medial import MedialEdge, build_medial_graph
from halfmono.plane_graph import compute_bipartition

CORPUS = corpus_graphs()


def _midpoint_walk(g, f):
    """The midpoints (= base edge ids) around face f, in walk order."""
    return [g.dart_edge[d] for d in f.darts]


def _matchings(m, face_id):
    """The edges at even and at odd positions of a face's medial cycle."""
    return m.face_edges[face_id][0::2], m.face_edges[face_id][1::2]


def test_c4_counts_and_tags():
    m = build_medial_graph(cycle_graph(4))
    assert m.num_vertices == 4
    assert len(m.edges) == 8
    # base edge ids: 0={0,1}, 1={0,3}, 2={1,2}, 3={2,3}
    assert m.face_edges[0] == (
        MedialEdge(0, 0, 0, 2, 1),
        MedialEdge(0, 1, 2, 3, 2),
        MedialEdge(0, 2, 3, 1, 3),
        MedialEdge(0, 3, 1, 0, 0),
    )
    assert m.face_edges[1] == (
        MedialEdge(1, 0, 1, 3, 3),
        MedialEdge(1, 1, 3, 2, 2),
        MedialEdge(1, 2, 2, 0, 1),
        MedialEdge(1, 3, 0, 1, 0),
    )


def test_grid_and_prism_counts():
    m = build_medial_graph(grid_graph(2, 3))
    assert (m.num_vertices, len(m.edges)) == (7, 14)
    cube = build_medial_graph(prism_graph(4))
    assert (cube.num_vertices, len(cube.edges)) == (12, 24)
    assert all(len(_midpoint_walk(cube.graph, f)) == 4 for f in cube.graph.faces)
    assert all(len(edges) == 4 for edges in cube.face_edges)


def test_c4_matchings():
    m = build_medial_graph(cycle_graph(4))
    m0, m1 = _matchings(m, 0)
    assert [e.position for e in m0] == [0, 2]
    assert {e.corner for e in m0} == {1, 3}
    assert [e.position for e in m1] == [1, 3]
    assert {e.corner for e in m1} == {0, 2}


def test_hexagon_matchings_cut_one_side():
    g = grid_graph(2, 3)
    m = build_medial_graph(g)
    b = compute_bipartition(g)
    hexagon = next(f.id for f in g.faces if f.degree == 6)
    m0, m1 = _matchings(m, hexagon)
    assert len(m0) == len(m1) == 3
    assert len({b.side[e.corner] for e in m0}) == 1
    assert len({b.side[e.corner] for e in m1}) == 1
    assert {b.side[e.corner] for e in m0} != {b.side[e.corner] for e in m1}


@pytest.mark.parametrize("name,g", CORPUS)
def test_edge_count_law(name, g):
    m = build_medial_graph(g)
    assert len(m.edges) == sum(f.degree for f in g.faces) == 2 * g.num_edges


@pytest.mark.parametrize("name,g", CORPUS)
def test_matchings_are_perfect_and_exhaustive(name, g):
    m = build_medial_graph(g)
    for f in g.faces:
        walk = _midpoint_walk(g, f)
        # the medial cycle runs along the walk: edge i joins walk[i], walk[i + 1]
        assert [(e.a, e.b) for e in m.face_edges[f.id]] == list(
            zip(walk, walk[1:] + walk[:1])
        )
        m0, m1 = _matchings(m, f.id)
        cycle_vertices = set(walk)
        for matching in (m0, m1):
            touched = [x for e in matching for x in (e.a, e.b)]
            assert sorted(touched) == sorted(cycle_vertices)
        assert {e.position for e in m0} | {e.position for e in m1} == set(
            range(f.degree)
        )


@pytest.mark.parametrize("name,g", CORPUS)
def test_every_midpoint_on_two_faces_with_degree_four(name, g):
    m = build_medial_graph(g)
    appearances = [0] * m.num_vertices
    for f in g.faces:
        for x in set(_midpoint_walk(g, f)):
            appearances[x] += 1
    assert appearances == [2] * m.num_vertices
    degree = [0] * m.num_vertices
    for e in m.edges:
        degree[e.a] += 1
        degree[e.b] += 1
    assert degree == [4] * m.num_vertices


@pytest.mark.parametrize("name,g", CORPUS)
def test_corners_alternate_bipartition_classes(name, g):
    m = build_medial_graph(g)
    b = compute_bipartition(g)
    for f in g.faces:
        corners = [e.corner for e in m.face_edges[f.id]]
        sides = [b.side[v] for v in corners]
        assert all(
            sides[i] != sides[(i + 1) % len(sides)] for i in range(len(sides))
        )
