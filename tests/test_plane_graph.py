import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import (
    corpus_graphs,
    cycle_graph,
    face_darts,
    face_vertices,
    grid_graph,
    oracle_corpus_graphs,
    prism_graph,
    random_subdivided_instance,
)
from halfmono.errors import (
    EulerViolation,
    FaceStructureError,
    InconsistentRotation,
    NotConnected,
    OddCycleFound,
)
from halfmono import cli, plane_graph
from halfmono.instance_io import InstanceFile, build, serialize_instance
from halfmono.plane_graph import (
    BLACK,
    FACE_NOT_CYCLE,
    ODD_FACE,
    WHITE,
    PlaneGraph,
    build_plane_graph,
    compute_bipartition,
    validate_even_polygonal,
)

C4_ROTATIONS = [[1, 3], [2, 0], [3, 1], [0, 2]]
# K4 drawn with vertex 0 in the middle of triangle 1-2-3
K4_ROTATIONS = [[1, 2, 3], [2, 0, 3], [3, 0, 1], [1, 0, 2]]
P3_ROTATIONS = [[1], [0, 2], [1]]

CORPUS = corpus_graphs()


def test_build_c4():
    g = build_plane_graph(4, C4_ROTATIONS)
    assert (g.n, g.num_edges, g.num_faces) == (4, 4, 2)
    assert g.face_start == (0, 4, 8)


def test_build_grid_2x3():
    g = grid_graph(2, 3)
    assert (g.n, g.num_edges, g.num_faces) == (6, 7, 3)
    assert sorted(map(len, face_darts(g))) == [4, 4, 6]
    assert g.n - g.num_edges + g.num_faces == 2


@pytest.mark.parametrize(
    "n,rotations",
    [
        (2, [[1], []]),  # 0 lists 1 but not vice versa
        (2, [[1, 1], [0]]),  # repeated neighbour
        (2, [[0], [0]]),  # self loop
        (2, [[2], [0]]),  # out of range
        (3, [[1], [0]]),  # wrong number of rotation lists
        (0, []),  # empty graph
    ],
)
def test_inconsistent_rotations_rejected(n, rotations):
    with pytest.raises(InconsistentRotation):
        build_plane_graph(n, rotations)


def test_disconnected_rejected():
    two_squares = [[1, 3], [2, 0], [3, 1], [0, 2], [5, 7], [6, 4], [7, 5], [4, 6]]
    with pytest.raises(NotConnected):
        build_plane_graph(8, two_squares)


def test_nonplanar_rotation_violates_euler():
    k5 = [[v for v in range(5) if v != u] for u in range(5)]
    with pytest.raises(EulerViolation):
        build_plane_graph(5, k5)


def test_validate_c4_ok():
    assert validate_even_polygonal(build_plane_graph(4, C4_ROTATIONS)).ok


def _face_defects(n, rotations):
    """The defects of the report that build_plane_graph raises."""
    with pytest.raises(FaceStructureError) as info:
        build_plane_graph(n, rotations)
    report = info.value.report
    assert not report.ok
    assert str(info.value) == str(report)
    return report.defects


def test_validate_k4_odd_faces():
    defects = _face_defects(4, K4_ROTATIONS)
    assert {d.face for d in defects} == {0, 1, 2, 3}
    assert all(d.kind == ODD_FACE for d in defects)
    assert {d.detail for d in defects} == {"degree 3 is odd"}


def test_path_builds_with_one_degenerate_face():
    # the path passes the rotation, connectivity and Euler checks
    # (3 - 2 + 1 == 2): the tracer builds its one face, and only the face
    # validation at the end of build_plane_graph refuses it
    defects = _face_defects(3, P3_ROTATIONS)
    assert [d.face for d in defects] == [0]
    assert defects[0].kind == FACE_NOT_CYCLE


def test_validate_p3_face_not_cycle():
    # the path's one face walks 0 1 2 1: four darts, vertex 1 twice
    assert [(d.face, d.kind, d.detail) for d in _face_defects(3, P3_ROTATIONS)] == [
        (0, FACE_NOT_CYCLE, "vertex 1 appears more than once")
    ]


def test_bipartition_c4():
    assert compute_bipartition(4, C4_ROTATIONS) == (BLACK, WHITE, BLACK, WHITE)
    assert build_plane_graph(4, C4_ROTATIONS).side == (BLACK, WHITE, BLACK, WHITE)


def test_bipartition_sizes():
    assert grid_graph(2, 3).side.count(BLACK) == 3
    side = prism_graph(4).side
    assert side.count(BLACK) == side.count(WHITE) == 4


def test_bipartition_on_odd_faces_raises(tmp_path, monkeypatch, capsys):
    # No valid input has a same-side edge, so the 2-colouring is made to put
    # every vertex on BLACK.  On the mirrored 4-cycle, vertex 0 lists 3
    # before 1, and the report names the first clash in edge order, 0-1.
    monkeypatch.setattr(
        plane_graph, "compute_bipartition", lambda n, rotations: (BLACK,) * n
    )
    mirrored = [r[::-1] for r in C4_ROTATIONS]
    with pytest.raises(OddCycleFound, match="^edge 0-1 joins two same-side vertices$"):
        build_plane_graph(4, mirrored)
    path = tmp_path / "c4.hmg"
    path.write_text(serialize_instance(InstanceFile("c4", 4, mirrored)))
    assert cli.main(["chif", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: edge 0-1 joins two same-side vertices\n")
    # the faces are validated first: K4's odd faces still exit 1
    path = tmp_path / "k4.hmg"
    path.write_text(serialize_instance(InstanceFile("k4", 4, K4_ROTATIONS)))
    assert cli.main(["chif", str(path)]) == 1
    assert "odd_face" in capsys.readouterr().err


@pytest.mark.parametrize("name,g", CORPUS)
def test_corpus_valid_and_euler(name, g):
    assert validate_even_polygonal(g).ok
    assert g.n - g.num_edges + g.num_faces == 2
    assert all(len(f) % 2 == 0 and len(f) >= 4 for f in face_darts(g))


@pytest.mark.parametrize("name,g", CORPUS)
def test_every_dart_in_exactly_one_face(name, g):
    seen = [0] * len(g.dart_tail)
    for f, darts in enumerate(face_darts(g)):
        for d in darts:
            seen[d] += 1
            assert g.dart_face[d] == f
    assert seen == [1] * len(g.dart_tail)
    assert g.face_start[0] == 0 and g.face_start[-1] == len(g.dart_tail)


@pytest.mark.parametrize("name,g", CORPUS)
def test_face_walks_closed_and_canonical(name, g):
    for darts in face_darts(g):
        for i, d in enumerate(darts):
            nxt = darts[(i + 1) % len(darts)]
            assert g.dart_next[d] == nxt
            assert g.dart_head[d] == g.dart_tail[nxt]
        start = min(darts, key=lambda d: (g.dart_tail[d], g.dart_head[d]))
        assert darts[0] == start
    # faces are numbered by their smallest darts, in (tail, head) order
    firsts = [(g.dart_tail[s], g.dart_head[s]) for s in g.face_start[:-1]]
    assert firsts == sorted(firsts)


@given(g=st.sampled_from([g for _, g in CORPUS]))
def test_rebuild_is_deterministic(g):
    again = build_plane_graph(g.n, g.rotations, g.coords)
    assert again.face_start == g.face_start
    assert again.edges == g.edges
    assert again.dart_next == g.dart_next


@given(g=st.sampled_from([g for _, g in CORPUS]))
def test_bipartition_alternates_around_faces(g):
    side = g.side
    for walk in face_vertices(g):
        sides = [side[v] for v in walk]
        assert all(sides[i] != sides[(i + 1) % len(sides)] for i in range(len(sides)))


# the tracer's golden inputs: both corpora and 60 random subdivided grids
GOLDEN_GRAPHS = (
    [g for _, g in CORPUS]
    + [g for _, g in oracle_corpus_graphs()]
    + [build(random_subdivided_instance(seed, 16)) for seed in range(60)]
)


# sha256 over repr(field) of every golden graph, one line each.  n,
# rotations, edges, side and coords were recorded from an earlier tracer
# that numbered darts in rotation order and kept each face as a tuple of
# darts; face_start and the dart tables were read from that tracer's
# output in face-walk order (dart i the i-th dart of the concatenated
# walks, dart_next mapped through the same renumbering, face_start the
# cumulative face degrees).
PLANE_GRAPH_DIGESTS = {
    "n": "a0522fb9eeafb4b423a81bd9d7dcfdc6b773123fb16bab2dcfbc4cb8e203c524",
    "rotations": "59cfaaeb0fccc19b332e1c59173659961889568346f00e944a7e5d85d97e8bb6",
    "edges": "deb2353848480fe44372bfa1a9a9790d700142eb721f47980855c86ae9ada682",
    "face_start": "1eba204a24509c97902afeb8253ff0a3fa060e19927e0041d094978f261786ff",
    "dart_tail": "0c9fbca2d11e108b6e681da4be3ea50ac52af7bca71f780d5586afdd951deee5",
    "dart_head": "2ddbc036b76fcfac8d2501278b20fbc16db361afac2eff34db4fab1d5349808d",
    "dart_next": "f1760eac4d7d7e8fac5fd086031eba7526fa6749e3b066a53172fb9d16873096",
    "dart_face": "ab99d261f7fc73c20fd24ac0b8a8159e41360477ed7c2a934518734a6af88a93",
    "dart_edge": "3d14f1cbd5366ccc5db053f6bc7bfcc2d359c8633dc9e8549bead9046ca8ebad",
    "side": "05e04c0ad8a84a6355dceda3e85f8e9ed62c8ee8b1a5f45c1a1a730828e32ef0",
    "coords": "f127823699e650eab8354e9d9d46515135776bb43f75f426dcb50bcaad3713b2",
}


@pytest.mark.parametrize("field", PlaneGraph._fields)
def test_plane_graph_golden_digest(field):
    digest = hashlib.sha256()
    for g in GOLDEN_GRAPHS:
        digest.update(repr(getattr(g, field)).encode() + b"\n")
    assert digest.hexdigest() == PLANE_GRAPH_DIGESTS[field]


@pytest.mark.parametrize(
    "n,rotations,error,message",
    [
        (5, [[v for v in range(5) if v != u] for u in range(5)], EulerViolation,
         "V - E + F = 5 - 10 + 3 != 2"),
        (8, [[1, 3], [2, 0], [3, 1], [0, 2], [5, 7], [6, 4], [7, 5], [4, 6]],
         NotConnected, "only 4 of 8 vertices reachable from 0"),
        (2, [[1], []], InconsistentRotation, "vertex 0 lists 1 but 1 does not list 0"),
    ],
    ids=["euler", "connected", "rotation"],
)
def test_build_errors_keep_their_messages(n, rotations, error, message):
    with pytest.raises(error) as info:
        build_plane_graph(n, rotations)
    assert str(info.value) == message


def _break_rotation(g, kind, rng):
    """One defect planted in g's rotations, and the message it must raise."""
    rot = [list(r) for r in g.rotations]
    u = rng.randrange(g.n)
    i = rng.randrange(len(rot[u]))
    v = rot[u][i]
    if kind == "out-of-range":
        bad = rng.choice([g.n, g.n + rng.randrange(100), -1 - rng.randrange(100)])
        rot[u][i] = bad
        return rot, f"vertex {u} lists out-of-range neighbour {bad}"
    if kind == "loop":
        rot[u][i] = u
        return rot, f"vertex {u} lists itself (loop)"
    if kind == "repeat":
        j = rng.choice([j for j in range(len(rot[u])) if j != i])
        rot[u][i] = rot[u][j]
        return rot, f"vertex {u} lists neighbour {rot[u][j]} twice"
    rot[v].remove(u)  # the back-reference of u -> v
    return rot, f"vertex {u} lists {v} but {v} does not list {u}"


@pytest.mark.parametrize("kind", ["out-of-range", "loop", "repeat", "asymmetry"])
def test_broken_corpus_rotations_keep_their_messages(kind):
    # each valid system broken once: the first defect in vertex order is the
    # planted one, so the message is known without the per-vertex scan
    rng = random.Random(f"break:{kind}")
    for _ in range(60):
        _, g = rng.choice(CORPUS)
        rotations, message = _break_rotation(g, kind, rng)
        with pytest.raises(InconsistentRotation) as info:
            build_plane_graph(g.n, rotations)
        assert str(info.value) == message


def test_two_hubs_of_degree_20000_build():
    # K_{2,k}: hubs 0 and 1 list the leaves 2..k+1 in opposite orders, so
    # consecutive leaves a, b close the 4-face 0 a 1 b; a slot lookup that
    # scans a hub's rotation would cost k^2 steps here
    k = 20000
    leaves = range(2, k + 2)
    rotations = [tuple(leaves), tuple(reversed(leaves))] + [(0, 1)] * k
    g = build_plane_graph(k + 2, rotations)
    assert (g.num_edges, g.num_faces) == (2 * k, k)
    assert set(map(len, face_darts(g))) == {4}
    assert validate_even_polygonal(g).ok
