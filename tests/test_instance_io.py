import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from corpus import (
    add_path,
    corpus_instances,
    face_darts,
    face_vertices,
    random_split_instance,
    random_subdivided_instance,
)
from halfmono import cli, instance_io
from halfmono.coloring import Coloring, coloring_from_regions
from halfmono.dividing import assemble_dividing_system, decompose_regions, extract_cycles
from halfmono.medial import build_medial_graph
from halfmono.errors import (
    BadParameter,
    DegenerateLayout,
    FaceStructureError,
    ParseError,
    SizeCapExceeded,
)
from halfmono.instance_io import (
    InstanceFile,
    build,
    cycle_instance,
    generate_instance,
    grid_instance,
    k2m_instance,
    parse_instance_text,
    prism_instance,
    render_svg,
    serialize_instance,
    subdivide_edge,
    tight_instance,
    tutte_embedding,
)
from halfmono.plane_graph import validate_even_polygonal

K4_TEXT = """\
name k4
vertices 4
rotation 0 1 2 3
rotation 1 2 0 3
rotation 2 3 0 1
rotation 3 1 0 2
"""


@pytest.mark.parametrize("inst", corpus_instances(), ids=lambda i: i.name)
def test_round_trip(inst):
    again = parse_instance_text(serialize_instance(inst))
    assert again == inst
    g1, g2 = build(inst), build(again)
    assert g1.face_start == g2.face_start
    assert g1.dart_tail == g2.dart_tail
    assert g1.edges == g2.edges


def test_build_keeps_parsed_rotations_and_coords():
    inst = parse_instance_text(serialize_instance(grid_instance(3, 4)))
    g = build(inst)
    for v in range(inst.n):
        assert g.rotations[v] is inst.rotations[v]
        assert g.coords[v] is inst.coords[v]


def test_parse_reports_every_defect():
    text = """\
name broken
vertices 3
rotation 0 1
rotation 1 0 2
rotation 2 x
coord 0 1.0
wobble 3
"""
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    messages = [msg for _, msg in err.value.defects]
    assert len(messages) >= 3  # bad rotation, bad coord, unknown directive
    lines = [line for line, _ in err.value.defects]
    assert 5 in lines and 6 in lines and 7 in lines
    assert any("missing rotation" in msg for msg in messages)


def test_parse_missing_rotation():
    with pytest.raises(ParseError) as err:
        parse_instance_text("vertices 2\nrotation 0 1\n")
    assert any("missing rotation" in msg for _, msg in err.value.defects)


def test_parse_huge_vertex_count_gives_short_message(tmp_path):
    text = "vertices 1000000000\n"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert len(str(err.value)) < 1024
    assert "missing rotation for 1000000000 of 1000000000" in str(err.value)
    path = tmp_path / "huge.hmg"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 1


@pytest.mark.parametrize(
    "present,message",
    [
        ((1, 4, 9, 19), "16 of 20 vertices: 0, 2-3, 5-8, 10-18"),
        (range(0, 20, 2), "10 of 20 vertices: 1, 3, 5, 7, 9, ..."),
    ],
)
def test_parse_missing_ids_as_ranges(present, message):
    text = "vertices 20\n" + "".join(f"rotation {v} 1\n" for v in present)
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.defects == [(0, f"missing rotation for {message}")]


@pytest.mark.parametrize(
    "text",
    [
        "vertices " + "9" * 5000 + "\n",
        "vertices \u00b2\n",
        "vertices 2\nrotation 0 --1\nrotation 1 0\n",
        "vertices 2\nrotation 0 1\nrotation 1 0\ncoord 0 1 1\ncoord --1 1 1\n",
    ],
    ids=["5000-digit-count", "superscript-digit", "double-minus-rotation", "double-minus-coord"],
)
def test_parse_rejects_malformed_integers(text):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert len(str(err.value)) < 1024


C4_WITH_COORD = """\
name c4
vertices 4
rotation 0 1 3
rotation 1 2 0
rotation 2 3 1
rotation 3 0 2
coord 0 1 0
coord 1 0 1
coord 2 {} 0
coord 3 0 -1
"""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_parse_rejects_non_finite_coords(value, tmp_path, capsys):
    text = C4_WITH_COORD.format(value)
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.defects == [(9, "coord values must be finite")]
    path = tmp_path / "c4.hmg"
    path.write_text(text)
    out = tmp_path / "c4.svg"
    assert cli.main(["render", str(path), "-o", str(out)]) == 1
    assert "line 9: coord values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_rejected_coord_line_is_not_also_missing():
    # only the line's own defect; the vertices without any coord line are
    # still reported missing
    text = C4_WITH_COORD.format("east").replace("coord 3 0 -1\n", "")
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.defects == [
        (0, "missing coord for 1 of 4 vertices: 3"),
        (9, "coord values must be numbers"),
    ]


C4_ROTATIONS = "rotation 0 1 3\nrotation 1 2 0\nrotation 2 3 1\nrotation 3 0 2\n"

# defect lists recorded from the parser that split every line at "#",
# converted ids one by one and scanned every id for its range
PARSE_DEFECT_GOLDEN = {
    "comments": (
        "# a 4-cycle with one broken line\n"
        "name c4  # the name\n"
        "vertices 4 # four\n"
        "rotation 0 1 3   # ok\n"
        "rotation 1 2 0\n"
        "rotation 2 3 x # bad id\n"
        "rotation 3 0 2\n"
        "#rotation 2 3 1\n"
        "   # indented comment\n",
        [(0, "missing rotation for 1 of 4 vertices: 2"),
         (6, "rotation requires integer ids")],
    ),
    "crlf": (
        "name c4\r\nvertices 4\r\n" + C4_ROTATIONS.replace("\n", "\r\n")
        + "coord 0 1\r\nwobble\r\n",
        [(7, "coord requires: vertex id, x, y"), (8, "unknown directive 'wobble'")],
    ),
    "tabs": (
        "vertices\t4\nrotation\t0\t1 3\n\trotation 1\t2 0\nrotation 2 3 1\t\n"
        "rotation\t3\t0\t2\ncoord\t0\t1\ncoord 1 0 0 0\n",
        [(6, "coord requires: vertex id, x, y"),
         (7, "coord requires: vertex id, x, y")],
    ),
    "bare-rotation": (
        "vertices 2\nrotation\nrotation 0 1\nrotation 1 0\nrotation   \n",
        [(2, "rotation requires integer ids"), (5, "rotation requires integer ids")],
    ),
    "19-digit-id": (
        "vertices 2\nrotation 1234567890123456789 0\nrotation 0 1\n"
        "rotation 1 9999999999999999999\ncoord 1234567890123456789 0 0\n",
        [(0, "missing rotation for 1 of 2 vertices: 1"),
         (2, "rotation requires integer ids"),
         (4, "rotation requires integer ids"),
         (5, "coord requires: vertex id, x, y")],
    ),
    "duplicate-rotation": (
        "vertices 4\n" + C4_ROTATIONS + "rotation 2 1 3\nrotation 0 3 1\n",
        [(6, "duplicate rotation for vertex 2"), (7, "duplicate rotation for vertex 0")],
    ),
    "out-of-range-rotation": (
        "vertices 4\n" + C4_ROTATIONS + "rotation 4 0\nrotation -1 0\nrotation 100 2\n",
        [(6, "rotation for out-of-range vertex 4"),
         (7, "rotation for out-of-range vertex -1"),
         (8, "rotation for out-of-range vertex 100")],
    ),
    "duplicate-coord": (
        "vertices 4\n" + C4_ROTATIONS
        + "coord 0 0 0\ncoord 1 1 0\ncoord 1 1 1\ncoord 0 2 2\n",
        [(0, "missing coord for 2 of 4 vertices: 2-3"),
         (8, "duplicate coord for vertex 1"),
         (9, "duplicate coord for vertex 0")],
    ),
    "out-of-range-coord": (
        "vertices 4\n" + C4_ROTATIONS + "coord 0 0 0\ncoord 1 1 0\ncoord 2 1 1\n"
        "coord 3 0 1\ncoord 4 5 5\ncoord -2 5 5\n",
        [(10, "coord for out-of-range vertex 4"),
         (11, "coord for out-of-range vertex -2")],
    ),
    "out-of-range-before-vertices": (
        "rotation 4 0\ncoord -1 0 0\nvertices two\nrotation 0 1 3\nvertices 4\n"
        "rotation 1 2 0\nrotation 2 3 1\nrotation 3 0 2\nrotation 7 1\n",
        [(0, "missing coord for 4 of 4 vertices: 0-3"),
         (1, "rotation for out-of-range vertex 4"),
         (2, "coord for out-of-range vertex -1"),
         (3, "vertices requires one integer"),
         (9, "rotation for out-of-range vertex 7")],
    ),
    "unknown-directive": (
        "vertices 4\n" + C4_ROTATIONS + "edge 0 1\nRotation 0 1 3\nverts 4\n",
        [(6, "unknown directive 'edge'"), (7, "unknown directive 'Rotation'"),
         (8, "unknown directive 'verts'")],
    ),
    "missing-vertices": (
        "name c4\n" + C4_ROTATIONS + "coord 0 0 0\n",
        [(0, "missing 'vertices' line")],
    ),
    "header-defects": (
        "name\nvertices 0\nvertices two\nvertices 4\nvertices 4\nname a\nname b\n"
        "rotation 0 1 3\n",
        [(0, "missing rotation for 3 of 4 vertices: 1-3"),
         (1, "name requires a value"), (2, "vertex count must be positive"),
         (3, "vertices requires one integer"), (5, "duplicate vertices"),
         (7, "duplicate name")],
    ),
    "missing-ranges": (
        "vertices 40\n"
        + "".join(f"rotation {v} 1\n" for v in (0, 3, 4, 9, 20, 39))
        + "coord 3 0 0\ncoord 9 0 0\n",
        [(0, "missing coord for 38 of 40 vertices: 0-2, 4-8, 10-39"),
         (0, "missing rotation for 34 of 40 vertices: 1-2, 5-8, 10-19, 21-38")],
    ),
}


@pytest.mark.parametrize("case", PARSE_DEFECT_GOLDEN)
def test_parse_defects_golden(case):
    text, expected = PARSE_DEFECT_GOLDEN[case]
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.defects == expected


# str.splitlines breaks at these too, but a line ends only at \n, \r\n or \r
NON_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NON_LINE_BREAKS, ids=ascii)
def test_comment_keeps_characters_that_are_not_line_breaks(ch):
    def c4(comment):
        return f"name c4  # {comment}\nvertices 4 # four\n" + C4_ROTATIONS

    assert parse_instance_text(c4(f"a{ch}b cycle")) == parse_instance_text(c4("ab cycle"))
    with pytest.raises(ParseError) as err:
        parse_instance_text(c4(f"a{ch}b cycle") + "wobble\n")
    assert err.value.defects == [(7, "unknown directive 'wobble'")]


def test_render_rejects_overflowing_span(tmp_path, capsys):
    # every coordinate is finite, but the drawing width is not
    text = C4_WITH_COORD.format("-1e308").replace("coord 0 1 0", "coord 0 1e308 0")
    path = tmp_path / "wide.hmg"
    path.write_text(text)
    out = tmp_path / "wide.svg"
    assert cli.main(["render", str(path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coordinates span too far to draw: an SVG number overflows\n"
    )
    assert not out.exists()


def test_parse_instance_surfaces_face_defects():
    with pytest.raises(FaceStructureError) as err:
        build(parse_instance_text(K4_TEXT))
    assert {d.face for d in err.value.report.defects} == {0, 1, 2, 3}


def test_generate_families():
    assert build(generate_instance("cycle", [4])).num_faces == 2
    g23 = build(generate_instance("grid", [2, 3]))
    assert (g23.n, g23.num_faces) == (6, 3)
    cube = build(generate_instance("prism", [4]))
    assert (cube.n, cube.num_faces) == (8, 6)
    assert set(map(len, face_darts(cube))) == {4}
    t3 = build(generate_instance("tight", [3]))
    assert (t3.n, t3.num_faces) == (12, 10)
    assert set(map(len, face_darts(t3))) == {4}


def _tight_by_paths(k: int) -> InstanceFile:
    """T_k as its definition builds it: K_{2,2k}, then for each pair of
    spokes s = 2 + 2j, t = 3 + 2j, j < k - 1, two paths s-x-t, each put by
    add_path into the first face, in face order, whose walk has s and t at
    distance 2."""
    inst = k2m_instance(2 * k)
    for j in range(k - 1):
        s, t = 2 + 2 * j, 3 + 2 * j
        for _ in range(2):
            walk = next(
                w for w in face_vertices(build(inst))
                if s in w and t in w
                and (w.index(t) - w.index(s)) % len(w) in (2, len(w) - 2)
            )
            inst = add_path(inst, walk, *sorted((walk.index(s), walk.index(t))), 2)
    return inst._replace(name=f"tight{k}")


@pytest.mark.parametrize("k", range(1, 9))
def test_tight_instance_is_its_path_construction(k):
    inst = tight_instance(k)
    assert inst == _tight_by_paths(k)
    g = build(inst)
    assert validate_even_polygonal(g).ok
    assert (g.n, g.num_faces) == (4 * k, 4 * k - 2)


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [5]),
        ("cycle", [2]),
        ("grid", [1, 3]),
        ("prism", [3]),
        ("prism", [2]),
        ("grid", [3]),
        ("triangle", [3]),
        ("tight", [0]),
        ("tight", [1, 2]),
    ],
)
def test_generator_bad_parameters(family, params):
    with pytest.raises(BadParameter):
        generate_instance(family, params)


def test_generator_size_cap_boundary(monkeypatch):
    monkeypatch.setattr(instance_io, "GEN_VERTEX_CAP", 12)
    assert cycle_instance(12).n == grid_instance(3, 4).n == prism_instance(6).n == 12
    assert tight_instance(3).n == 12
    for family, params in (("cycle", [14]), ("grid", [3, 5]), ("prism", [8]), ("tight", [4])):
        with pytest.raises(SizeCapExceeded):
            generate_instance(family, params)


@pytest.mark.parametrize("inst", corpus_instances(), ids=lambda i: i.name)
def test_generated_instances_validate(inst):
    assert validate_even_polygonal(build(inst)).ok


def test_subdivide_keeps_faces_even():
    inst = grid_instance(2, 2)
    sub = subdivide_edge(inst, 0, 1, times=2)
    assert sub.n == 6
    g = build(sub)
    assert validate_even_polygonal(g).ok
    assert sorted(map(len, face_darts(g))) == [6, 6]
    assert sub.coords is not None and len(sub.coords) == 6


def test_subdivide_rejects_bad_parameters():
    inst = grid_instance(2, 2)
    with pytest.raises(BadParameter, match="^times must be >= 1$"):
        subdivide_edge(inst, 0, 1, times=0)
    with pytest.raises(BadParameter, match="^no edge 0-3 to subdivide$"):
        subdivide_edge(inst, 0, 3)


def test_random_subdivided_corpus_is_valid():
    for seed in range(25):
        inst = random_subdivided_instance(seed)
        assert inst.n <= 10
        assert validate_even_polygonal(build(inst)).ok


def _proper_crossing(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _count_crossings(g, coords):
    count = 0
    for i, (u1, v1) in enumerate(g.edges):
        for u2, v2 in g.edges[i + 1 :]:
            if {u1, v1} & {u2, v2}:
                continue
            if _proper_crossing(coords[u1], coords[v1], coords[u2], coords[v2]):
                count += 1
    return count


def test_tutte_cube_layout():
    g = build(prism_instance(4))
    coords = tutte_embedding(g)
    assert _count_crossings(g, coords) == 0
    for v in range(g.n):
        for w in range(v + 1, g.n):
            assert math.dist(coords[v], coords[w]) > 1e-6


def test_tutte_c4_pins_everything():
    g = build(cycle_instance(4))
    coords = tutte_embedding(g)
    assert all(abs(math.hypot(x, y) - 1.0) < 1e-12 for x, y in coords)


def test_tutte_grid_layout():
    g = build(grid_instance(2, 3))
    coords = tutte_embedding(g)
    assert _count_crossings(g, coords) == 0


def _cycles(g, bits):
    m = build_medial_graph(g)
    return extract_cycles(m, assemble_dividing_system(m, bits))


def test_render_is_deterministic():
    g = build(cycle_instance(4))
    coloring = Coloring((0, 1, 0, 2), 3)
    first = render_svg(g, _cycles(g, (0, 0)), coloring)
    assert render_svg(g, _cycles(g, (0, 0)), coloring) == first
    rebuilt = build(parse_instance_text(serialize_instance(cycle_instance(4))))
    assert render_svg(rebuilt, _cycles(rebuilt, (0, 0)), coloring) == first


def test_render_structure():
    g = build(cycle_instance(4))
    svg = render_svg(g, _cycles(g, (0, 0)))
    assert svg.count("<path ") == 2  # one closed curve per digon
    assert svg.count("<circle ") == 4
    plain = render_svg(g)
    assert "<path " not in plain


def test_render_rejects_wrong_parity_length(tmp_path, capsys):
    path, out = tmp_path / "c4.hmg", tmp_path / "c4.svg"
    path.write_text(serialize_instance(cycle_instance(4)), encoding="utf-8")
    assert cli.main(["render", str(path), "-o", str(out), "--parities", "0"]) == 1
    assert capsys.readouterr().err == "error: expected 2 parity bits, got 1\n"
    assert not out.exists()
    g = build(cycle_instance(4))
    with pytest.raises(BadParameter):
        render_svg(g, coloring=Coloring((0, 1, 0), 2))


def test_render_uses_tutte_when_no_coords():
    inst = prism_instance(4)
    bare = InstanceFile(inst.name, inst.n, inst.rotations, None)
    svg = render_svg(build(bare))
    assert svg.count("<circle ") == 8


def _bare(inst: InstanceFile) -> InstanceFile:
    return InstanceFile(inst.name, inst.n, inst.rotations, None)


# sha256 of the coordinate-less render: the first three recorded before the
# layout cap existed, grid20x20 and prism1000 while the layout was still a
# dense direct solve
BARE_RENDER_SHA256 = {
    "prism4": "484461dab936230593fedb840002e3760ffbfe2089e9f6e2d4593b3e27ae439c",
    "grid3x4": "6706e8fc06bd4bf92dacd656057d116581e5341772b7d38cfc68b17f283cb332",
    "grid6x6": "dd6f3138b687749745730b9e60c80289a69ded95089c4deefd24ef7a8acdc012",
    "grid20x20": "47381d81f6a1d5b3d613566d81b4eba222a3890e5c532fde99da1aef44b6a25c",
    "prism1000": "43b6b986bc92542d3f3281dbb16fb360945a9e398ac08f7229aaf8fe77fdba72",
}


@pytest.mark.parametrize(
    "inst",
    [
        prism_instance(4),
        grid_instance(3, 4),
        grid_instance(6, 6),
        grid_instance(20, 20),
        prism_instance(1000),
    ],
    ids=lambda i: i.name,
)
def test_bare_render_golden_digest(inst):
    svg = render_svg(build(_bare(inst)))
    assert hashlib.sha256(svg.encode()).hexdigest() == BARE_RENDER_SHA256[inst.name]


def test_layout_cap_spares_instances_with_coords(monkeypatch):
    inst = grid_instance(3, 4)
    expected = render_svg(build(inst))
    monkeypatch.setattr(instance_io, "LAYOUT_VERTEX_CAP", inst.n - 1)
    assert render_svg(build(inst)) == expected
    with pytest.raises(SizeCapExceeded, match="coord"):
        render_svg(build(_bare(inst)))


def test_bare_render_runs_without_numpy(tmp_path):
    # a None entry in sys.modules makes `import numpy` raise ImportError
    path, out = tmp_path / "grid6x6.hmg", tmp_path / "grid6x6.svg"
    path.write_text(serialize_instance(_bare(grid_instance(6, 6))), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; sys.modules['numpy'] = None; from halfmono import cli; "
        f"sys.exit(cli.main(['render', {str(path)!r}, '-o', {str(out)!r}]))"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BARE_RENDER_SHA256["grid6x6"]


def test_tutte_layout_memory_is_linear():
    # 784 interior vertices: a dense 784 x 784 system alone takes 4.9 MB
    g = build(_bare(grid_instance(30, 30)))
    tutte_embedding(g)  # leaves no import or cache to the measured call
    tracemalloc.start()
    try:
        tutte_embedding(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _dense_barycentric(g):
    """The layout by numpy.linalg.solve of the dense barycentric system,
    with the same pinned face as tutte_embedding."""
    import numpy as np

    boundary = max(face_vertices(g), key=len)  # the first on ties
    pos = np.zeros((g.n, 2))
    for k, v in enumerate(boundary):
        ang = math.pi / 2 - 2 * math.pi * k / len(boundary)
        pos[v] = (math.cos(ang), math.sin(ang))
    interior = [v for v in range(g.n) if v not in boundary]
    idx = {v: i for i, v in enumerate(interior)}
    a = np.zeros((len(interior), len(interior)))
    rhs = np.zeros((len(interior), 2))
    for v, i in idx.items():
        a[i, i] = g.degree(v)
        for u in g.rotations[v]:
            if u in idx:
                a[i, idx[u]] -= 1.0
            else:
                rhs[i] += pos[u]
    if interior:
        pos[interior] = np.linalg.solve(a, rhs)
    return pos


LAYOUT_REFERENCE_INSTANCES = [
    *corpus_instances(),
    grid_instance(20, 20),
    grid_instance(12, 31),
    prism_instance(100),
    *(random_subdivided_instance(seed, max_vertices=16) for seed in range(20)),
    *(random_split_instance(seed) for seed in range(60)),
]


@pytest.mark.parametrize("inst", LAYOUT_REFERENCE_INSTANCES, ids=lambda i: i.name)
def test_tutte_matches_dense_solve(inst):
    g = build(_bare(inst))
    expected = _dense_barycentric(g)
    try:
        coords = tutte_embedding(g)
    except DegenerateLayout as exc:
        # the dense layout must put the reported pair together as well
        pair = re.fullmatch(r"vertices (\d+) and (\d+) coincide", str(exc))
        v, w = map(int, pair.groups())
        assert math.dist(expected[v], expected[w]) < instance_io.COINCIDE
        return
    gap = max(abs(c - e) for p, q in zip(coords, expected) for c, e in zip(p, q))
    assert gap <= 1e-12


def test_render_extremes_are_computed_once(monkeypatch):
    # counting wrappers shadow the builtins inside instance_io only
    calls = []

    def counting(builtin):
        def wrapper(*args, **kwargs):
            calls.append(builtin.__name__)
            return builtin(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(instance_io, "min", counting(min), raising=False)
    monkeypatch.setattr(instance_io, "max", counting(max), raising=False)
    counts = []
    for length in (100, 200):
        calls.clear()
        render_svg(build(cycle_instance(length)))
        counts.append(len(calls))
    assert counts[0] == counts[1]


# sha256 of a render with coordinates, curves and region colors
# (`render --parities 0110010 --color`), recorded before the extremes of
# the coordinates were hoisted out of the point transform
COLORED_RENDER_SHA256 = "5ce0812db01d25564cb76a9e5c5c315be07478a1cf9fd3d81891039b673bfed3"


def test_colored_render_with_coords_golden_digest():
    g = build(grid_instance(3, 4))
    assert g.coords is not None
    bits = (0, 1, 1, 0, 0, 1, 0)
    m = build_medial_graph(g)
    r = decompose_regions(m, assemble_dividing_system(m, bits))
    svg = render_svg(g, r.cycles, coloring_from_regions(r))
    assert hashlib.sha256(svg.encode()).hexdigest() == COLORED_RENDER_SHA256


def test_tutte_reports_first_coincident_pair():
    # K_{2,4}: the pinned face is 0-2-1-5, and the two spokes left inside
    # both sit at the mean of the hubs 0 and 1
    rotations = ((2, 3, 4, 5), (5, 4, 3, 2), (0, 1), (0, 1), (0, 1), (0, 1))
    g = build(InstanceFile("k24", 6, rotations, None))
    assert validate_even_polygonal(g).ok
    with pytest.raises(DegenerateLayout, match=r"^vertices 3 and 4 coincide$"):
        tutte_embedding(g)
