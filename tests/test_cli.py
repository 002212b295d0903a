import argparse
import gc
import io
import json
import json.encoder
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import (
    corpus_graphs,
    k2m_instance,
    oracle_corpus_graphs,
    random_rich_graphs,
    random_split_graphs,
    random_subdivided_graphs,
    random_subdivided_instance,
)
from halfmono import cli
from halfmono.instance_io import (
    _FAMILIES,
    LAYOUT_VERTEX_CAP,
    InstanceFile,
    build,
    cycle_instance,
    generate_instance,
    grid_instance,
    serialize_instance,
)
from halfmono.independence import maximum_matching
from halfmono.search import _check_region_coloring, exact_chi_f
from halfmono.errors import (
    BoundViolated,
    ClaimViolated,
    FaceCapExceeded,
    NotATree,
    ParseError,
    SizeCapExceeded,
)

K4_TEXT = """\
name k4
vertices 4
rotation 0 1 2 3
rotation 1 2 0 3
rotation 2 3 0 1
rotation 3 1 0 2
"""

P3_TEXT = """\
name p3
vertices 3
rotation 0 1
rotation 1 0 2
rotation 2 1
"""


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.hmg"
    assert cli.main(["gen", "cycle", "4", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.hmg"
    path.write_text(K4_TEXT)
    return path


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.hmg"
    path.write_text(P3_TEXT)
    return path


def test_exit_code_mapping():
    assert cli.exit_code_for_exception(ParseError([(1, "x")])) == 1
    assert cli.exit_code_for_exception(ClaimViolated("claim2")) == 2
    assert cli.exit_code_for_exception(BoundViolated("2*4 > 3*2")) == 2
    assert cli.exit_code_for_exception(NotATree("x")) == 2
    assert cli.exit_code_for_exception(FaceCapExceeded("x")) == 3
    assert cli.exit_code_for_exception(SizeCapExceeded("x")) == 3


def test_validate(c4_file, k4_file, monkeypatch, capsys):
    # build_plane_graph validates, and the command does not again
    validate = _count_calls(monkeypatch, "halfmono.plane_graph", "validate_even_polygonal")
    assert cli.main(["validate", str(c4_file)]) == 0
    assert "valid" in capsys.readouterr().out
    assert len(validate) == 1
    assert cli.main(["validate", str(k4_file)]) == 1
    assert "odd_face" in capsys.readouterr().out
    assert len(validate) == 2


def test_validate_single_edge(tmp_path, capsys):
    # 2 - 1 + 1 == 2, so only the face validation refuses the edge
    path = tmp_path / "edge.hmg"
    path.write_text("name edge\nvertices 2\nrotation 0 1\nrotation 1 0\n")
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "edge: face 0: face_not_cycle (walk of length 2 is not a cycle)\n"
    assert captured.err == ""


@pytest.mark.parametrize("name,code", [("c4", 0), ("k4", 1), ("p3", 1)])
def test_validate_golden_stdout(name, code, request, capsys):
    path = request.getfixturevalue(f"{name}_file")
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"validate-{name}.txt").read_text()


@pytest.mark.parametrize("name", ["k4", "p3"])
@pytest.mark.parametrize("command", ["chif", "check"])
def test_invalid_instance_golden_stderr(command, name, request, capsys):
    path = request.getfixturevalue(f"{name}_file")
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (GOLDEN / f"{command}-stderr-{name}.txt").read_text()


def test_chif_human(c4_file, capsys):
    assert cli.main(["chif", str(c4_file), "--witness"]) == 0
    out = capsys.readouterr().out
    assert "chiF = 3" in out
    assert "alpha = 2" in out
    assert "tight" in out
    assert "witness parities: 00" in out


def test_chif_json(c4_file, capsys):
    assert cli.main(["chif", str(c4_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chiF"] == 3
    assert payload["alpha"] == 2
    assert payload["boundSatisfied"] is True
    assert payload["witnessParities"] == "00"
    assert payload["regions"] == [[0, 2], [1], [3]]
    assert payload["cycles"] == [[0, 2], [1, 3]]
    assert payload["audit"] == {
        "case": "i",
        "claim1": True,
        "claim2": True,
        "claim3": True,
    }
    assert payload["systemsExplored"] == 4


def test_chif_json_deterministic(tmp_path, capsys):
    path = tmp_path / "g.hmg"
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    capsys.readouterr()
    runs = []
    for argv in (
        ["chif", str(path), "--json"],
        ["chif", str(path), "--json"],
        ["chif", str(path), "--json"],
    ):
        assert cli.main(argv) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] == runs[2]


def test_alpha(c4_file, capsys):
    assert cli.main(["alpha", str(c4_file)]) == 0
    out = capsys.readouterr().out
    assert "alpha = 2" in out
    assert "matching size = 2" in out


def test_oracle(c4_file, capsys):
    assert cli.main(["oracle", str(c4_file)]) == 0
    out = capsys.readouterr().out
    assert "chiF = 3" in out
    assert "partitions scanned: 15" in out


def test_cap_exit_codes(c4_file, tmp_path):
    grid = tmp_path / "grid.hmg"
    assert cli.main(["gen", "grid", "3x4", "-o", str(grid)]) == 0
    assert cli.main(["chif", str(grid), "--face-cap", "2"]) == 3
    assert cli.main(["oracle", str(grid), "--vertex-cap", "6"]) == 3


def test_check_directory(tmp_path, capsys):
    for args in (["gen", "cycle", "4"], ["gen", "cycle", "6"], ["gen", "grid", "2x3"]):
        name = f"{args[1]}{args[2].replace('x', 'x')}.hmg"
        assert cli.main([*args, "-o", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(tmp_path)]) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    assert all("bound=ok" in line and "claims=ok" in line for line in lines)
    assert cli.main(["check", str(tmp_path)]) == 0
    assert capsys.readouterr().out == first


def test_check_invalid_instance(k4_file, capsys):
    assert cli.main(["check", str(k4_file)]) == 1
    assert "ERROR" in capsys.readouterr().err


def test_check_directory_without_instances_is_an_error(tmp_path, c4_file, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no instance here\n")
    capsys.readouterr()
    assert cli.main(["check", str(empty), str(c4_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("c4.hmg: chiF=3 alpha=2 bound=ok")
    assert captured.err == f"{empty}: ERROR no *.hmg files\n"
    # the empty directory's invalid input outranks c4's cap
    assert cli.main(["check", str(empty), str(c4_file), "--face-cap", "1"]) == 1
    assert cli.main(["check", str(empty)]) == 1


def test_byte_order_mark_is_skipped(tmp_path, c4_file, capsys):
    bom = tmp_path / "bom.hmg"
    bom.write_bytes(b"\xef\xbb\xbf" + c4_file.read_bytes())
    capsys.readouterr()
    assert cli.main(["chif", str(c4_file), "--json"]) == 0
    plain = capsys.readouterr()
    assert cli.main(["chif", str(bom), "--json"]) == 0
    assert capsys.readouterr() == plain


def test_bad_byte_after_byte_order_mark_keeps_its_file_offset(tmp_path, c4_file, capsys):
    text = b"\xef\xbb\xbf" + c4_file.read_bytes()
    k = text.index(b"vertices")
    bad = tmp_path / "bad.hmg"
    bad.write_bytes(text[:k] + b"\xff" + text[k + 1 :])
    assert cli.main(["chif", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (bad byte at offset {k})\n"
    )


def test_render(tmp_path, c4_file, capsys):
    out = tmp_path / "c4.svg"
    assert (
        cli.main(["render", str(c4_file), "-o", str(out), "--parities", "00", "--color"])
        == 0
    )
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<path ") == 2
    assert cli.main(["render", str(c4_file), "-o", str(out), "--parities", "0"]) == 1


def test_render_rejects_non_binary_parities(tmp_path, c4_file, capsys):
    out = tmp_path / "c4.svg"
    assert cli.main(["render", str(c4_file), "-o", str(out), "--parities", "01a"]) == 1
    assert capsys.readouterr().err == "error: parities must be a string of 0s and 1s\n"
    assert not out.exists()


def test_render_with_parities_runs_no_search(tmp_path, c4_file):
    # the colouring comes from the given parities, so the face cap is moot
    default, capped = tmp_path / "default.svg", tmp_path / "capped.svg"
    argv = ["render", str(c4_file), "--parities", "00", "--color"]
    assert cli.main([*argv, "-o", str(default)]) == 0
    assert cli.main([*argv, "--face-cap", "1", "-o", str(capped)]) == 0
    assert capped.read_bytes() == default.read_bytes()


def _run_cli(
    *argv: str, timeout: float | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "halfmono.cli", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "rows,cols", [(2, 3), (150, 150)], ids=["at-flush", "mid-write"]
)
def test_a_closed_reader_ends_alpha_quietly(tmp_path, rows, cols):
    # `halfmono alpha big.hmg | head -c 5`: the reader has gone before the
    # first write.  The small output fails at the closing flush; the cover
    # line of grid 150x150 is past 64 KB, so its print fails mid-write.
    path = tmp_path / "g.hmg"
    path.write_text(serialize_instance(grid_instance(rows, cols)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli("alpha", str(path), timeout=60, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    cover = maximum_matching(build(grid_instance(rows, cols))).cover
    assert (len(f"cover = {list(cover)}") > 65536) == (rows > 2)


@pytest.mark.parametrize(
    "argv",
    [["chif", "x.hmg", "--bogus"], ["chif"], ["chif", "x.hmg", "--face-cap", "abc"]],
    ids=["unknown-flag", "missing-file", "bad-int"],
)
def test_usage_errors_exit_1(argv):
    proc = _run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: halfmono")
    assert "error: " in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["chif", "x.hmg", "--face-cap", "-1"],
        ["check", "x.hmg", "--sweep-cap", "-1"],
        ["oracle", "x.hmg", "--vertex-cap", "-1"],
    ],
    ids=["face-cap", "sweep-cap", "vertex-cap"],
)
def test_negative_caps_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: halfmono")
    assert f"error: argument {argv[2]}: cap must be at least 0, got -1" in captured.err


def test_zero_cap_is_a_cap(c4_file, capsys):
    assert cli.main(["chif", str(c4_file), "--face-cap", "0"]) == 3
    assert capsys.readouterr().err == "error: 2 faces exceeds cap 0\n"


def test_help_exits_0():
    proc = _run_cli("chif", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: halfmono chif")


def test_gen_bad_parameters(tmp_path):
    assert cli.main(["gen", "cycle", "5", "-o", str(tmp_path / "x.hmg")]) == 1
    assert cli.main(["gen", "grid", "1x5", "-o", str(tmp_path / "y.hmg")]) == 1


@pytest.mark.parametrize(
    "params",
    ["\u00b2", "2x\u0663", "9" * 5000],
    ids=["superscript", "arabic-indic", "5000-digits"],
)
def test_gen_rejects_non_ascii_and_overlong_integers(params, capsys):
    family = "grid" if "x" in params else "cycle"
    assert cli.main(["gen", family, params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter ")
    assert captured.err.endswith(" is not an integer\n")
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


GEN_PARAMS = {"cycle": "6", "grid": "3x4", "prism": "6", "tight": "2"}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_gen_without_out_prints_the_file_bytes(family, tmp_path, capsys):
    path = tmp_path / f"{family}.hmg"
    assert cli.main(["gen", family, GEN_PARAMS[family], "-o", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["gen", family, GEN_PARAMS[family]]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == path.read_bytes()
    assert captured.err == ""


def test_gen_size_cap_exits_3(tmp_path):
    # 10^17 vertices: the count is checked before anything is built
    out = tmp_path / "x.hmg"
    proc = _run_cli("gen", "cycle", "100000000000000000", "-o", str(out), timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "exceeds generator cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_render_without_coords_above_layout_cap_exits_3(tmp_path, capsys):
    inst = cycle_instance(LAYOUT_VERTEX_CAP + 2)
    path = tmp_path / "bare.hmg"
    path.write_text(
        serialize_instance(InstanceFile(inst.name, inst.n, inst.rotations, None))
    )
    out = tmp_path / "bare.svg"
    assert cli.main(["render", str(path), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "exceeds layout cap" in captured.err and "coord" in captured.err
    assert not out.exists()


def test_missing_file():
    assert cli.main(["chif", "/nonexistent/path.hmg"]) == 1


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "family,params,name",
    [
        ("cycle", "6", "cycle6"),
        ("grid", "3x4", "grid3x4"),
        ("grid", "4x5", "grid4x5"),
        ("tight", "2", "tight2"),
    ],
)
def test_chif_json_golden_bytes(family, params, name, tmp_path, capsys):
    path = tmp_path / f"{name}.hmg"
    assert cli.main(["gen", family, params, "-o", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["chif", str(path), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def _reference_payload(name: str, res) -> dict:
    """The `chif --json` object that cli._result_json writes as text."""
    r = res.witness_regions
    return {
        "name": name,
        "chiF": res.chi_f,
        "alpha": res.alpha,
        "boundSatisfied": True,  # a violated bound raises
        "witnessParities": "".join(str(b) for b in res.witness_parities),
        "regions": [list(region) for region in r.regions],
        "cycles": [list(c.vertices) for c in r.cycles],
        # a violated claim raises, so every returned result has all three
        "audit": {
            "claim1": True,
            "claim2": True,
            "claim3": True,
            "case": res.audit.case,
        },
        "systemsExplored": res.systems_explored,
    }


def _reference_json(name: str, res) -> str:
    return json.dumps(_reference_payload(name, res), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "name,g",
    corpus_graphs()
    + oracle_corpus_graphs()
    + random_subdivided_graphs()
    + random_split_graphs()
    + random_rich_graphs()
    + [(f"k2_{m}", build(k2m_instance(m))) for m in range(2, 7)],
)
def test_result_json_equals_the_generic_encoder(name, g):
    res = exact_chi_f(g)
    assert cli._result_json(name, res) == _reference_json(name, res)


# Instance names are the space-joined tokens of their name line, so a token
# holds no whitespace and no comment sign; everything else is drawn,
# including the characters that json escapes.
_NAME_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x01", "\x1b", "\x7f", "/", "\u00fc", "\U0001f600"]),
    st.characters(blacklist_categories=("Cs",)).filter(
        lambda ch: not ch.isspace() and ch != "#"
    ),
)
_NAMED_INSTANCES = [cycle_instance(4), grid_instance(2, 3), k2m_instance(3)]


@given(
    tokens=st.lists(st.text(_NAME_CHARS, min_size=1, max_size=6), min_size=1, max_size=4),
    inst=st.sampled_from(_NAMED_INSTANCES),
)
def test_chif_json_escapes_drawn_names_as_json_does(tokens, inst, tmp_path_factory):
    name = " ".join(tokens)
    path = tmp_path_factory.mktemp("named") / "named.hmg"
    path.write_text(serialize_instance(inst._replace(name=name)), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["chif", str(path), "--json"]) == 0
    assert out.getvalue() == _reference_json(name, exact_chi_f(build(inst))) + "\n"
    assert json.loads(out.getvalue())["name"] == name


def test_chif_json_runs_no_pure_python_encoder(tmp_path, monkeypatch, capsys):
    # json.dumps with indent set encodes through json.encoder._make_iterencode,
    # the pure-Python encoder; the writer lays the text out itself
    path = tmp_path / "grid.hmg"  # grid3x4 has F = 7 faces
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    capsys.readouterr()
    expected = _reference_json("grid3x4", exact_chi_f(build(grid_instance(3, 4))))
    original = json.encoder._make_iterencode
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    assert cli.main(["chif", str(path), "--json"]) == 0
    assert calls == []
    assert capsys.readouterr() == (expected + "\n", "")


CHECK_GOLDEN_INSTANCES = [
    generate_instance("cycle", [6]),
    generate_instance("grid", [3, 4]),
    generate_instance("prism", [6]),
    random_subdivided_instance(5, 16),
]


@pytest.mark.parametrize("inst", CHECK_GOLDEN_INSTANCES, ids=lambda inst: inst.name)
def test_check_golden_lines(inst, tmp_path, capsys):
    path = tmp_path / f"{inst.name}.hmg"
    path.write_text(serialize_instance(inst))
    assert cli.main(["check", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"check-{inst.name}.txt").read_text()


@pytest.mark.parametrize(
    "family,params,name",
    [("cycle", "6", "cycle6"), ("grid", "3x4", "grid3x4"), ("prism", "6", "prism6")],
)
def test_chif_witness_golden_lines(family, params, name, tmp_path, capsys):
    path = tmp_path / f"{name}.hmg"
    assert cli.main(["gen", family, params, "-o", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["chif", str(path), "--witness"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"witness-{name}.txt").read_text()


def test_chif_long_ladder_needs_no_recursion(tmp_path):
    # F = 1200 faces, one search level each: far past the recursion limit
    path = tmp_path / "ladder.hmg"
    assert cli.main(["gen", "grid", "2x1200", "-o", str(path)]) == 0
    proc = _run_cli("chif", str(path), "--face-cap", "1200", timeout=120)
    assert proc.returncode == 0
    assert "chiF = 1201\n" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_check_cap_branches(tmp_path, capsys):
    path = tmp_path / "grid.hmg"  # grid3x4 has F = 7 faces
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("sweep=128 systems ok")
    assert cli.main(["check", str(path), "--sweep-cap", "6"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("sweep=skipped (7 faces > 6)")
    # the face cap wins even when the sweep cap would admit the instance
    assert cli.main(["check", str(path), "--face-cap", "6", "--sweep-cap", "16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds cap 6" in captured.err


def _count_calls(monkeypatch, module_name: str, attr: str) -> list:
    """Record calls of a function through every halfmono module that binds
    it: one entry per call, the calling function's name."""
    original = getattr(sys.modules[module_name], attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "halfmono":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_check_mixed_batch_streams_each_file_once(tmp_path, monkeypatch, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    for family, params, name in (("cycle", "6", "cycle6"), ("grid", "3x4", "grid3x4")):
        assert cli.main(["gen", family, params, "-o", str(batch / f"{name}.hmg")]) == 0
    (batch / "k4.hmg").write_text(K4_TEXT)
    capsys.readouterr()
    golden = "".join(
        (GOLDEN / f"check-{name}.txt").read_text() for name in ("cycle6", "grid3x4")
    )
    runs = _count_calls(monkeypatch, "halfmono.cli", "_check_one")

    def errors(err: str) -> list[str]:
        return [line for line in err.splitlines() if ": ERROR " in line]

    # cycle6 is named twice, directly and through its directory
    argv = ["check", str(batch), str(batch / "cycle6.hmg")]
    assert cli.main(argv) == 1  # invalid beside ok
    assert len(runs) == 3
    captured = capsys.readouterr()
    assert captured.out == golden
    assert errors(captured.err) == ["k4.hmg: ERROR k4: invalid instance"]

    # caps alone exit 3; invalid input outranks a cap
    cycle6, grid = str(batch / "cycle6.hmg"), str(batch / "grid3x4.hmg")
    assert cli.main(["check", grid, cycle6, "--face-cap", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "check-cycle6.txt").read_text()
    assert errors(captured.err) == ["grid3x4.hmg: ERROR 7 faces exceeds cap 3"]
    assert cli.main([*argv, "--face-cap", "3"]) == 1
    assert errors(capsys.readouterr().err) == [
        "grid3x4.hmg: ERROR 7 faces exceeds cap 3",
        "k4.hmg: ERROR k4: invalid instance",
    ]

    # a violated law outranks both: on cycle6 the region-coloring law reads
    # the other side of each face, so the witness, system 0, breaks it
    monkeypatch.setattr(
        "halfmono.search._check_region_coloring",
        lambda n, sides, region_of_cell, bits: _check_region_coloring(
            n, [s[::-1] for s in sides] if n == 6 else sides, region_of_cell, bits
        ),
    )
    assert cli.main([*argv, "--face-cap", "3"]) == 2
    assert errors(capsys.readouterr().err) == [
        "cycle6.hmg: ERROR region coloring failed for parity index 0",
        "grid3x4.hmg: ERROR 7 faces exceeds cap 3",
        "k4.hmg: ERROR k4: invalid instance",
    ]


# The sweep checks every law of every system in its leaf, 2^F leaves; the
# pruned search checks none.  Either way only the witness runs
# decompose_regions, which walks its curves once, and its output curves are
# those walks; only the witness runs the law functions and the tree check.
LEAVES_PER_OP = {"check": ["_sweep"] * 2**7, "chif": []}
TREE_CHECKS_PER_OP = {"check": 1, "chif": 1}
LAW_CHECKS_PER_OP = {"check": ["_certify"], "chif": ["_certify"]}


@pytest.mark.parametrize("command", [["check"], ["chif", "--json"]])
def test_one_enumeration_and_one_medial_build_per_op(
    command, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "grid.hmg"  # grid3x4 has F = 7 faces
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    decompose = _count_calls(monkeypatch, "halfmono.dividing", "decompose_regions")
    walks = _count_calls(monkeypatch, "halfmono.dividing", "_walks")
    medial = _count_calls(monkeypatch, "halfmono.medial", "build_medial_graph")
    # once, by build_plane_graph
    validate = _count_calls(monkeypatch, "halfmono.plane_graph", "validate_even_polygonal")
    # the witness is checked on the kernel's arrays, not rebuilt as objects
    assemble = _count_calls(monkeypatch, "halfmono.dividing", "assemble_dividing_system")
    tree = _count_calls(monkeypatch, "halfmono.dividing", "build_division_tree")
    # every swept system's laws go through the one leaf check
    leaves = _count_calls(monkeypatch, "halfmono.search", "_leaf_laws")
    laws = _count_calls(monkeypatch, "halfmono.search", "_check_system")
    # the half-monochromatic law is checked on the kernel's arrays, not
    # by counting labels
    half = _count_calls(monkeypatch, "halfmono.coloring", "check_half_monochromatic")
    assert cli.main([command[0], str(path), *command[1:]]) == 0
    # the call the benchmark tracer times as dividing.decompose
    assert decompose == ["_certify"]
    assert len(walks) == 1
    assert len(medial) == 1
    assert len(validate) == 1
    assert assemble == []
    assert leaves == LEAVES_PER_OP[command[0]]  # systems swept = 2^F
    assert len(tree) == TREE_CHECKS_PER_OP[command[0]]
    assert laws == LAW_CHECKS_PER_OP[command[0]]
    assert half == []


@pytest.mark.parametrize("color", [[], ["--color"]])
def test_render_builds_and_walks_the_system_once(color, tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.hmg"  # grid3x4 has F = 7 faces
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    medial = _count_calls(monkeypatch, "halfmono.medial", "build_medial_graph")
    walks = _count_calls(monkeypatch, "halfmono.dividing", "_walks")
    decompose = _count_calls(monkeypatch, "halfmono.dividing", "decompose_regions")
    validate = _count_calls(monkeypatch, "halfmono.plane_graph", "validate_even_polygonal")
    search = _count_calls(monkeypatch, "halfmono.search", "exact_chi_f")
    out = tmp_path / "g34.svg"
    argv = ["render", str(path), "-o", str(out), "--parities", "0110010", *color]
    assert cli.main(argv) == 0
    assert len(medial) == len(walks) == len(validate) == 1
    assert decompose == ["cmd_render"]
    assert search == []
    assert out.read_text().count("<path ") > 0


@pytest.mark.parametrize(
    "argv,err",
    [
        (["chif", "--face-cap", "2"], "error: 7 faces exceeds cap 2\n"),
        (["check", "--face-cap", "3"], "grid.hmg: ERROR 7 faces exceeds cap 3\n"),
        (["render", "--color", "--face-cap", "2"], "error: 7 faces exceeds cap 2\n"),
    ],
    ids=["chif", "check", "render"],
)
def test_face_cap_refuses_before_the_medial_build(
    argv, err, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "grid.hmg"  # grid3x4 has F = 7 faces
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    capsys.readouterr()
    medial = _count_calls(monkeypatch, "halfmono.medial", "build_medial_graph")
    out = tmp_path / "g34.svg"
    extra = ["-o", str(out)] if argv[0] == "render" else []
    assert cli.main([argv[0], str(path), *argv[1:], *extra]) == 3
    assert medial == []
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_alpha_computes_one_matching(c4_file, monkeypatch, capsys):
    matching = _count_calls(monkeypatch, "halfmono.independence", "maximum_matching")
    assert cli.main(["alpha", str(c4_file)]) == 0
    assert len(matching) == 1
    assert "alpha = 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["chif", "--json"], ["check"], ["alpha"]], ids=["chif", "check", "alpha"]
)
def test_one_bipartition_per_op(argv, tmp_path, monkeypatch, capsys):
    # build_plane_graph's connectivity BFS is the only 2-colouring; the
    # matching and the baseline read the sides it stored
    path = tmp_path / "grid.hmg"
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    bfs = _count_calls(monkeypatch, "halfmono.plane_graph", "compute_bipartition")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert bfs == ["build_plane_graph"]  # the callers' names
    assert capsys.readouterr().err == ""


def test_chif_refuses_more_faces_than_it_can_print(tmp_path):
    # systems explored is 2^F, which CPython refuses to print as a decimal
    # past about 14,300 faces; the cap of 10^4 faces holds for any --face-cap
    path = tmp_path / "ladder.hmg"  # a 2x10001 grid has F = 10,001 faces
    assert cli.main(["gen", "grid", "2x10001", "-o", str(path)]) == 0
    proc = _run_cli("chif", str(path), "--face-cap", "1000000", timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: 10001 faces exceeds cap 10000\n"


def test_hundred_thousand_vertex_cycle(tmp_path):
    # F = 2 faces, so the search and the sweep are tiny; parsing, face
    # tracing, the medial build, the kernel and matching all run at n = 10^5
    path = tmp_path / "c5.hmg"
    assert cli.main(["gen", "cycle", "100000", "-o", str(path)]) == 0
    expected = {
        "chif": "chiF = 50001\nalpha = 50000\n",
        "check": "c5.hmg: chiF=50001 alpha=50000 bound=ok claims=ok",
        "alpha": "alpha = 50000\nmatching size = 50000\n",
    }
    for command, text in expected.items():
        proc = _run_cli(command, str(path), timeout=120)
        assert proc.returncode == 0, command
        assert proc.stderr == "", command
        assert text in proc.stdout, command
    # the directly written JSON, 3.8 MB of it, is the generic encoder's text
    proc = _run_cli("chif", str(path), "--json", timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert (payload["chiF"], payload["alpha"]) == (50001, 50000)
    assert len(payload["regions"]) == 50001
    assert proc.stdout == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_alpha_long_ladder_needs_no_recursion(tmp_path):
    # an augmenting path along a 2x2000 ladder is about 1000 steps long
    path = tmp_path / "ladder.hmg"
    assert cli.main(["gen", "grid", "2x2000", "-o", str(path)]) == 0
    proc = _run_cli("alpha", str(path), timeout=120)
    assert proc.returncode == 0
    assert "alpha = 2000\n" in proc.stdout
    assert "Traceback" not in proc.stderr


NON_PLANAR_K5 = "vertices 5\n" + "".join(
    f"rotation {u} " + " ".join(str(v) for v in range(5) if v != u) + "\n"
    for u in range(5)
)

HOSTILE_INPUTS = {
    "empty": b"",
    "huge-n": b"vertices 1000000000\n",
    "non-planar": NON_PLANAR_K5.encode(),
    "binary": b"\xff\xfe\x00\x01junk\x80\x81\n",
}


@pytest.mark.parametrize(
    "subcommand", ["validate", "chif", "alpha", "check", "oracle", "render"]
)
@pytest.mark.parametrize("kind", sorted(HOSTILE_INPUTS))
def test_hostile_input_ends_without_traceback(kind, subcommand, tmp_path):
    path = tmp_path / "hostile.hmg"
    path.write_bytes(HOSTILE_INPUTS[kind])
    extra = ["-o", str(tmp_path / "out.svg")] if subcommand == "render" else []
    proc = _run_cli(subcommand, str(path), *extra, timeout=60)
    assert proc.returncode in {0, 1, 2, 3}
    assert "Traceback" not in proc.stderr


def test_main_builds_parser_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.hmg"
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["validate"], ["chif", "--json"], ["check"]):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert built == []


# Calls in an order where a flag or default leaking from one call into the
# next would change the output: a cap, then no cap; --json, then --witness.
REPEATED_CALLS = [
    (["check", "FILE", "--sweep-cap", "6"], 0),
    (["check", "FILE"], 0),
    (["chif", "FILE", "--face-cap", "1"], 3),
    (["chif", "FILE", "--json"], 0),
    (["chif", "FILE", "--witness"], 0),
    (["chif", "FILE", "--bogus"], 1),
    (["alpha", "FILE"], 0),
    (["--help"], 0),
    (["validate", "FILE"], 0),
]


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width
    path = tmp_path / "grid.hmg"
    assert cli.main(["gen", "grid", "3x4", "-o", str(path)]) == 0
    capsys.readouterr()
    for command, expected_code in REPEATED_CALLS:
        argv = [str(path) if arg == "FILE" else arg for arg in command]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        captured = capsys.readouterr()
        fresh = _run_cli(*argv, timeout=60)
        assert code == fresh.returncode == expected_code, argv
        assert captured.out == fresh.stdout, argv
        assert captured.err == fresh.stderr, argv


# Every subcommand on its success path and on its failure paths: argv, whose
# upper-case words _gc_case_argv turns into paths, the exit code, and how
# the run is doctored.
GC_CASES = {
    "chif-json": (["chif", "GRID", "--json"], 0, None),
    "chif-witness": (["chif", "GRID", "--witness"], 0, None),
    "chif-face-cap": (["chif", "GRID", "--face-cap", "2"], 3, None),
    "chif-odd-faces": (["chif", "K4"], 1, None),
    "chif-unparsable": (["chif", "BAD"], 1, None),
    "chif-missing-file": (["chif", "MISSING"], 1, None),
    "chif-violated-law": (["chif", "CYCLE6"], 2, "law"),
    "check": (["check", "GRID", "CYCLE6"], 0, None),
    "check-mixed-batch": (["check", "BATCH"], 1, None),
    "check-violated-law": (["check", "CYCLE6"], 2, "law"),
    "alpha": (["alpha", "GRID"], 0, None),
    "alpha-odd-faces": (["alpha", "K4"], 1, None),
    "alpha-closed-reader": (["alpha", "GRID"], 0, "pipe"),
    "validate": (["validate", "GRID"], 0, None),
    "validate-odd-faces": (["validate", "K4"], 1, None),
    "oracle": (["oracle", "CYCLE6"], 0, None),
    "oracle-vertex-cap": (["oracle", "GRID", "--vertex-cap", "6"], 3, None),
    "gen": (["gen", "grid", "3x4", "-o", "OUT"], 0, None),
    "gen-stdout": (["gen", "prism", "4"], 0, None),
    "gen-bad-parameter": (["gen", "grid", "3xa"], 1, None),
    "render-color": (["render", "GRID", "-o", "SVG", "--color"], 0, None),
    "render-color-tutte": (["render", "BARE", "-o", "SVG", "--color"], 0, None),
    "render-parities": (["render", "GRID", "-o", "SVG", "--parities", "0110010"], 0, None),
    "render-bad-parities": (["render", "GRID", "-o", "SVG", "--parities", "01a"], 1, None),
}


class _ClosedReader(io.StringIO):
    """A stdout whose reader has gone: flushing raises BrokenPipeError, and
    main's handler points `fd`, a scratch file, at devnull."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def flush(self) -> None:
        raise BrokenPipeError(32, "Broken pipe")


def _gc_case_argv(case: str, request, tmp_path, monkeypatch) -> tuple[list[str], int]:
    """Write the files GC_CASES[case] names, doctor the run, return (argv, code)."""
    command, code, doctor = GC_CASES[case]
    grid = grid_instance(3, 4)
    files = {
        "GRID": serialize_instance(grid),
        "BARE": serialize_instance(grid._replace(coords=None)),
        "CYCLE6": serialize_instance(cycle_instance(6)),
        "K4": K4_TEXT,
        "BAD": "name bad\nvertices two\n",
    }
    for key, text in files.items():
        (tmp_path / f"{key.lower()}.hmg").write_text(text)
    batch = tmp_path / "batch"
    batch.mkdir()
    for key in ("GRID", "K4", "BAD"):
        (batch / f"{key.lower()}.hmg").write_text(files[key])
    names = {key: str(tmp_path / f"{key.lower()}.hmg") for key in files}
    names.update(
        BATCH=str(batch),
        MISSING=str(tmp_path / "missing.hmg"),
        OUT=str(tmp_path / "out.hmg"),
        SVG=str(tmp_path / "out.svg"),
    )
    if doctor == "law":  # as in test_check_mixed_batch_streams_each_file_once
        monkeypatch.setattr(
            "halfmono.search._check_region_coloring",
            lambda n, sides, region_of_cell, bits: _check_region_coloring(
                n, [s[::-1] for s in sides], region_of_cell, bits
            ),
        )
    elif doctor == "pipe":
        fd = os.open(tmp_path / "pipe", os.O_WRONLY | os.O_CREAT)
        request.addfinalizer(lambda: os.close(fd))
        monkeypatch.setattr(sys, "stdout", _ClosedReader(fd))
    return [names.get(arg, arg) for arg in command], code


@pytest.fixture()
def gc_state():
    """Give the collector back in the state the test found it in."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


# cli.main pauses the cyclic collector, which is sound only if no command
# leaves cyclic garbage for it: refcounting must free everything.  Usage
# errors are left out: main(["chif"]) leaves 6 cyclic objects, through the
# traceback of argparse's SystemExit, and a usage error ends the process.
# The parser is built first: building it leaves 88 cyclic objects of
# argparse's help formatters, once per process.
@pytest.mark.parametrize("case", GC_CASES)
def test_no_command_leaves_cyclic_garbage(
    case, request, tmp_path, monkeypatch, capsys, gc_state
):
    argv, code = _gc_case_argv(case, request, tmp_path, monkeypatch)
    cli._parser()
    gc.collect()
    gc.disable()  # so that main's own finally cannot collect what it left
    assert cli.main(argv) == code
    assert gc.collect() == 0


def test_main_runs_no_collector_pass(tmp_path, capsys, gc_state):
    # with the collector running, this op makes about 50 passes (46 of
    # generation 0 and 4 of generation 1 on Python 3.11)
    path = tmp_path / "c.hmg"
    path.write_text(serialize_instance(cycle_instance(10_000)))
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.enable()
    gc.callbacks.append(record)
    try:
        assert cli.main(["alpha", str(path)]) == 0
    finally:
        gc.callbacks.remove(record)
    assert passes == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", [*GC_CASES, "usage-error"])
def test_main_gives_the_caller_its_collector_state_back(
    case, enabled, request, tmp_path, monkeypatch, capsys, gc_state
):
    if case == "usage-error":
        argv, code = ["chif"], 1
    else:
        argv, code = _gc_case_argv(case, request, tmp_path, monkeypatch)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert (case, exc.code) == ("usage-error", code)
    assert gc.isenabled() is enabled
