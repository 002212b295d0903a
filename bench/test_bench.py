"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from halfmono import cli
from halfmono.instance_io import grid_instance, serialize_instance

from checks import check_alpha_output, check_chif_json, geometry
from run import MIN_OK_OPS, percentile, samples_above
from tracer import LAYER_METRICS, Tracer, self_times
from workloads import CHECK_SWEEP, WORKLOADS, materialize

ROOT = Path(__file__).resolve().parents[1]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.hmg"))}


def test_same_seed_same_bytes_other_seed_other_subdivisions(tmp_path):
    for w in WORKLOADS.values():
        a = _files_of(w, 7, tmp_path / "a")
        assert a == _files_of(w, 7, tmp_path / "b")
    one, two = _files_of(CHECK_SWEEP, 1, tmp_path / "c"), _files_of(CHECK_SWEEP, 2, tmp_path / "d")
    subdivided = [
        name for name, e in zip(sorted(one), CHECK_SWEEP.entries) if e.subdivisions
    ]
    assert subdivided and any(one[n] != two[n] for n in subdivided)
    plain = [name for name, e in zip(sorted(one), CHECK_SWEEP.entries) if not e.subdivisions]
    assert all(one[n] == two[n] for n in plain)


def _files_of(workload, seed: int, directory: Path) -> dict[str, bytes]:
    materialize(workload, seed, directory)
    return _files(directory)


def test_self_time_subtracts_children_on_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] > b1 [6, 7], b2 [7, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    own = self_times(parent, start, end)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    import halfmono.search as search

    original = search.decompose_regions
    tracer = Tracer()
    tracer.install()
    try:
        assert search.decompose_regions is not original
        path = tmp_path / "grid2x3.hmg"
        path.write_text(serialize_instance(grid_instance(2, 3)))
        tracer.op = 0
        with redirect_stdout(io.StringIO()):
            assert cli.main(["chif", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert search.decompose_regions is original
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "cli.main" and tracer.span_parent[0] == -1
    # grid2x3 has 3 faces: 8 systems plus the witness rebuild in exact_chi_f
    assert names.count("dividing.decompose") == 8 + 1
    assert tracer.op_counts[0]["systems_explored"] == 8
    own = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    assert sum(own) == pytest.approx(tracer.span_end[0] - tracer.span_start[0])


def test_percentile_rule():
    samples = [float(x) for x in range(1, MIN_OK_OPS + 1)]
    assert MIN_OK_OPS == 110
    assert percentile(samples, 50) == pytest.approx(55.5)
    p90 = percentile(samples, 90)
    assert p90 == pytest.approx(99.1)
    assert samples_above(samples, p90) == 11
    # order does not matter, and with only 50 samples p90 has 5 above it
    assert percentile(list(reversed(samples)), 90) == p90
    few = samples[:50]
    assert samples_above(few, percentile(few, 90)) == 5


def _chif_json(inst, directory: Path) -> str:
    path = directory / f"{inst.name}.hmg"
    path.write_text(serialize_instance(inst))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["chif", str(path), "--json"]) == 0
    return out.getvalue()


def test_chif_checker_accepts_the_solver_and_rejects_a_moved_vertex(tmp_path):
    inst = grid_instance(3, 3)
    geo = geometry(inst.rotations)
    text = _chif_json(inst, tmp_path)
    assert check_chif_json(geo, text, expected_chi=6) is None
    assert "oracle" in check_chif_json(geo, text, expected_chi=7)

    payload = json.loads(text)
    regions = [list(r) for r in payload["regions"]]
    # move one vertex into the region of a neighbour
    u, v = geo.edges[0]
    src = next(r for r in regions if u in r)
    dst = next(r for r in regions if v in r)
    src.remove(u)
    dst.append(u)
    payload["regions"] = [r for r in regions if r]
    failure = check_chif_json(geo, json.dumps(payload), expected_chi=None)
    assert failure is not None and "inside region" in failure


def test_alpha_checker_rejects_an_uncovered_edge():
    inst = grid_instance(2, 3)
    geo = geometry(inst.rotations)
    good = "name: grid2x3\nalpha = 3\nmatching size = 3\ncover = [0, 2, 4]\n"
    assert check_alpha_output(geo, good) is None
    bad = good.replace("[0, 2, 4]", "[0, 2, 5]")
    assert "not covered" in check_alpha_output(geo, bad)
    assert "malformed" in check_alpha_output(geo, "name: x\n")


def test_geometry_traces_euler_faces():
    geo = geometry(grid_instance(3, 4).rotations)
    assert geo.n - len(geo.edges) + geo.num_faces == 2
    assert sorted(len(f) for f in geo.faces) == [4] * 6 + [10]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {name for name, _, _ in LAYER_METRICS} | {"trace_overhead", "trace.accounted_share"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert "bench" in spec["paths"]
