"""Every name the benchmark's tracer rebinds, and every exported name,
must resolve: a renamed traced function would otherwise surface only when
the traced benchmark runs.  The records those names return are immutable,
and importing the CLI loads neither dataclasses nor inspect, which would
add about a fifth to every start."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import halfmono
from halfmono import (
    build,
    build_medial_graph,
    chi_f_bruteforce,
    coloring_from_regions,
    exact_chi_f,
    grid_instance,
    maximum_matching,
    validate_even_polygonal,
)
from halfmono.plane_graph import ODD_FACE, FaceDefect

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # imports only the standard library
    return tracer.TRACED


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _ in _traced()], ids=lambda x: x
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_exported_name_resolves():
    missing = [name for name in halfmono.__all__ if not hasattr(halfmono, name)]
    assert missing == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import halfmono.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def _records():
    inst = grid_instance(2, 3)
    g = build(inst)
    res = exact_chi_f(g)
    r = res.witness_regions
    return {
        "InstanceFile": inst,
        "PlaneGraph": g,
        "FaceDefect": FaceDefect(0, ODD_FACE, "degree 3 is odd"),
        "ValidationReport": validate_even_polygonal(g),
        "MedialGraph": build_medial_graph(g),
        "Cycle": r.cycles[0],
        "RegionDecomposition": r,
        "Coloring": coloring_from_regions(r),
        "MatchingResult": maximum_matching(g),
        "OracleResult": chi_f_bruteforce(g),
        "AuditReport": res.audit,
        "SearchResult": res,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0
