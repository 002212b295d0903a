"""Every name the benchmark's tracer rebinds, and every exported name,
must resolve: a renamed traced function would otherwise surface only when
the traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import halfmono

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
