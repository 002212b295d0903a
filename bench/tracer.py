"""Per-layer tracing, attached to the package from outside.

`Tracer.install` replaces each traced public function, in every halfmono
module that binds it, by a wrapper that records a span (name, start, end,
parent span, op id); `uninstall` puts the originals back.  Nothing under
src/ changes, and untraced passes run the unwrapped code.  Spans are kept in
flat arrays in memory and written out once, when the run ends.

A span's self time is its duration minus the durations of its child spans.
The process runs one op at a time on one thread, so the children of a span
never overlap and their summed durations are exactly the time they cover.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name).  Functions sharing a span name form one
# layer metric; functions not listed count towards their caller's self time.
TRACED = (
    ("halfmono.cli", "main", "cli.main"),
    ("halfmono.search", "exact_chi_f", "search.exact_chi_f"),
    ("halfmono.search", "sweep_dividing_systems", "search.sweep"),
    ("halfmono.dividing", "assemble_dividing_system", "dividing.assemble"),
    ("halfmono.dividing", "decompose_regions", "dividing.decompose"),
    ("halfmono.dividing", "extract_cycles", "dividing.extract_cycles"),
    ("halfmono.dividing", "build_division_tree", "dividing.tree"),
    ("halfmono.coloring", "coloring_from_regions", "coloring.from_regions"),
    ("halfmono.coloring", "check_proper", "coloring.checks"),
    ("halfmono.coloring", "check_half_monochromatic", "coloring.checks"),
    ("halfmono.coloring", "baseline_coloring", "coloring.baseline"),
    ("halfmono.medial", "build_medial_graph", "medial.build"),
    ("halfmono.plane_graph", "build_plane_graph", "plane_graph.build"),
    ("halfmono.plane_graph", "validate_even_polygonal", "plane_graph.validate"),
    ("halfmono.plane_graph", "compute_bipartition", "plane_graph.bipartition"),
    ("halfmono.instance_io", "parse_instance_text", "instance_io.parse"),
    ("halfmono.independence", "maximum_matching", "independence.matching"),
)


def _count_explored(counts: Counter, args, result) -> None:
    counts["systems_explored"] += result.systems_explored


def _count_bytes(counts: Counter, args, result) -> None:
    counts["bytes_in"] += len(args[0].encode("utf-8"))


_COUNTERS = {"search.exact_chi_f": _count_explored, "instance_io.parse": _count_bytes}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1  # id of the op now running
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        count = _COUNTERS.get(span)
        ops, names, parents = self.span_op, self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            ops.append(self.op)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.op_counts[self.op], args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a halfmono module binds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "halfmono"]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bound.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._bound:
            module, key, original = self._bound.pop()
            setattr(module, key, original)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_parent[i]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class PassTotals:
    """Self seconds and calls per span name, and counters, over one pass."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.evaluated = 0  # decompose_regions calls made under exact_chi_f


def pass_totals(tracer: Tracer, pass_of_op: dict[int, int], num_passes: int) -> list[PassTotals]:
    """Aggregate the recorded spans by pass; ops missing from pass_of_op are skipped."""
    own = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    names, name_of, parent_of = tracer.names, tracer.span_name, tracer.span_parent
    exact = names.index("search.exact_chi_f")
    decompose = names.index("dividing.decompose")
    totals = [PassTotals() for _ in range(num_passes)]
    under_exact = bytearray(len(own))
    for i, op in enumerate(tracer.span_op):
        p = parent_of[i]
        # parents are opened, hence stored, before their children
        under_exact[i] = p >= 0 and (name_of[p] == exact or under_exact[p])
        k = pass_of_op.get(op)
        if k is None:
            continue
        t, name = totals[k], names[name_of[i]]
        t.self_s[name] += own[i]
        t.calls[name] += 1
        if name_of[i] == decompose and under_exact[i]:
            t.evaluated += 1
    for op, k in pass_of_op.items():
        totals[k].counts.update(tracer.op_counts.get(op, {}))
    return totals


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (metric, unit, value from one traced pass).  `_s` is self seconds and
# `_calls` a call count, both per pass (one op per workload entry).
LAYER_METRICS = (
    ("search.exact_chi_f_self_s", "s", lambda t: t.self_s["search.exact_chi_f"]),
    ("search.sweep_self_s", "s", lambda t: t.self_s["search.sweep"]),
    ("search.systems_explored", "count", lambda t: t.counts["systems_explored"]),
    ("search.systems_evaluated", "count", lambda t: t.evaluated),
    ("search.evaluated_ratio", "ratio",
     lambda t: _ratio(t.evaluated, t.counts["systems_explored"])),
    ("dividing.assemble_s", "s", lambda t: t.self_s["dividing.assemble"]),
    ("dividing.assemble_calls", "count", lambda t: t.calls["dividing.assemble"]),
    ("dividing.decompose_s", "s", lambda t: t.self_s["dividing.decompose"]),
    ("dividing.decompose_calls", "count", lambda t: t.calls["dividing.decompose"]),
    ("dividing.extract_cycles_s", "s", lambda t: t.self_s["dividing.extract_cycles"]),
    ("dividing.tree_s", "s", lambda t: t.self_s["dividing.tree"]),
    ("dividing.tree_calls", "count", lambda t: t.calls["dividing.tree"]),
    ("coloring.from_regions_s", "s", lambda t: t.self_s["coloring.from_regions"]),
    ("coloring.checks_s", "s", lambda t: t.self_s["coloring.checks"]),
    ("coloring.checks_calls", "count", lambda t: t.calls["coloring.checks"]),
    ("coloring.baseline_s", "s", lambda t: t.self_s["coloring.baseline"]),
    ("medial.build_s", "s", lambda t: t.self_s["medial.build"]),
    ("medial.build_calls", "count", lambda t: t.calls["medial.build"]),
    ("plane_graph.build_s", "s", lambda t: t.self_s["plane_graph.build"]),
    ("plane_graph.validate_s", "s", lambda t: t.self_s["plane_graph.validate"]),
    ("plane_graph.validate_calls", "count", lambda t: t.calls["plane_graph.validate"]),
    ("plane_graph.bipartition_s", "s", lambda t: t.self_s["plane_graph.bipartition"]),
    ("plane_graph.bipartition_calls", "count",
     lambda t: t.calls["plane_graph.bipartition"]),
    ("instance_io.parse_s", "s", lambda t: t.self_s["instance_io.parse"]),
    ("instance_io.parse_calls", "count", lambda t: t.calls["instance_io.parse"]),
    ("instance_io.bytes_in", "bytes", lambda t: t.counts["bytes_in"]),
    ("independence.matching_s", "s", lambda t: t.self_s["independence.matching"]),
    ("independence.matching_calls", "count", lambda t: t.calls["independence.matching"]),
    ("cli.self_s", "s", lambda t: t.self_s["cli.main"]),
)


def layer_metrics(
    tracer: Tracer,
    traced_passes: list[tuple[set[int], float, float]],
    untraced_walls: list[float],
) -> dict[str, tuple[float, str]]:
    """Median per-pass layer metrics, plus how much of the pass they explain.

    traced_passes holds (op ids, summed op latency, machine speed factor)
    per traced pass; self seconds are divided by the pass's speed factor, as
    are the untraced pass walls given.  `trace_overhead` is the median traced
    pass over the median untraced one; `trace.accounted_share` is the layers'
    summed self time over the traced pass, below 1 only by the harness's own
    time per op.
    """
    pass_of_op = {op: k for k, (ops, _, _) in enumerate(traced_passes) for op in ops}
    per_pass = []
    for totals, (_, wall, speed) in zip(
        pass_totals(tracer, pass_of_op, len(traced_passes)), traced_passes
    ):
        row = {
            name: fn(totals) / speed if unit == "s" else fn(totals)
            for name, unit, fn in LAYER_METRICS
        }
        row["trace.accounted_share"] = _ratio(sum(totals.self_s.values()), wall)
        row["wall"] = wall / speed
        per_pass.append(row)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units["trace.accounted_share"] = "ratio"
    out = {
        name: (statistics.median(row[name] for row in per_pass), unit)
        for name, unit in units.items()
    }
    out["trace_overhead"] = (
        _ratio(
            statistics.median(row["wall"] for row in per_pass),
            statistics.median(untraced_walls),
        ),
        "ratio",
    )
    return out
