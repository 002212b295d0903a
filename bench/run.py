"""halfmono benchmark: CLI ops on seeded instances, end to end and per layer.

    python3 bench/run.py --workload chif-mid --seed 1 --seconds 30 --trace 0

Drives `halfmono.cli.main(argv)` in this process, one op at a time (a closed
loop with one client and no think time).  Each op is one CLI command on one
instance file generated from the seed (see workloads.py).  Ops run in whole
rounds, one op per workload entry, until --seconds have passed and at least
MIN_OK_OPS ops have succeeded.  Every op's output is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (tracer.py).

Op times are reported at a reference machine speed.  On a shared machine
the speed of the whole CPU drifts by up to 2x over tens of seconds, in wall
and CPU time alike, which no run length averages out.  So before every op
the benchmark times a fixed calibration kernel, its own face tracer on a
fixed cycle, and divides each round's op times by (median kernel time in
that round / CAL_NOMINAL_S).  The kernel is not package code, so a change to
the package scales the reported times as it scales the raw ones.  The
unscaled figures are printed in the summary; setup_s is never scaled.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The census, per-instance answers and (traced) spans go to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    check_alpha_output,
    check_check_line,
    check_chif_json,
    geometry,
    parse_alpha_output,
    parse_check_line,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OK_OPS = 110  # p90 then has at least ten samples above it
GIVE_UP = 3  # stop short of MIN_OK_OPS after this many times --seconds
SETUP_REPEATS = 9
P_TAIL = 90
CAL_NOMINAL_S = 0.002  # calibration kernel time that reported times are scaled to
CAL_ROTATIONS = tuple(((v + 1) % 1000, (v - 1) % 1000) for v in range(1000))


@dataclass
class Op:
    round: int
    instance: int
    latency_s: float
    traced: bool
    failure: str | None  # None when the op succeeded and its output checked out
    known_crash: bool  # the failure is the crash the entry is known for


@dataclass
class Round:
    traced: bool
    ops: list[int] = field(default_factory=list)
    cal: list[float] = field(default_factory=list)  # calibration kernel times
    wall_s: float = 0.0  # summed op latency

    @property
    def speed(self) -> float:
        return speed(self.cal)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolating linearly between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def samples_above(samples: list[float], value: float) -> int:
    return sum(1 for s in samples if s > value)


def latency_stats(ok: list[Op], attempted: list[Op], speed_of) -> tuple[float, float, float, int]:
    """(ok ops per second of op time, p50 s, p90 s, samples above p90), with
    each op's latency divided by speed_of(op)."""
    lat = [o.latency_s / speed_of(o) for o in ok]
    busy = sum(o.latency_s / speed_of(o) for o in attempted)
    p90 = percentile(lat, P_TAIL)
    return len(lat) / busy, percentile(lat, 50), p90, samples_above(lat, p90)


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    gc_was_on = gc.isenabled()
    gc.disable()  # the package's garbage must not slow the kernel
    try:
        t0 = time.perf_counter()
        geometry(CAL_ROTATIONS)
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def speed(cal_times: list[float]) -> float:
    """How much slower than nominal the machine ran while cal_times were taken."""
    return statistics.median(cal_times) / CAL_NOMINAL_S


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing halfmono.cli.

    One unmeasured start first writes the bytecode caches.  Not scaled by
    the calibration kernel: the start runs in a child process, whose speed
    the in-process kernel was not found to track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import halfmono.cli"]
    times = []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_op(main, argv: list[str]) -> tuple[float, object, str, str | None]:
    """(latency, exit code, stdout, exception type) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejected argv
            code = e.code
        except Exception as e:  # any crash is a failed op, recorded by type
            exc = type(e).__name__
        latency = time.perf_counter() - t0
    return latency, code, out.getvalue(), exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halfmono" / "cli.py").is_file():
        print(f"error: no halfmono sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    from halfmono import cli
    from halfmono.instance_io import build
    from halfmono.oracle import chi_f_bruteforce

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, face_histogram, materialize, round_order

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced_mode = bool(args.trace)

    setup_s = None if traced_mode else measure_setup()
    inst_dir = OUT / "instances" / f"{workload.name}-seed{args.seed}"
    instances = materialize(workload, args.seed, inst_dir)
    # brute force for the small ones; the oracle never touches the region code
    expected = {
        i.index: chi_f_bruteforce(build(i.inst)).chi_f for i in instances if i.inst.n <= 10
    }
    subcommand = workload.command[0]

    def check(i, stdout: str) -> str | None:
        if subcommand == "chif":
            return check_chif_json(i.geo, stdout, expected.get(i.index))
        if subcommand == "check":
            return check_check_line(i.geo, stdout, expected.get(i.index))
        return check_alpha_output(i.geo, stdout)

    tracer = Tracer()
    order = round_order(workload, args.seed)
    verdicts: dict[tuple, str | None] = {}
    outputs: dict[int, dict] = {}
    ops: list[Op] = []
    rounds: list[Round] = []
    t_start = time.perf_counter()
    while True:
        rnd = Round(traced=traced_mode and len(rounds) % 2 == 1)
        if rnd.traced:
            tracer.install()
        for idx in order:
            inst = instances[idx]
            rnd.cal.append(calibrate())
            tracer.op = len(ops)
            latency, code, stdout, exc = run_op(cli.main, inst.argv(workload.command))
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            key = (idx, code, exc, digest)
            if key not in verdicts:
                if exc is not None:
                    verdicts[key] = exc
                elif code != 0:
                    verdicts[key] = f"exit code {code}"
                else:
                    verdicts[key] = check(inst, stdout)
                outputs.setdefault(idx, {"digest": digest, "stdout": stdout, "failure": verdicts[key]})
            failure = verdicts[key]
            rnd.ops.append(len(ops))
            ops.append(Op(len(rounds), idx, latency, rnd.traced, failure,
                          failure is not None and failure == inst.entry.known_crash))
        if rnd.traced:
            tracer.uninstall()
        rnd.wall_s = sum(ops[k].latency_s for k in rnd.ops)
        rounds.append(rnd)
        elapsed = time.perf_counter() - t_start
        ok_untraced = sum(1 for o in ops if o.failure is None and not o.traced)
        if traced_mode:
            if len(rounds) % 2 == 0 and elapsed >= args.seconds:
                break
        elif elapsed >= args.seconds and (
            ok_untraced >= MIN_OK_OPS or elapsed >= GIVE_UP * args.seconds
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(ops)
    failed = sum(1 for o in ops if o.failure is not None)
    correct = all(o.failure is None or o.known_crash for o in ops)
    lines = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{attempted} ops in {len(rounds)} rounds of {len(order)}, {failed} failed; "
        f"machine speed factor per round {[round(r.speed, 3) for r in rounds]}"
    ]
    if traced_mode:
        metrics = layer_metrics(
            tracer,
            [(set(r.ops), r.wall_s, r.speed) for r in rounds if r.traced],
            [r.wall_s / r.speed for r in rounds if not r.traced],
        )
    else:
        untraced = [o for o in ops if not o.traced]
        ok = [o for o in untraced if o.failure is None]
        if len(ok) < 2:
            print("\n".join(lines + ["error: fewer than two ops succeeded"]), file=sys.stderr)
            return 1
        ops_per_s, p50, p90, above = latency_stats(ok, untraced, lambda o: rounds[o.round].speed)
        raw_ops_per_s, raw_p50, raw_p90, _ = latency_stats(ok, untraced, lambda o: 1.0)
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (p50 * 1000.0, "ms"),
            "op_p90_ms": (p90 * 1000.0, "ms"),
            "success_rate": (len(ok) / len(untraced), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        lines.append(
            f"  error_rate {failed / attempted:.6f} ratio ({failed}/{attempted}); "
            f"latency samples {len(ok)}, above p{P_TAIL}: {above}; unscaled: "
            f"ops_per_s {raw_ops_per_s:.4g}, op_p50_ms {raw_p50 * 1e3:.4g}, "
            f"op_p90_ms {raw_p90 * 1e3:.4g}"
        )
    lines += [f"  {name:32s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    failures: dict[str, int] = {}
    for o in ops:
        if o.failure is not None:
            reason = f"{instances[o.instance].path.name}: {o.failure}"
            failures[reason] = failures.get(reason, 0) + 1
    lines += [f"  failed x{n}: {reason}" for reason, n in sorted(failures.items())]

    census = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "command": list(workload.command),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "rounds": len(rounds),
        "rounds_detail": [
            {"traced": r.traced, "wall_s": r.wall_s, "speed": r.speed} for r in rounds
        ],
        "ops_per_round": len(order),
        "face_histogram": face_histogram(instances),
        "instances": [_instance_record(i, outputs.get(i.index), expected) for i in instances],
    }
    answers = hashlib.sha256(
        json.dumps([r["answers"] for r in census["instances"]], sort_keys=True).encode()
    ).hexdigest()
    census["answers_digest"] = answers
    lines.append(f"  F histogram (ops per round by F): {census['face_histogram']}")
    lines.append(f"  answers digest {answers[:16]}")
    census["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    census["failures"] = failures
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(census, indent=1) + "\n")
    if traced_mode:
        tracer.write_tsv(OUT / f"spans-{workload.name}.tsv")

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _instance_record(i, output: dict | None, expected: dict[int, int]) -> dict:
    """Size of the instance and the answers its op printed."""
    record = {
        "file": i.path.name,
        "name": i.inst.name,
        "n": i.geo.n,
        "E": len(i.geo.edges),
        "F": i.geo.num_faces,
        "bytes": len(i.text.encode("utf-8")),
        "oracle_chiF": expected.get(i.index),
    }
    answers: dict = {}
    if output is not None:
        answers["digest"] = output["digest"]
        answers["failure"] = output["failure"]
        if output["failure"] is None:
            answers.update(_answers(output["stdout"]))
    record["answers"] = answers
    return record


def _answers(stdout: str) -> dict:
    if stdout.startswith("{"):
        p = json.loads(stdout)
        return {"chiF": p["chiF"], "alpha": p["alpha"], "parities": p["witnessParities"]}
    if stdout.startswith("name: "):
        return {"alpha": parse_alpha_output(stdout)[0]}
    chi, alpha, _ = parse_check_line(stdout)
    return {"chiF": chi, "alpha": alpha}


if __name__ == "__main__":
    sys.exit(main())
