"""Command-line interface.

Exit codes: 0 success, 1 invalid instance, input or usage, 2 violated
internal law (a result that would contradict the certified bound or
claims), 3 search or size cap exceeded.

`chif --json` writes the certified result as text directly, in the layout
of json.dumps(indent=2, sort_keys=True), whose pure-Python encoder it avoids.

The argument parser is built once per process, on the first `main()` call,
and reused by every later call; each call still parses into a fresh
namespace, so `main(argv)` can be called repeatedly in one process.

Each `main()` call pauses the cyclic garbage collector and gives the caller
its own collector state back on every exit, a return or a raise.  No
command leaves cyclic garbage, so reference counting frees everything and
the paused passes would only have walked the graph's live tuples: about 50
passes on one `alpha` of a 10^4-vertex file.  tests/test_cli.py's
`test_no_command_leaves_cyclic_garbage` holds that premise on every
subcommand's success and failure paths.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .coloring import coloring_from_regions
from .dividing import assemble_dividing_system, decompose_regions
from .errors import (
    BadParameter,
    CapExceeded,
    FaceStructureError,
    HalfmonoError,
    InternalInvariantError,
    InvalidInstanceError,
)
from .instance_io import (
    _FAMILIES,
    _INTEGER,
    InstanceFile,
    build,
    generate_instance,
    parse_instance_text,
    render_svg,
    serialize_instance,
)
from .medial import build_medial_graph
from .oracle import chi_f_bruteforce
from .plane_graph import PlaneGraph, ValidationReport
from .search import (
    DEFAULT_FACE_CAP,
    DEFAULT_SWEEP_CAP,
    SearchResult,
    exact_chi_f,
    sweep_dividing_systems,
)
from .independence import maximum_matching

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2
EXIT_CAP = 3


def exit_code_for_exception(exc: BaseException) -> int:
    if isinstance(exc, CapExceeded):
        return EXIT_CAP
    if isinstance(exc, InternalInvariantError):
        return EXIT_VIOLATION
    return EXIT_INVALID


def _read_instance(path: str) -> InstanceFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInstanceError(
            f"{path}: not UTF-8 text (bad byte at offset {exc.start})"
        ) from None
    # Drop one leading byte-order mark after decoding, so that a bad byte's
    # offset above stays its offset in the file.
    return parse_instance_text(text.removeprefix("\ufeff"))


def _load_valid(path: str) -> tuple[InstanceFile, PlaneGraph]:
    inst = _read_instance(path)
    try:
        return inst, build(inst)
    except FaceStructureError as exc:
        raise HalfmonoError(f"{inst.name}: invalid instance\n{exc.report}") from None


def _int_rows(rows) -> str:
    """Non-empty int lists, as json.dumps(indent=2) lays out a key's value."""
    return "[\n    " + ",\n    ".join(
        "[\n      " + ",\n      ".join(map(str, row)) + "\n    ]" for row in rows
    ) + "\n  ]"


def _result_json(name: str, res: SearchResult) -> str:
    """The result as json.dumps(payload, indent=2, sort_keys=True) writes it.

    With indent set, json runs its pure-Python encoder, so the text is laid
    out here: keys in sorted order, ints through str, and the two free
    strings through json.dumps, whose C string encoder the generic encoder
    also uses.  Every region holds a base vertex and every curve a
    midpoint, so no list is empty.  The claims and the bound are true,
    since a violation raises before any output.
    """
    r = res.witness_regions
    parities = "".join(map(str, res.witness_parities))
    return (
        "{\n"
        f'  "alpha": {res.alpha},\n'
        '  "audit": {\n'
        f'    "case": {json.dumps(res.audit.case)},\n'
        '    "claim1": true,\n'
        '    "claim2": true,\n'
        '    "claim3": true\n'
        "  },\n"
        '  "boundSatisfied": true,\n'
        f'  "chiF": {res.chi_f},\n'
        f'  "cycles": {_int_rows(c.vertices for c in r.cycles)},\n'
        f'  "name": {json.dumps(name)},\n'
        f'  "regions": {_int_rows(r.regions)},\n'
        f'  "systemsExplored": {res.systems_explored},\n'
        f'  "witnessParities": "{parities}"\n'
        "}"
    )


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    try:
        build(inst)  # validates the faces it traces
    except FaceStructureError as exc:
        report = exc.report
    else:
        report = ValidationReport(defects=())
    print(f"{inst.name}: {report}")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_chif(args: argparse.Namespace) -> int:
    inst, g = _load_valid(args.file)
    res = exact_chi_f(g, face_cap=args.face_cap)
    if args.json:
        print(_result_json(inst.name, res))
        return EXIT_OK
    print(f"name: {inst.name}")
    print(f"chiF = {res.chi_f}")
    print(f"alpha = {res.alpha}")
    print(
        f"bound 2*chiF <= 3*alpha: "
        f"{2 * res.chi_f} <= {3 * res.alpha} "
        f"({'tight' if 2 * res.chi_f == 3 * res.alpha else 'strict'})"
    )
    print(f"systems explored: {res.systems_explored}")
    if args.witness:
        r = res.witness_regions
        print(f"witness parities: {''.join(map(str, res.witness_parities))}")
        for i, region in enumerate(r.regions):
            print(f"region {i} (color {i}): vertices {list(region)}")
        for i, c in enumerate(r.cycles):
            print(f"curve {i}: midpoints of edges {list(c.vertices)}")
    return EXIT_OK


def cmd_alpha(args: argparse.Namespace) -> int:
    inst, g = _load_valid(args.file)
    matching = maximum_matching(g)
    print(f"name: {inst.name}")
    print(f"alpha = {matching.alpha}")
    print(f"matching size = {matching.size}")
    print(f"cover = {list(matching.cover)}")
    return EXIT_OK


def _check_one(path: Path, face_cap: int, sweep_cap: int) -> str:
    inst, g = _load_valid(str(path))
    # both calls certify the bound and audit the claims, raising the
    # exit-code-2 family on any violation; exact_chi_f raises the face cap
    if g.num_faces <= min(face_cap, sweep_cap):
        res = sweep_dividing_systems(g, face_cap=sweep_cap)
        sweep_note = f"sweep={res.systems_explored} systems ok"
    else:
        res = exact_chi_f(g, face_cap=face_cap)
        sweep_note = f"sweep=skipped ({g.num_faces} faces > {sweep_cap})"
    return (
        f"{path.name}: chiF={res.chi_f} alpha={res.alpha} "
        f"bound=ok claims=ok case={res.audit.case} {sweep_note}"
    )


def cmd_check(args: argparse.Namespace) -> int:
    # violations dominate, then invalid input, then caps
    precedence = (EXIT_OK, EXIT_CAP, EXIT_INVALID, EXIT_VIOLATION)
    worst = EXIT_OK
    paths: set[Path] = set()  # a file named twice is checked once
    for target in args.paths:
        p = Path(target)
        found = set(p.glob("*.hmg")) if p.is_dir() else {p}
        if not found:
            print(f"{target}: ERROR no *.hmg files", file=sys.stderr)
            worst = max(worst, EXIT_INVALID, key=precedence.index)
        paths |= found
    for p in sorted(paths, key=str):
        try:
            line = _check_one(p, args.face_cap, args.sweep_cap)
        except Exception as exc:  # report per file, keep batch going
            print(f"{p.name}: ERROR {exc}", file=sys.stderr)
            worst = max(worst, exit_code_for_exception(exc), key=precedence.index)
        else:
            print(line)
    return worst


def cmd_oracle(args: argparse.Namespace) -> int:
    inst, g = _load_valid(args.file)
    res = chi_f_bruteforce(g, vertex_cap=args.vertex_cap)
    print(f"name: {inst.name}")
    print(f"chiF = {res.chi_f} (brute force)")
    print(f"partitions scanned: {res.partitions_scanned}")
    print(f"witness colors: {list(res.witness.colors)}")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    inst, g = _load_valid(args.file)
    cycles = ()
    coloring = None
    if args.parities is not None:
        if any(ch not in "01" for ch in args.parities):
            raise BadParameter("parities must be a string of 0s and 1s")
        m = build_medial_graph(g)
        bits = assemble_dividing_system(m, map(int, args.parities))
        r = decompose_regions(m, bits)
        cycles = r.cycles
        if args.color:
            coloring = coloring_from_regions(r)
    elif args.color:
        res = exact_chi_f(g, face_cap=args.face_cap)
        coloring = coloring_from_regions(res.witness_regions)
    svg = render_svg(g, cycles, coloring)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    params: list[int] = []
    for token in args.params:
        for piece in token.lower().split("x"):
            if not _INTEGER.fullmatch(piece):
                shown = token if len(token) <= 20 else token[:20] + "..."
                raise BadParameter(f"parameter {shown!r} is not an integer")
            params.append(int(piece))
    inst = generate_instance(args.family, params)
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid input); 2 is kept for violated laws."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    """Type of the cap options: an int of at least 0, else a usage error."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"cap must be at least 0, got {value}")
    return value


_cap.__name__ = "int"  # a non-int still reads "invalid int value", as with int


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halfmono",
        description="Exact solver and verifier for half-monochromatic "
        "colorings of plane graphs with even polygonal faces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that every face is an even cycle")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chif", help="exact maximum color count")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--face-cap", type=_cap, default=DEFAULT_FACE_CAP)
    p.set_defaults(func=cmd_chif)

    p = sub.add_parser("alpha", help="independence number with certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser(
        "check", help="bound, claims audit and exhaustive region/tree laws"
    )
    p.add_argument("paths", nargs="+", metavar="FILE_OR_DIR")
    p.add_argument("--face-cap", type=_cap, default=DEFAULT_FACE_CAP)
    p.add_argument("--sweep-cap", type=_cap, default=DEFAULT_SWEEP_CAP)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="brute-force maximum over all partitions")
    p.add_argument("file")
    p.add_argument("--vertex-cap", type=_cap, default=12)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw the instance as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--parities", help="bit string selecting a dividing system")
    p.add_argument("--color", action="store_true", help="fill vertices by coloring")
    p.add_argument("--face-cap", type=_cap, default=DEFAULT_FACE_CAP)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gen", help="write a corpus instance")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="+", help="cycle LEN | grid RxC | prism LEN")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    gc_was_on = gc.isenabled()
    gc.disable()  # no command leaves cyclic garbage; see the module docstring
    try:
        args = _parser().parse_args(argv)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed reader shows here, not at shutdown
            return code
        except BrokenPipeError:  # the reader has gone, as in `... | head -c 5`
            # the interpreter's last flush writes what is left to devnull
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            return EXIT_OK
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except HalfmonoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exit_code_for_exception(exc)
    finally:
        if gc_was_on:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
