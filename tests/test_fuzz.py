"""Seeded mutation fuzzing of the command line.

Small instances (n <= 12) are mutated in two ways.  Moves that keep the
embedding valid (relabel the vertices, mirror every rotation, rotate one
rotation, split a face, subdivide an edge) take most mutants to the
solver; edits of single lines of the file take the rest to the parser's
and the validator's error paths.  Every mutant runs through six commands,
twice each: no command may raise, each must exit 0, 1 or 3 (2 would be a
violated internal law), and the second run must print the same bytes as
the first.  The caps keep each op small: the sweep stops at 8 faces and
the partition oracle at 8 vertices, Bell(8) = 4,140 partitions.  Every
mutant that `chif` solves must render too.
"""

from __future__ import annotations

import random

import pytest

from corpus import (
    fan_instance,
    instance_edges,
    k2m_instance,
    relabelled_instance,
    split_face,
)
from halfmono import cli
from halfmono.instance_io import (
    InstanceFile,
    cycle_instance,
    grid_instance,
    prism_instance,
    serialize_instance,
    subdivide_edge,
)

BASES = {
    inst.name: inst
    for inst in (
        cycle_instance(4),
        cycle_instance(8),
        grid_instance(2, 3),
        grid_instance(3, 3),
        grid_instance(3, 4),
        prism_instance(4),
        prism_instance(6),
        k2m_instance(4),
        fan_instance(4),  # the black side is the larger one
    )
}
MUTANTS_PER_BASE = 40
COMMANDS = (
    ["validate"],
    ["chif", "--json"],
    ["alpha"],
    ["check", "--sweep-cap", "8"],
    ["oracle", "--vertex-cap", "8"],
    ["render", "--color"],
)
TOKENS = ("-1", "0", "1", "2", "7", "12", "99999999999", "1.5", "x", "nan", "")
JUNK_LINES = (
    "rotation",
    "rotation 0",
    "vertices 3",
    "name",
    "coord 0 nan 1",
    "bogus 1 2",
    "# a comment",
    "\ufeffname bom",
)


def _mirror(inst: InstanceFile, rng: random.Random) -> InstanceFile:
    """Every rotation reversed: the mirror image of the same embedding."""
    rotations = tuple(r[::-1] for r in inst.rotations)
    return InstanceFile(inst.name, inst.n, rotations, inst.coords)


def _rotate(inst: InstanceFile, rng: random.Random) -> InstanceFile:
    """One vertex's rotation shifted cyclically: the same embedding."""
    v = rng.randrange(inst.n)
    rot = inst.rotations[v]
    k = rng.randrange(len(rot))
    rotations = list(inst.rotations)
    rotations[v] = rot[k:] + rot[:k]
    return InstanceFile(inst.name, inst.n, tuple(rotations), inst.coords)


def _relabel(inst: InstanceFile, rng: random.Random) -> InstanceFile:
    perm = list(range(inst.n))
    rng.shuffle(perm)
    return relabelled_instance(inst, perm)


def _subdivide(inst: InstanceFile, rng: random.Random) -> InstanceFile:
    u, v = rng.choice(instance_edges(inst))
    return subdivide_edge(inst, u, v, times=2)


MOVES = (_mirror, _rotate, _relabel, _subdivide, split_face)


def _edit_line(text: str, rng: random.Random) -> str:
    """One edit of one line: delete, duplicate, retoken, swap tokens, add junk."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    edit = rng.randrange(6)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, lines[i])
    elif edit == 2 and lines[i]:
        tokens = lines[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    elif edit == 3 and lines[i]:
        tokens = lines[i].split(" ")
        a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[i] = " ".join(tokens)
    elif edit == 4:
        lines.insert(i, rng.choice(JUNK_LINES))
    else:
        return text[: rng.randrange(len(text))]
    return "\n".join(lines)


def mutant(base: InstanceFile, rng: random.Random) -> str:
    """The text of base after 0-3 valid moves and, a third of the time, 1-2 line edits.

    Every move keeps the instance valid; moves stop once it has more than
    16 vertices, so the ops stay small.
    """
    inst = base
    for _ in range(rng.randint(0, 3)):
        if inst.n > 16:
            break
        inst = rng.choice(MOVES)(inst, rng)
    text = serialize_instance(inst)
    if rng.random() < 1 / 3:
        for _ in range(rng.randint(1, 2)):
            text = _edit_line(text, rng)
    return text


def _run(argv, svg, capsys) -> tuple[int, str, str, bytes]:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, svg.read_bytes() if svg.exists() else b""


@pytest.mark.parametrize("name", sorted(BASES))
def test_mutants_exit_cleanly_and_deterministically(name, tmp_path, capsys):
    rng = random.Random(f"fuzz-{name}")
    path, svg = tmp_path / "mutant.hmg", tmp_path / "mutant.svg"
    solved = 0  # mutants whose chif exits 0
    for _ in range(MUTANTS_PER_BASE):
        text = mutant(BASES[name], rng)
        path.write_text(text, encoding="utf-8")
        codes = {}
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            if command[0] == "render":
                argv += ["-o", str(svg)]
            svg.unlink(missing_ok=True)
            first = _run(argv, svg, capsys)
            assert first[0] in (0, 1, 3), (argv, text, first)
            svg.unlink(missing_ok=True)
            assert _run(argv, svg, capsys) == first, (argv, text)
            codes[command[0]] = first[0]
        solved += codes["chif"] == 0
        # every instance the solver takes can be drawn
        assert codes["render"] == 0 or codes["chif"] != 0, text
    # most mutants reach the solver, not just the parser
    assert solved >= MUTANTS_PER_BASE // 2
