"""Workload definitions and seeded instance generation.

A workload is a fixed list of instance entries, one op per entry per round,
and the CLI command every op runs.  The seed picks which edges of the
subdivided entries are subdivided and the order of the ops in a round; it
never changes an entry's family, size or face count, so the cost of a round
stays put from seed to seed while the inputs differ.

The entries of each workload are grouped into cost classes (by face count F
for the search-bound workloads, by size for alpha-large).  Latency
percentiles are taken over whole rounds, so the p50 and p90 sample positions
are fixed ranks of the sorted round; each list is laid out so that both
ranks fall well inside one class instead of on the border between two.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from halfmono.instance_io import (
    InstanceFile,
    generate_instance,
    serialize_instance,
    subdivide_edge,
)

from checks import Geometry, geometry

SUBDIVIDE_TIMES = 2  # an even count keeps every face even


@dataclass(frozen=True)
class Entry:
    family: str
    params: tuple[int, ...]
    subdivisions: int = 0  # seeded edges replaced by a path of two vertices
    known_crash: str | None = None  # exception type the op is known to raise


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # "{file}" stands for the instance path
    entries: tuple[Entry, ...]


@dataclass(frozen=True)
class Instance:
    index: int
    entry: Entry
    inst: InstanceFile
    path: Path
    text: str
    geo: Geometry

    def argv(self, command: tuple[str, ...]) -> list[str]:
        return [str(self.path) if a == "{file}" else a for a in command]


def _e(family: str, *params: int, sub: int = 0, crash: str | None = None) -> Entry:
    return Entry(family, params, sub, crash)


# chif costs about 130 us per dividing system, so each F step doubles an op.
# Classes (F: entries): 2: 3, 5-6: 2, 7: 3, 8: 3, 9: 3, 10: 4, 11: 3, 12: 2,
# 13: 2.  Of 25 ops, p50 (rank 12.5) is mid-F9 and p90 (rank 22.5) is the
# slower F12 entry, kept unsubdivided (grid2x12, 0.44 s against prism10's
# 0.36 s) so that the seed does not move it.  Every instance with n <= 10 is
# also solved by the brute-force oracle.
CHIF_MID = Workload(
    "chif-mid",
    ("chif", "{file}", "--json"),
    (
        _e("cycle", 6), _e("cycle", 8), _e("cycle", 10),
        _e("grid", 3, 3), _e("prism", 4),
        _e("grid", 3, 4), _e("grid", 3, 4, sub=2), _e("grid", 3, 4, sub=2),
        _e("prism", 6), _e("prism", 6, sub=2), _e("prism", 6, sub=2),
        _e("grid", 3, 5), _e("grid", 3, 5, sub=2), _e("grid", 3, 5, sub=2),
        _e("grid", 4, 4), _e("grid", 4, 4, sub=2),
        _e("prism", 8), _e("prism", 8, sub=2),
        _e("grid", 3, 6), _e("grid", 3, 6, sub=2), _e("grid", 3, 6, sub=2),
        _e("prism", 10), _e("grid", 2, 12),
        _e("grid", 4, 5), _e("grid", 3, 7),
    ),
)

# A check op costs 2.2-3.3 chif ops: the sweep rebuilds, tree-checks and
# colour-checks all 2^F systems after the search.  Classes: 2: 3, 5-6: 2,
# 7: 3, 8: 3, 9: 3, 10: 10, 12: 1.  p50 (rank 12.5) is mid-F9, p90 (rank
# 22.5) sits in the F10 block; the single F12 op stays above p90.
CHECK_SWEEP = Workload(
    "check-sweep",
    ("check", "{file}"),
    (
        _e("cycle", 6), _e("cycle", 8), _e("cycle", 10),
        _e("grid", 3, 3), _e("prism", 4),
        _e("grid", 3, 4), _e("grid", 3, 4, sub=2), _e("grid", 3, 4, sub=2),
        _e("prism", 6), _e("prism", 6, sub=2), _e("prism", 6, sub=2),
        _e("grid", 3, 5), _e("grid", 3, 5, sub=2), _e("grid", 3, 5, sub=2),
        _e("grid", 4, 4), _e("grid", 4, 4, sub=2), _e("grid", 4, 4, sub=2),
        _e("grid", 4, 4, sub=2), _e("grid", 4, 4, sub=2),
        _e("prism", 8), _e("prism", 8, sub=2), _e("prism", 8, sub=2),
        _e("prism", 8, sub=2), _e("prism", 8, sub=2),
        _e("prism", 10),
    ),
)

# maximum_matching recurses once per augmenting-path step.  Measured frame
# needs: 2xL ladder about L/2 (2x800: 402, 2x3000: 1502), square grid 30x30:
# 321, 50x50: 867, cycles and prisms: 4.  The default limit is 1000, so
# 2x3000 is the known crash; every other entry needed at most 402 frames on
# seeds 0-24.  Only square grids get subdivided: on ladders and prisms a
# subdivision lengthens the augmenting paths (a prism4000 with four needs
# 4005 frames), which would make the failures depend on the seed.  Successful classes (by op cost): about 10-17 ms, 22 ms,
# 37 ms, 55-80 ms, 200-330 ms, three each; of the 15 successful ops p50
# (rank 7.5) and p90 (rank 13.5) are the middles of the third and fifth.
ALPHA_LARGE = Workload(
    "alpha-large",
    ("alpha", "{file}"),
    (
        _e("grid", 16, 16, sub=4), _e("grid", 20, 20, sub=4), _e("grid", 2, 500),
        _e("grid", 24, 24, sub=4), _e("grid", 2, 800), _e("grid", 2, 700),
        _e("grid", 32, 32, sub=4), _e("cycle", 2000), _e("grid", 30, 30, sub=4),
        _e("prism", 1000), _e("cycle", 3000), _e("prism", 1500),
        _e("cycle", 10000), _e("cycle", 9000), _e("prism", 4000),
        _e("grid", 2, 3000, crash="RecursionError"),
    ),
)

WORKLOADS = {w.name: w for w in (CHIF_MID, CHECK_SWEEP, ALPHA_LARGE)}


def _edges(inst: InstanceFile) -> list[tuple[int, int]]:
    return [(u, v) for u, rot in enumerate(inst.rotations) for v in rot if u < v]


def build_instance(entry: Entry, rng: random.Random) -> InstanceFile:
    """The entry's corpus instance with its seeded subdivisions applied."""
    inst = generate_instance(entry.family, entry.params)
    for _ in range(entry.subdivisions):
        u, v = rng.choice(_edges(inst))
        inst = subdivide_edge(inst, u, v, SUBDIVIDE_TIMES)
    return inst


def materialize(workload: Workload, seed: int, directory: Path) -> list[Instance]:
    """Write the workload's instance files for `seed` into `directory`.

    The same workload and seed give byte-identical files.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.hmg"):
        stale.unlink()
    out = []
    for i, entry in enumerate(workload.entries):
        inst = build_instance(entry, rng)
        text = serialize_instance(inst)
        path = directory / f"{i:02d}-{entry.family}{'x'.join(map(str, entry.params))}.hmg"
        path.write_text(text, encoding="utf-8")
        out.append(Instance(i, entry, inst, path, text, geometry(inst.rotations)))
    return out


def round_order(workload: Workload, seed: int) -> list[int]:
    """The seeded order in which one round visits the entries."""
    order = list(range(len(workload.entries)))
    random.Random(f"{workload.name}:{seed}:order").shuffle(order)
    return order


def face_histogram(instances: list[Instance]) -> dict[int, int]:
    """Ops per round by face count F."""
    return dict(sorted(Counter(i.geo.num_faces for i in instances).items()))
