"""Census: every even-faced plane graph up to n vertices, checked exhaustively.

    PYTHONPATH=src python tests/census.py ORACLE_N SWEEP_N

holds every map with n <= SWEEP_N against the law sweep and every map with
n <= ORACLE_N against the partition-scan oracle (see check_map), pins the
number of maps of each size (COUNTS) and exits 1 on the first mismatch.
tests/test_census.py runs the same checks for n <= 9.

Every 2-connected bipartite plane graph has an ear decomposition from an
even cycle whose intermediate graphs are 2-connected and bipartite, so
their faces are even simple cycles and each ear lies inside one face.  So
the census grows maps from C4, C6, ... by adding a path inside a face
(corpus.add_path), and keeps one map per class of the least BFS code from
every dart in both orientations (Weinberg 1966): maps are counted on the
sphere, up to reflection.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from corpus import add_path, face_vertices
from halfmono.independence import alpha_bruteforce, maximum_matching
from halfmono.instance_io import InstanceFile, build, cycle_instance
from halfmono.oracle import chi_f_bruteforce
from halfmono.search import exact_chi_f, sweep_dividing_systems

# Maps with n vertices, for n = 4, 5, ...
COUNTS = {4: 1, 5: 1, 6: 4, 7: 6, 8: 30, 9: 92, 10: 521, 11: 2781}


def _bfs_code(rotations, root: int, first: int) -> tuple[int, ...]:
    """The rotations relabelled in breadth-first order from the dart
    (root, first): each vertex lists its neighbours' labels in rotation
    order from the one it was reached from (from `first` at the root),
    ended by -1."""
    label = [-1] * len(rotations)
    label[root] = 0
    order, came_from = [root], [first]
    code: list[int] = []
    k = 0
    while k < len(order):
        rot = rotations[order[k]]
        i = rot.index(came_from[k])
        for y in rot[i:] + rot[:i]:
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
                came_from.append(order[k])
            code.append(label[y])
        code.append(-1)
        k += 1
    return tuple(code)


def canonical_code(rotations) -> tuple[int, ...]:
    """The least BFS code over every dart and both orientations: two maps
    share it exactly when they are the same map up to reflection."""
    mirrored = tuple(rot[::-1] for rot in rotations)
    return min(
        _bfs_code(rots, u, v)
        for rots in (rotations, mirrored)
        for u, rot in enumerate(rots)
        for v in rot
    )


def _children(inst: InstanceFile, room: int):
    """inst with one path of l >= 1 edges and at most `room` fresh vertices
    added inside a face, between boundary vertices at walk distance d with
    d + l even, both new faces of degree >= 4 and no double edge."""
    for walk in face_vertices(build(inst)):
        size = len(walk)
        for i in range(size):
            for j in range(i + 1, size):
                d = j - i
                for length in range(2 - d % 2, room + 2, 2):
                    if min(d, size - d) + length < 4:
                        continue
                    if length == 1 and walk[j] in inst.rotations[walk[i]]:
                        continue
                    yield add_path(inst, walk, i, j, length)


def census(max_n: int) -> list[InstanceFile]:
    """One map per class with 4 <= n <= max_n, by n and then by code."""
    seen: dict[tuple[int, ...], InstanceFile] = {}
    todo = []
    for length in range(4, max_n + 1, 2):
        inst = cycle_instance(length)
        seen[canonical_code(inst.rotations)] = inst
        todo.append(inst)
    while todo:
        inst = todo.pop()
        for child in _children(inst, max_n - inst.n):
            code = canonical_code(child.rotations)
            if code not in seen:
                seen[code] = child
                todo.append(child)
    ordered = sorted(seen.items(), key=lambda item: (item[1].n, item[0]))
    counts: dict[int, int] = {}
    maps = []
    for _, inst in ordered:
        counts[inst.n] = counts.get(inst.n, 0) + 1
        maps.append(InstanceFile(f"census{inst.n}-{counts[inst.n]}", inst.n, inst.rotations))
    return maps


def check_map(inst: InstanceFile, sweep: bool, oracle: bool) -> None:
    """Hold the pruned search against the law sweep (the whole certified
    result) when `sweep`, and against the oracle when `oracle`; hold the
    matching's alpha against subset enumeration always."""
    g = build(inst)
    res = exact_chi_f(g)
    if sweep:
        assert sweep_dividing_systems(g) == res, inst.name
    if oracle:
        assert chi_f_bruteforce(g).chi_f == res.chi_f, inst.name
    assert maximum_matching(g).alpha == alpha_bruteforce(g), inst.name


def main(argv: list[str]) -> int:
    oracle_n, sweep_n = map(int, argv)
    t0 = time.perf_counter()
    maps = census(max(oracle_n, sweep_n))
    print(f"census to n = {max(oracle_n, sweep_n)}: {len(maps)} maps "
          f"in {time.perf_counter() - t0:.1f} s")
    counts = dict(sorted(Counter(inst.n for inst in maps).items()))
    for n, count in counts.items():
        if n in COUNTS and count != COUNTS[n]:
            print(f"n = {n}: {count} maps, expected {COUNTS[n]}", file=sys.stderr)
            return 1
    t0 = time.perf_counter()
    for inst in maps:
        check_map(inst, sweep=inst.n <= sweep_n, oracle=inst.n <= oracle_n)
    print(f"counts {counts}; laws held against the sweep to n = {sweep_n} and "
          f"the oracle to n = {oracle_n} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
