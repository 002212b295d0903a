"""Brute-force maximum color count by scanning all vertex partitions.

This is the anti-circularity instrument of the test suite: it tests each
partition with the admissibility checks `coloring.check_proper` and
`coloring.check_half_monochromatic`, which the solver never calls (it
checks its regions' laws instead), and never touches the medial/region
machinery, so agreeing answers from here and from the region-based solver
confirm each other through independent search paths.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .coloring import Coloring, check_half_monochromatic, check_proper
from .errors import InternalInvariantError, SizeCapExceeded
from .plane_graph import PlaneGraph


class OracleResult(NamedTuple):
    chi_f: int
    witness: Coloring
    partitions_scanned: int


def _set_partitions(n: int) -> Iterator[list[int]]:
    """All set partitions of 0..n-1 as restricted-growth strings, ascending.

    Yields one mutable list reused across iterations; callers must copy
    anything they keep.
    """
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        grown = b[i] + 1 if a[i] == b[i] else b[i]
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = grown


def chi_f_bruteforce(g: PlaneGraph, vertex_cap: int = 12) -> OracleResult:
    """Scan every partition of the vertices and keep the best admissible one.

    Partitions stand for colorings up to renaming, so nothing is lost by
    enumerating them instead of raw colorings.  The witness is the first
    maximizer in restricted-growth order.
    """
    if g.n > vertex_cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds oracle cap {vertex_cap}")

    best_k = 0
    best: list[int] | None = None
    scanned = 0
    for labels in _set_partitions(g.n):
        scanned += 1
        if not check_proper(g, labels):
            continue
        if not check_half_monochromatic(g, labels):
            continue
        k = max(labels) + 1
        if k > best_k:
            best_k = k
            best = list(labels)

    if best is None:
        raise InternalInvariantError(
            "no admissible partition found on a validated instance"
        )
    witness = Coloring(tuple(best), best_k)
    if not (check_proper(g, best) and check_half_monochromatic(g, best)):
        raise InternalInvariantError("oracle witness failed its own checks")
    return OracleResult(chi_f=best_k, witness=witness, partitions_scanned=scanned)
