"""Rotation-system plane graphs with traced faces and validation.

A graph drawn in the plane is encoded combinatorially: every vertex carries
the counterclockwise cyclic order of its neighbours.  Faces are the orbits
of the next-dart rule ``next(u -> v) = (v -> w)`` where ``w`` immediately
follows ``u`` in the rotation at ``v``.  Euler's formula then certifies
that the rotation system really describes a sphere embedding, and
`build_plane_graph` validates the faces it has just traced: every
`PlaneGraph` has even polygonal faces, each a simple cycle of even length.

Darts are numbered along the face walks: face f is the darts
face_start[f] .. face_start[f + 1] - 1 in walk order, from its smallest
(tail, head) dart, and its boundary vertices are their tails.  Dart d is
also medial edge d (see medial).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import eq
from typing import NamedTuple

from .errors import (
    EulerViolation,
    FaceStructureError,
    InconsistentRotation,
    NotConnected,
    OddCycleFound,
)

BLACK = 0
WHITE = 1

FACE_NOT_CYCLE = "face_not_cycle"
ODD_FACE = "odd_face"


class PlaneGraph(NamedTuple):
    """Immutable embedded graph; all derived links are precomputed tuples.

    Its fields agree with one another only as build_plane_graph makes them.
    """

    n: int
    rotations: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # canonical (u, v) with u < v, sorted
    face_start: tuple[int, ...]  # F + 1 offsets: face f's darts start at [f]
    dart_tail: tuple[int, ...]
    dart_head: tuple[int, ...]
    dart_next: tuple[int, ...]
    dart_face: tuple[int, ...]
    dart_edge: tuple[int, ...]
    side: tuple[int, ...]  # BLACK or WHITE per vertex, vertex 0 black
    coords: tuple[tuple[float, float], ...] | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.face_start) - 1

    def degree(self, v: int) -> int:
        return len(self.rotations[v])


class FaceDefect(NamedTuple):
    face: int
    kind: str
    detail: str


class ValidationReport(NamedTuple):
    defects: tuple[FaceDefect, ...]

    @property
    def ok(self) -> bool:
        return not self.defects

    def __str__(self) -> str:
        if self.ok:
            return "valid: every face is a simple cycle of even length"
        lines = [f"face {d.face}: {d.kind} ({d.detail})" for d in self.defects]
        return "\n".join(lines)


def _check_rotations(n: int, rotations: tuple[tuple[int, ...], ...]) -> None:
    if n <= 0:
        raise InconsistentRotation("vertex count must be positive")
    if len(rotations) != n:
        raise InconsistentRotation(
            f"expected {n} rotation lists, got {len(rotations)}"
        )
    neighbor_sets: list[set[int]] = []
    for u, neigh in enumerate(rotations):
        seen: set[int] = set()
        for v in neigh:
            if not 0 <= v < n:
                raise InconsistentRotation(
                    f"vertex {u} lists out-of-range neighbour {v}"
                )
            if v == u:
                raise InconsistentRotation(f"vertex {u} lists itself (loop)")
            if v in seen:
                raise InconsistentRotation(f"vertex {u} lists neighbour {v} twice")
            seen.add(v)
        neighbor_sets.append(seen)
    for u in range(n):
        for v in neighbor_sets[u]:
            if u not in neighbor_sets[v]:
                raise InconsistentRotation(
                    f"vertex {u} lists {v} but {v} does not list {u}"
                )


def compute_bipartition(
    n: int, rotations: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """One side, BLACK or WHITE, per vertex: BFS from vertex 0, which is
    black, colours every vertex opposite the one that discovers it.

    Raises NotConnected when the BFS does not reach every vertex.
    """
    side = [-1] * n
    side[0] = BLACK
    order = [0]  # BFS order; the loop also visits the vertices it appends
    for u in order:
        other = WHITE if side[u] == BLACK else BLACK
        for v in rotations[u]:
            if side[v] == -1:
                side[v] = other
                order.append(v)
    if len(order) != n:
        raise NotConnected(f"only {len(order)} of {n} vertices reachable from 0")
    return tuple(side)


def _successors(start: list[int]) -> list[int]:
    """i + 1 for every index i, but the last index of each block
    start[k] .. start[k + 1] - 1 maps to the block's first."""
    succ = list(range(1, start[-1] + 1))
    for s, e in zip(start, start[1:]):
        if e > s:
            succ[e - 1] = s
    return succ


def build_plane_graph(
    n: int,
    rotations,
    coords=None,
) -> PlaneGraph:
    """Build the dart structure, trace all faces and validate them.

    Args:
        n: number of vertices, labelled 0..n-1.
        rotations: per vertex, its neighbours in counterclockwise order.
        coords: optional per-vertex (x, y) positions, only used for drawing;
            kept as given, number types included.

    Raises:
        InconsistentRotation: ids out of range, loops, repeats or asymmetry.
        NotConnected: the underlying graph is not connected.
        EulerViolation: the traced embedding does not satisfy V - E + F = 2,
            which signals a non-planar or multiply-embedded input.
        FaceStructureError: some face is not a simple cycle of even length;
            carries the validate_even_polygonal report.
        OddCycleFound: an edge joins two same-side vertices; checked last.
    """
    rot = tuple(map(tuple, rotations))  # tuples pass through uncopied
    # Slot s is tails[s] -> heads[s]; start[u] + i is u -> rot[u][i].  The
    # dict maps the int key u * n + v of u -> v to its slot, so twin[s],
    # the slot of v -> u, is one lookup of v * n + u.
    start = list(accumulate(map(len, rot), initial=0))
    tails = [u for u, r in enumerate(rot) for _ in r]
    heads = [v for r in rot for v in r]
    slot = {u * n + v: s for s, (u, v) in enumerate(zip(tails, heads))}
    twin = list(map(slot.get, [v * n + u for u, v in zip(tails, heads)]))
    # Whole-array tests; any failure reruns the per-vertex scan, which
    # raises the first defect in vertex order.
    if (
        n <= 0
        or len(rot) != n
        or (heads and (min(heads) < 0 or max(heads) >= n))
        or any(map(eq, tails, heads))
        or len(slot) != len(heads)
        or None in twin
    ):
        _check_rotations(n, rot)
    # The slots in key order, which is (tail, head) order; the key dict
    # is dead from here on.
    order = list(map(slot.__getitem__, sorted(slot)))
    del slot
    side = compute_bipartition(n, rot)  # also the connectivity check

    # The dart after u -> v is v -> w, w following u in rot[v]: the slot
    # after twin[s] among v's slots, wrapping round at the last one.
    nxt = list(map(_successors(start).__getitem__, twin))
    del start

    # Visiting the slots in key order starts each face at its smallest
    # dart, orders face ids canonically and meets the edges (u, v), u < v,
    # in sorted order.  Dart i is slot walk[i]: the face walks, one after
    # another.
    walk: list[int] = []
    face_start = [0]
    face_of = [-1] * len(heads)
    slot_edge = [-1] * len(heads)
    edges: list[tuple[int, int]] = []
    for s0 in order:
        u, v = tails[s0], heads[s0]
        if u < v:
            slot_edge[s0] = slot_edge[twin[s0]] = len(edges)
            edges.append((u, v))
        if face_of[s0] != -1:
            continue
        f, s = len(face_start) - 1, s0
        while face_of[s] == -1:  # nxt is a permutation: the walk closes at s0
            face_of[s] = f
            walk.append(s)
            s = nxt[s]
        face_start.append(len(walk))
    del twin, nxt, order

    nf = len(face_start) - 1
    if n - len(edges) + nf != 2:
        raise EulerViolation(f"V - E + F = {n} - {len(edges)} + {nf} != 2")

    # Each dart table is built in turn, and the slot-indexed list it reads
    # is freed right after.
    dart_tail = tuple(map(tails.__getitem__, walk))
    del tails
    dart_head = tuple(map(heads.__getitem__, walk))
    del heads
    dart_face = tuple(map(face_of.__getitem__, walk))
    del face_of
    dart_edge = tuple(map(slot_edge.__getitem__, walk))
    del slot_edge, walk
    g = PlaneGraph(
        n=n,
        rotations=rot,
        edges=tuple(edges),
        face_start=tuple(face_start),
        dart_tail=dart_tail,
        dart_head=dart_head,
        dart_next=tuple(_successors(face_start)),
        dart_face=dart_face,
        dart_edge=dart_edge,
        side=side,
        coords=tuple(map(tuple, coords)) if coords else None,
    )
    report = validate_even_polygonal(g)
    if not report.ok:
        raise FaceStructureError(report)
    for u, v in g.edges:  # even faces imply this; checked, not assumed
        if side[u] == side[v]:
            raise OddCycleFound(f"edge {u}-{v} joins two same-side vertices")
    return g


def validate_even_polygonal(g: PlaneGraph) -> ValidationReport:
    """Check that every face boundary is a simple cycle of even length."""
    defects: list[FaceDefect] = []
    fs = g.face_start
    for f, (s, e) in enumerate(zip(fs, fs[1:])):
        degree, vertices = e - s, g.dart_tail[s:e]
        if degree < 3 or len(set(vertices)) != degree:
            if degree < 3:
                detail = f"walk of length {degree} is not a cycle"
            else:
                repeated = [v for v, c in Counter(vertices).items() if c > 1]
                detail = f"vertex {min(repeated)} appears more than once"
            defects.append(FaceDefect(f, FACE_NOT_CYCLE, detail))
        elif degree % 2 != 0:
            defects.append(FaceDefect(f, ODD_FACE, f"degree {degree} is odd"))
    return ValidationReport(defects=tuple(defects))
