"""Rotation-system plane graphs with traced faces and validation.

A graph drawn in the plane is encoded combinatorially: every vertex carries
the counterclockwise cyclic order of its neighbours.  Faces are the orbits
of the next-dart rule ``next(u -> v) = (v -> w)`` where ``w`` immediately
follows ``u`` in the rotation at ``v``.  Euler's formula then certifies
that the rotation system really describes a sphere embedding, and
`build_plane_graph` validates the faces it has just traced: every
`PlaneGraph` has even polygonal faces, each a simple cycle of even length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import eq

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


@dataclass(frozen=True)
class Face:
    """One traced face; the walk starts at its smallest (tail, head) dart."""

    id: int
    darts: tuple[int, ...]
    vertices: tuple[int, ...]  # dart tails, in walk order

    @property
    def degree(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class PlaneGraph:
    """Immutable embedded graph; all derived links are precomputed tuples.

    Its fields agree with one another only as build_plane_graph makes them.
    """

    n: int
    rotations: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # canonical (u, v) with u < v, sorted
    faces: tuple[Face, ...]
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
        return len(self.faces)

    def degree(self, v: int) -> int:
        return len(self.rotations[v])


@dataclass(frozen=True)
class FaceDefect:
    face: int
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
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
    # Dart d is tails[d] -> heads[d]; start[u] + i is u -> rot[u][i].  The
    # dict maps the int key u * n + v of u -> v to its dart id, so twin[d],
    # the dart v -> u, is one lookup of v * n + u.
    start = list(accumulate(map(len, rot), initial=0))
    tails = [u for u, r in enumerate(rot) for _ in r]
    heads = [v for r in rot for v in r]
    dart = {u * n + v: d for d, (u, v) in enumerate(zip(tails, heads))}
    twin = list(map(dart.get, [v * n + u for u, v in zip(tails, heads)]))
    # Whole-array tests; any failure reruns the per-vertex scan, which
    # raises the first defect in vertex order.
    if (
        n <= 0
        or len(rot) != n
        or (heads and (min(heads) < 0 or max(heads) >= n))
        or any(map(eq, tails, heads))
        or len(dart) != len(heads)
        or None in twin
    ):
        _check_rotations(n, rot)
    side = compute_bipartition(n, rot)  # also the connectivity check

    # The dart after u -> v is v -> w, w following u in rot[v]: the slot
    # after twin[d] among v's slots, wrapping round at the last one.
    succ = list(range(1, len(heads) + 1))
    for s, e in zip(start, start[1:]):
        if e > s:
            succ[e - 1] = s
    nxt = list(map(succ.__getitem__, twin))

    # Visiting darts in key order, which is (tail, head) order, starts each
    # face at its smallest dart, orders face ids canonically and meets the
    # edges (u, v), u < v, in sorted order.
    face_of = [-1] * len(heads)
    dart_edge = [-1] * len(heads)
    edges: list[tuple[int, int]] = []
    faces: list[Face] = []
    for key in sorted(dart):
        d0 = dart[key]
        u, v = divmod(key, n)
        if u < v:
            dart_edge[d0] = dart_edge[twin[d0]] = len(edges)
            edges.append((u, v))
        if face_of[d0] != -1:
            continue
        walk = [d0]
        d = nxt[d0]
        while d != d0:
            walk.append(d)
            d = nxt[d]
        f = len(faces)
        for d in walk:
            face_of[d] = f
        faces.append(Face(f, tuple(walk), tuple(map(tails.__getitem__, walk))))

    if n - len(edges) + len(faces) != 2:
        raise EulerViolation(
            f"V - E + F = {n} - {len(edges)} + {len(faces)} != 2"
        )

    g = PlaneGraph(
        n=n,
        rotations=rot,
        edges=tuple(edges),
        faces=tuple(faces),
        dart_tail=tuple(tails),
        dart_head=tuple(heads),
        dart_next=tuple(nxt),
        dart_face=tuple(face_of),
        dart_edge=tuple(dart_edge),
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
    for f in g.faces:
        if f.degree < 3 or len(set(f.vertices)) != f.degree:
            if f.degree < 3:
                detail = f"walk of length {f.degree} is not a cycle"
            else:
                repeated = [v for v, c in Counter(f.vertices).items() if c > 1]
                detail = f"vertex {min(repeated)} appears more than once"
            defects.append(FaceDefect(f.id, FACE_NOT_CYCLE, detail))
        elif f.degree % 2 != 0:
            defects.append(FaceDefect(f.id, ODD_FACE, f"degree {f.degree} is odd"))
    return ValidationReport(defects=tuple(defects))
