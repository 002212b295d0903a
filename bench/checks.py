"""Output checks for benchmark ops, computed from the instance alone.

None of these call the package's checkers: faces are traced from the
rotation system here and every law is re-checked on the printed output, so
a defect shared by the solver and its own verifiers still fails the op.
Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Geometry:
    n: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]  # boundary vertices in walk order
    side: tuple[int, ...]  # 0/1 two-colouring, vertex 0 on side 0

    @property
    def num_faces(self) -> int:
        return len(self.faces)


def geometry(rotations) -> Geometry:
    """Edges, traced faces and bipartition of a connected rotation system.

    The dart u->v is followed by v->w, where w comes right after u in the
    counterclockwise rotation at v.
    """
    n = len(rotations)
    slot = {(v, u): i for v, rot in enumerate(rotations) for i, u in enumerate(rot)}
    seen: set[tuple[int, int]] = set()
    faces = []
    for u0 in range(n):
        for v0 in rotations[u0]:
            u, v = u0, v0
            walk = []
            while (u, v) not in seen:
                seen.add((u, v))
                walk.append(u)
                rot = rotations[v]
                u, v = v, rot[(slot[(v, u)] + 1) % len(rot)]
            if walk:
                faces.append(tuple(walk))
    edges = tuple((u, v) for u, rot in enumerate(rotations) for v in rot if u < v)
    side = [-1] * n
    side[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in rotations[u]:
            if side[v] == -1:
                side[v] = 1 - side[u]
                queue.append(v)
    return Geometry(n, edges, tuple(faces), tuple(side))


def _bound_failure(geo: Geometry, chi: int, alpha: int) -> str | None:
    if 2 * chi > 3 * alpha:
        return f"2*chiF={2 * chi} > 3*alpha={3 * alpha}"
    if 2 * alpha < geo.n:
        return f"alpha={alpha} below n/2 on a bipartite graph"
    floor = max(geo.side.count(0), geo.side.count(1)) + 1
    if not floor <= chi <= geo.n:
        return f"chiF={chi} outside [{floor}, {geo.n}]"
    return None


def check_chif_json(geo: Geometry, stdout: str, expected_chi: int | None) -> str | None:
    """`chif FILE --json`: the witness regions form an admissible colouring."""
    try:
        p = json.loads(stdout)
        chi, alpha, regions = p["chiF"], p["alpha"], p["regions"]
        parities, explored = p["witnessParities"], p["systemsExplored"]
        region_of = {v: r for r, members in enumerate(regions) for v in members}
        if sorted(v for members in regions for v in members) != list(range(geo.n)):
            return "regions do not partition the vertices"
        for u, v in geo.edges:
            if region_of[u] == region_of[v]:
                return f"edge {u}-{v} lies inside region {region_of[u]}"
        for face in geo.faces:
            if 2 * max(Counter(region_of[v] for v in face).values()) < len(face):
                return f"no region holds half of face {list(face)}"
        if len(regions) != chi:
            return f"{len(regions)} regions but chiF={chi}"
        if len(parities) != geo.num_faces or set(parities) - {"0", "1"}:
            return f"witness parities {parities!r} do not fit {geo.num_faces} faces"
        if explored != 1 << geo.num_faces:
            return f"systemsExplored={explored}, expected 2^{geo.num_faces}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed chif output: {type(exc).__name__}: {exc}"
    if expected_chi is not None and chi != expected_chi:
        return f"chiF={chi} but the oracle gives {expected_chi}"
    return _bound_failure(geo, chi, alpha)


_CHECK_LINE = re.compile(
    r"\S+: chiF=(\d+) alpha=(\d+) bound=ok claims=ok case=(?:i|ii) "
    r"sweep=(\d+) systems ok"
)


def parse_check_line(stdout: str) -> tuple[int, int, int] | None:
    """(chiF, alpha, systems swept) from a passing `check FILE`, else None."""
    lines = stdout.splitlines()
    match = _CHECK_LINE.fullmatch(lines[0]) if len(lines) == 1 else None
    return None if match is None else tuple(int(x) for x in match.groups())


def check_check_line(geo: Geometry, stdout: str, expected_chi: int | None) -> str | None:
    """`check FILE`: one passing line whose sweep covered all 2^F systems."""
    parsed = parse_check_line(stdout)
    if parsed is None:
        return f"unexpected check output {stdout[:120]!r}"
    chi, alpha, swept = parsed
    if swept != 1 << geo.num_faces:
        return f"sweep covered {swept} systems, expected 2^{geo.num_faces}"
    if expected_chi is not None and chi != expected_chi:
        return f"chiF={chi} but the oracle gives {expected_chi}"
    return _bound_failure(geo, chi, alpha)


def parse_alpha_output(stdout: str) -> tuple[int, int, list[int]]:
    """(alpha, matching size, cover) from `alpha FILE`."""
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines()[1:])
    return int(fields["alpha"]), int(fields["matching size"]), json.loads(fields["cover"])


def check_alpha_output(geo: Geometry, stdout: str) -> str | None:
    """`alpha FILE`: the cover is a vertex cover and |cover| = matching = n - alpha."""
    try:
        alpha, size, cover = parse_alpha_output(stdout)
    except (ValueError, KeyError) as exc:
        return f"malformed alpha output: {type(exc).__name__}: {exc}"
    in_cover = set(cover)
    if len(in_cover) != len(cover) or not in_cover <= set(range(geo.n)):
        return "cover has repeated or out-of-range vertices"
    for u, v in geo.edges:
        if u not in in_cover and v not in in_cover:
            return f"edge {u}-{v} is not covered"
    if not len(cover) == size == geo.n - alpha:
        return f"|cover|={len(cover)}, matching={size}, n-alpha={geo.n - alpha}"
    return None
