"""Independence number of the (always bipartite) input graph.

The fast path is a maximum matching plus the matching = cover duality of
bipartite graphs, giving alpha = n - matching size together with a
checkable cover certificate.  The matching is seeded greedily the
Karp-Sipser way, which on grids, ladders, prisms and cycles already leaves
it maximum.  Then one alternating search runs per black vertex the seeding
left free: it either augments, or fails and keeps what it reached, which
no later search enters again.  The failed searches together reach what the
Konig cover is read from; by Dulmage-Mendelsohn that cover is the same for
every maximum matching, so the seeding changes no result.  A subset brute
force serves as cross-check.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError, SizeCapExceeded
from .plane_graph import BLACK, PlaneGraph


class MatchingResult(NamedTuple):
    n: int
    # a maximum matching, one (black, white) pair per matched black vertex
    # in vertex order; which one is found is not part of the result
    edges: tuple[tuple[int, int], ...]
    size: int
    cover: tuple[int, ...]  # minimum vertex cover, |cover| == size

    @property
    def alpha(self) -> int:
        """Konig: in a bipartite graph, alpha is n minus the matching size."""
        return self.n - self.size


def _search(
    rotations: tuple[tuple[int, ...], ...],
    match: list[int],
    root: int,
    reached: set[int],
) -> None:
    """Grow alternating paths breadth-first from the free black `root`.

    Vertices in `reached` are skipped.  On reaching a free white vertex,
    flip the path back through the parent pointers and stop.  Otherwise
    the tree is Hungarian: no later augmentation enters it, so all it
    reached joins `reached` for good.
    """
    parent: dict[int, int] = {}  # white vertex -> the black it was found from
    tree = [root]
    for u in tree:
        for v in rotations[u]:
            if v in parent or v in reached:
                continue
            parent[v] = u
            if match[v] == -1:
                while v != -1:
                    u = parent[v]
                    match[v], match[u], v = u, v, match[u]
                return
            tree.append(match[v])
    reached.update(tree, parent)


def _greedy_matching(rotations: tuple[tuple[int, ...], ...]) -> list[int]:
    """A maximal matching, as a partner (or -1) per vertex, by Karp-Sipser.

    While some unmatched vertex has exactly one unmatched neighbour, match
    the two: some maximum matching contains that edge.  Otherwise match the
    lowest unmatched vertex that has an unmatched neighbour to the first
    such neighbour in rotation order.  live[v] counts v's unmatched
    neighbours; each match lowers it along both endpoints' rotations, so
    the work is linear in the number of darts.
    """
    n = len(rotations)
    match = [-1] * n
    live = list(map(len, rotations))
    ones = [v for v, d in enumerate(live) if d == 1]
    low = 0
    while True:
        if ones:
            v = ones.pop()
            if match[v] != -1 or live[v] != 1:
                continue
        else:
            while low < n and (match[low] != -1 or not live[low]):
                low += 1
            if low == n:
                return match
            v = low
        for u in rotations[v]:
            if match[u] == -1:
                break
        match[v] = u
        match[u] = v
        for x in v, u:
            for w in rotations[x]:
                if match[w] == -1:
                    live[w] -= 1
                    if live[w] == 1:
                        ones.append(w)


def maximum_matching(g: PlaneGraph) -> MatchingResult:
    """Maximum matching with a minimum-cover witness.

    _greedy_matching seeds the matching; one _search then starts at each
    BLACK vertex of g.side (the 2-colouring build_plane_graph stored) that
    the seeding left unmatched.  A failed search keeps its reach, and no
    later search enters it again; the cover is the black vertices outside
    that reach plus the white ones in it.  The cover, and so alpha, do not
    depend on which maximum matching this finds; `edges` is one of them.
    """
    left = [v for v, s in enumerate(g.side) if s == BLACK]
    match = _greedy_matching(g.rotations)
    reached: set[int] = set()
    for u in left:
        if match[u] == -1:
            _search(g.rotations, match, u, reached)
    cover = [v for v in range(g.n) if (v in reached) != (g.side[v] == BLACK)]

    pairs = tuple((u, match[u]) for u in left if match[u] != -1)
    size = len(pairs)
    if len(cover) != size:
        raise InternalInvariantError(
            f"cover size {len(cover)} != matching size {size}"
        )
    cover_set = set(cover)
    for u, v in g.edges:
        if u not in cover_set and v not in cover_set:
            raise InternalInvariantError(f"edge {u}-{v} not covered")
    matched_vertices = [x for uv in pairs for x in uv]
    # 2 * size distinct matched vertices also give 2 * alpha >= n.
    if len(set(matched_vertices)) != 2 * size:
        raise InternalInvariantError("matching edges are not disjoint")
    for u, v in pairs:
        if v not in g.rotations[u]:
            raise InternalInvariantError(f"matched pair {u}-{v} is not an edge")
    return MatchingResult(n=g.n, edges=pairs, size=size, cover=tuple(cover))


def alpha_bruteforce(g: PlaneGraph, vertex_cap: int = 24) -> int:
    """Maximum independent set by subset enumeration with adjacency pruning."""
    if g.n > vertex_cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds brute-force cap {vertex_cap}")
    closed = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u

    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if candidates == 0 or size + candidates.bit_count() <= best:
            return
        v = (candidates & -candidates).bit_length() - 1
        grow(candidates & ~closed[v], size + 1)
        grow(candidates & ~(1 << v), size)

    grow((1 << g.n) - 1, 0)
    return best
