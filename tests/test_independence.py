import random

import pytest

from corpus import (
    corpus_graphs,
    corpus_instances,
    cycle_graph,
    fan_instance,
    grid_graph,
    k2m_instance,
    prism_graph,
    random_rich_instance,
    random_split_graphs,
    random_split_instance,
    random_subdivided_graphs,
    random_subdivided_instance,
    relabelled_instance,
)
from halfmono import independence
from halfmono.errors import InternalInvariantError, SizeCapExceeded
from halfmono.independence import alpha_bruteforce, maximum_matching
from halfmono.instance_io import (
    build,
    cycle_instance,
    grid_instance,
    prism_instance,
)
from halfmono.plane_graph import BLACK

CORPUS = corpus_graphs()


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(4), 2),
        (grid_graph(2, 3), 3),
        (prism_graph(4), 4),
    ],
    ids=["c4", "grid2x3", "cube"],
)
def test_matching_sizes(g, expected):
    result = maximum_matching(g)
    assert result.size == expected


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(4), 2),
        (cycle_graph(6), 3),
        (cycle_graph(8), 4),
        (grid_graph(2, 3), 3),
        (prism_graph(4), 4),
    ],
    ids=["c4", "c6", "c8", "grid2x3", "cube"],
)
def test_alpha_values(g, expected):
    assert maximum_matching(g).alpha == expected
    assert alpha_bruteforce(g) == expected


@pytest.mark.parametrize("name,g", CORPUS)
def test_certificates(name, g):
    result = maximum_matching(g)
    cover = set(result.cover)
    assert len(cover) == result.size
    assert all(u in cover or v in cover for u, v in g.edges)
    matched = [x for uv in result.edges for x in uv]
    assert len(set(matched)) == 2 * result.size
    # complement of the cover is an independent witness of size alpha
    independent = set(range(g.n)) - cover
    assert len(independent) == g.n - result.size
    assert all(not (u in independent and v in independent) for u, v in g.edges)


def _black_heavy_instances():
    """Instances whose black side is the larger one, so that free black
    vertices stay after any maximum matching: fans, and K_{2,m} renamed so
    that vertex 0, and so the black side, is on the m-side."""
    for length in range(2, 9):
        yield fan_instance(length)
    for m in (3, 8, 22):
        yield relabelled_instance(k2m_instance(m), [2, 1, 0, *range(3, m + 2)])


BLACK_HEAVY = [(inst.name, build(inst)) for inst in _black_heavy_instances()]


@pytest.mark.parametrize(
    "name,g",
    CORPUS + random_subdivided_graphs() + random_split_graphs() + BLACK_HEAVY,
)
def test_konig_matches_bruteforce_and_half_bound(name, g):
    alpha = maximum_matching(g).alpha
    assert alpha == alpha_bruteforce(g)
    assert 2 * alpha >= g.n


def test_bruteforce_cap():
    with pytest.raises(SizeCapExceeded):
        alpha_bruteforce(cycle_graph(6), vertex_cap=4)


def _recursive_matching(g, b) -> list[int]:
    """Reference: a depth-first augmenting-path search from every black
    vertex of `b`, from the empty matching, written recursively."""
    match = [-1] * g.n

    def augment(u: int, seen: set[int]) -> bool:
        for v in g.rotations[u]:
            if v in seen:
                continue
            seen.add(v)
            if match[v] == -1 or augment(match[v], seen):
                match[v] = u
                match[u] = v
                return True
        return False

    for u in range(g.n):
        if b[u] == BLACK:
            augment(u, set())
    return match


def _konig(g, match) -> tuple[int, tuple[int, ...]]:
    """Size and Konig cover of a maximum matching given as partners: the
    black vertices that alternating paths from the unmatched black vertices
    miss, plus the white vertices they reach."""
    black = [u for u in range(g.n) if g.side[u] == BLACK]
    reached = {u for u in black if match[u] == -1}
    stack = list(reached)
    while stack:
        for v in g.rotations[stack.pop()]:
            if v not in reached:
                reached.add(v)
                if match[v] != -1 and match[v] not in reached:
                    reached.add(match[v])
                    stack.append(match[v])
    cover = tuple(v for v in range(g.n) if (v in reached) != (g.side[v] == BLACK))
    return sum(match[u] != -1 for u in black), cover


MATCHING_GRAPHS = [g for _, g in CORPUS] + [
    build(random_subdivided_instance(seed, 40)) for seed in range(60)
]


def test_matching_equals_recursive_search():
    # `edges` is one maximum matching, not a given one; size and cover are
    # the same for all of them
    for g in MATCHING_GRAPHS:
        result = maximum_matching(g)
        assert all(g.side[u] == BLACK and v in g.rotations[u] for u, v in result.edges)
        assert (result.size, result.cover) == _konig(g, _recursive_matching(g, g.side))


def _seeding_instances():
    yield from corpus_instances()
    for seed in range(600):
        yield random_subdivided_instance(seed, 40)
    for seed in range(400):
        yield random_split_instance(seed)
    for seed in range(800):
        yield random_rich_instance(seed)
    for m in range(2, 60):
        yield k2m_instance(m)
    for rows in range(2, 13):
        for cols in range(2, 13):
            yield grid_instance(rows, cols)
    for length in range(13, 100):
        yield grid_instance(2, length)
    for m in range(4, 102, 2):
        yield prism_instance(m)
    yield from _black_heavy_instances()
    for length in range(9, 40):
        yield fan_instance(length)


def test_seeded_cover_equals_unseeded_cover(monkeypatch):
    # seeded, and from an empty matching, where every black vertex starts
    # a search; the reference shares no code with the package
    count = 0
    for inst in _seeding_instances():
        g = build(inst)
        size, cover = _konig(g, _recursive_matching(g, g.side))
        expected = (size, cover, g.n - size)
        result = maximum_matching(g)
        assert (result.size, result.cover, result.alpha) == expected, inst.name
        with monkeypatch.context() as m:
            m.setattr(independence, "_greedy_matching", lambda r: [-1] * len(r))
            result = maximum_matching(g)
        assert (result.size, result.cover, result.alpha) == expected, inst.name
        count += 1
    assert count >= 2000


def _count_searches(monkeypatch, g) -> int:
    """Alternating searches that maximum_matching(g) starts."""
    calls = []
    search = independence._search

    def counted(rotations, match, root, reached):
        calls.append(root)
        return search(rotations, match, root, reached)

    monkeypatch.setattr(independence, "_search", counted)
    maximum_matching(g)
    return len(calls)


def _shuffled_cycle(length: int):
    """The cycle with its vertices renamed at random, vertex 0 kept."""
    perm = list(range(1, length))
    random.Random(0).shuffle(perm)
    return relabelled_instance(cycle_instance(length), [0, *perm])


@pytest.mark.parametrize(
    "inst",
    [grid_instance(200, 200), grid_instance(2, 3000), _shuffled_cycle(10000)],
    ids=["grid200x200", "ladder2x3000", "shuffled-cycle10000"],
)
def test_seeding_leaves_few_augmenting_searches(monkeypatch, inst):
    # a count, not a clock: without the seeding every black vertex starts
    # one search (20,000, 3,000 and 5,000), which is quadratic on grids.
    # Matching each lowest free vertex to its first free neighbour alone
    # leaves 633 searches on the shuffled cycle; the degree-1 rule, none.
    g = build(inst)
    assert _count_searches(monkeypatch, g) <= g.side.count(BLACK) // 100
    assert maximum_matching(g).alpha == g.n // 2


def test_augmenting_step_is_needed_and_certified(monkeypatch):
    # the seeding leaves this instance's matching short; with the search's
    # flips made on a copy of the matching, so thrown away, the cover
    # certificate catches it
    search = independence._search
    g = build(random_rich_instance(7))
    assert _count_searches(monkeypatch, g) > 0
    monkeypatch.setattr(
        independence,
        "_search",
        lambda rotations, match, root, reached: search(
            rotations, list(match), root, reached
        ),
    )
    with pytest.raises(InternalInvariantError, match="^cover size .* != matching size"):
        maximum_matching(g)


class _CountedRotations:
    """Rotation lists that count how many times they are read."""

    def __init__(self, rotations):
        self.rotations = rotations
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return self.rotations[v]


def test_searches_read_each_rotation_list_about_once(monkeypatch):
    # a count, not a clock: fan(2000) leaves 1,999 black vertices free under
    # every maximum matching.  A search per free vertex that walked again
    # through the closed trees of the searches before it would read about
    # 4 million rotation lists; skipping what they reached reads at most 2n.
    g = build(fan_instance(2000))
    rotations = _CountedRotations(g.rotations)
    search = independence._search
    monkeypatch.setattr(
        independence,
        "_search",
        lambda _, match, root, reached: search(rotations, match, root, reached),
    )
    assert maximum_matching(g).alpha == 3999
    assert 0 < rotations.reads <= 2 * g.n


def test_cover_size_is_certified(monkeypatch):
    # the seeding matches black 0 to the vertex opposite it on the 6-cycle,
    # a non-neighbour, and points every white vertex at 0: the search from
    # 2 then fails and reaches every vertex but 4, and the one from 4 adds 4
    monkeypatch.setattr(
        independence, "_greedy_matching", lambda rotations: [3, 0, -1, 0, -1, 0]
    )
    g = cycle_graph(6)
    with pytest.raises(InternalInvariantError, match="^cover size 3 != matching size 1$"):
        maximum_matching(g)


def test_matching_disjointness_is_certified(monkeypatch):
    # the seeding matches both black vertices of the 4-cycle to white 1
    monkeypatch.setattr(
        independence, "_greedy_matching", lambda rotations: [1, 2, 1, -1]
    )
    g = cycle_graph(4)
    with pytest.raises(InternalInvariantError, match="^matching edges are not disjoint$"):
        maximum_matching(g)


def test_matched_pairs_are_certified_edges(monkeypatch):
    # the seeding matches 0 to the vertex opposite it on the 6-cycle; the
    # cover {0, 2, 4} still has the matching's size and covers every edge
    monkeypatch.setattr(
        independence, "_greedy_matching", lambda rotations: [3, 2, 1, 0, 5, 4]
    )
    g = cycle_graph(6)
    with pytest.raises(InternalInvariantError, match="^matched pair 0-3 is not an edge$"):
        maximum_matching(g)


def test_covered_edges_are_certified(monkeypatch):
    # fan(2) is K_{2,3}; the seeding leaves black 2 free.  A search that
    # fails and reaches only its root makes the cover the other two black
    # vertices, 0 and 4: the matching's size, but the edges 1-2 and 2-3 at
    # the root are missed
    monkeypatch.setattr(
        independence,
        "_search",
        lambda rotations, match, root, reached: reached.add(root),
    )
    g = build(fan_instance(2))
    with pytest.raises(InternalInvariantError, match="^edge 1-2 not covered$"):
        maximum_matching(g)
