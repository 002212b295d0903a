import pytest

from corpus import (
    corpus_graphs,
    cycle_graph,
    grid_graph,
    prism_graph,
    random_split_graphs,
    random_subdivided_graphs,
    random_subdivided_instance,
)
from halfmono import independence
from halfmono.errors import InternalInvariantError, SizeCapExceeded
from halfmono.independence import alpha_bruteforce, maximum_matching
from halfmono.instance_io import build
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


@pytest.mark.parametrize(
    "name,g", CORPUS + random_subdivided_graphs() + random_split_graphs()
)
def test_konig_matches_bruteforce_and_half_bound(name, g):
    alpha = maximum_matching(g).alpha
    assert alpha == alpha_bruteforce(g)
    assert 2 * alpha >= g.n


def test_bruteforce_cap():
    with pytest.raises(SizeCapExceeded):
        alpha_bruteforce(cycle_graph(6), vertex_cap=4)


def _recursive_matching(g, b) -> list[int]:
    """Reference: the same augmenting-path search, written recursively."""
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


MATCHING_GRAPHS = [g for _, g in CORPUS] + [
    build(random_subdivided_instance(seed, 40)) for seed in range(60)
]


def test_matching_equals_recursive_search():
    for g in MATCHING_GRAPHS:
        b = g.side
        match = _recursive_matching(g, b)
        left = [u for u in range(g.n) if b[u] == BLACK]
        expected = tuple((u, match[u]) for u in left if match[u] != -1)
        assert maximum_matching(g).edges == expected


def test_cover_size_is_certified(monkeypatch):
    # the first root is matched to the vertex opposite it on the 6-cycle,
    # a non-neighbour; the alternating search then reaches every vertex
    def augment(rotations, match, root):
        if root != 0:
            return False
        match[0], match[3] = 3, 0
        return True

    monkeypatch.setattr(independence, "_augment", augment)
    g = cycle_graph(6)
    with pytest.raises(InternalInvariantError, match="^cover size 3 != matching size 1$"):
        maximum_matching(g)


def test_matching_disjointness_is_certified(monkeypatch):
    # every search reports an augmenting path but flips none
    monkeypatch.setattr(independence, "_augment", lambda rotations, match, root: True)
    g = cycle_graph(4)
    with pytest.raises(InternalInvariantError, match="^matching edges are not disjoint$"):
        maximum_matching(g)
