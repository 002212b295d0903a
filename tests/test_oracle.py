import pytest

from corpus import bell, cycle_graph, grid_graph, prism_graph
from halfmono.coloring import check_half_monochromatic, check_proper
from halfmono.errors import SizeCapExceeded
from halfmono.oracle import _set_partitions, chi_f_bruteforce


def test_c4():
    res = chi_f_bruteforce(cycle_graph(4))
    assert res.chi_f == 3
    assert res.partitions_scanned == 15  # Bell(4)
    assert res.witness.colors == (0, 1, 0, 2)


def test_c6_and_grid():
    res = chi_f_bruteforce(cycle_graph(6))
    assert res.chi_f == 4
    assert res.partitions_scanned == 203  # Bell(6)
    assert chi_f_bruteforce(grid_graph(2, 3)).chi_f == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_partition_enumeration_is_complete(n):
    seen = {tuple(a) for a in _set_partitions(n)}
    assert len(seen) == bell(n)
    assert all(a[0] == 0 for a in seen)
    assert all(
        a[i] <= max(a[:i]) + 1 for a in seen for i in range(1, n)
    )


def test_single_block_partition_is_improper():
    g = cycle_graph(4)
    assert not check_proper(g, [0, 0, 0, 0])
    assert chi_f_bruteforce(g).chi_f >= 2


def test_witness_is_admissible():
    g = prism_graph(4)
    res = chi_f_bruteforce(g)
    assert res.witness.num_colors == res.chi_f == 5
    assert check_proper(g, res.witness.colors)
    assert check_half_monochromatic(g, res.witness.colors)
    assert res.partitions_scanned == bell(8)


def test_vertex_cap():
    with pytest.raises(SizeCapExceeded):
        chi_f_bruteforce(cycle_graph(6), vertex_cap=4)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(4), cycle_graph(6), grid_graph(2, 3), grid_graph(2, 4), prism_graph(4)],
    ids=["c4", "c6", "grid2x3", "grid2x4", "cube"],
)
def test_oracle_respects_the_frame_bounds(g):
    # independent re-check of the certified bound: the oracle never sees the
    # region machinery, yet lands between the baseline and 3*alpha/2
    from halfmono.coloring import baseline_coloring
    from halfmono.independence import alpha_bruteforce

    res = chi_f_bruteforce(g)
    baseline = baseline_coloring(g)
    assert res.chi_f >= baseline.num_colors
    assert 2 * res.chi_f <= 3 * alpha_bruteforce(g)
