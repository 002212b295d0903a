import dataclasses

import pytest

from corpus import (
    corpus_graphs,
    cycle_graph,
    grid_graph,
    oracle_corpus_graphs,
    prism_graph,
    random_subdivided_instance,
)
from halfmono.coloring import baseline_coloring, check_half_monochromatic, check_proper
from halfmono.errors import FaceCapExceeded
from halfmono.instance_io import build
from halfmono.medial import build_medial_graph
from halfmono.oracle import chi_f_bruteforce
from halfmono.plane_graph import compute_bipartition
from halfmono.search import (
    _best_index,
    _scan,
    audit_claims,
    exact_chi_f,
    sweep_dividing_systems,
    verify_theorem_bound,
)

# (builder args, chiF, alpha); region maxima confirmed by the partition
# oracle where n <= 12 and by the matching lower/upper sandwich elsewhere
EXPECTED = {
    "cycle4": (cycle_graph(4), 3, 2),
    "cycle6": (cycle_graph(6), 4, 3),
    "cycle8": (cycle_graph(8), 5, 4),
    "cycle10": (cycle_graph(10), 6, 5),
    "cycle12": (cycle_graph(12), 7, 6),
    "grid2x3": (grid_graph(2, 3), 4, 3),
    "grid2x4": (grid_graph(2, 4), 5, 4),
    "grid3x3": (grid_graph(3, 3), 6, 5),
    "grid3x4": (grid_graph(3, 4), 7, 6),
    "prism4": (prism_graph(4), 5, 4),
    "prism6": (prism_graph(6), 7, 6),
    "prism8": (prism_graph(8), 9, 8),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_optima(name):
    g, chi, alpha = EXPECTED[name]
    res = exact_chi_f(g)
    assert (res.chi_f, res.alpha) == (chi, alpha)
    assert res.bound_satisfied
    assert verify_theorem_bound(res)
    assert res.witness_coloring.num_colors == chi
    assert check_proper(g, res.witness_coloring)
    assert check_half_monochromatic(g, res.witness_coloring)


def test_c4_witness_details():
    res = exact_chi_f(cycle_graph(4))
    assert res.witness_parities == (0, 0)  # the smallest of the two maximizers
    assert res.systems_explored == 4
    assert res.witness_coloring.colors == (0, 1, 0, 2)
    assert 2 * res.chi_f == 3 * res.alpha  # bound met with equality
    assert res.audit.degree_census == ((1, 2), (2, 1))
    assert res.audit.case == "i"


def test_c6_witness_details():
    res = exact_chi_f(cycle_graph(6))
    assert res.witness_parities == (0, 0)
    assert res.audit.degree_census == ((1, 3), (3, 1))
    assert res.audit.case == "i"
    assert 2 * res.chi_f < 3 * res.alpha


def test_even_cycle_family():
    for half in range(2, 7):
        res = exact_chi_f(cycle_graph(2 * half))
        assert res.chi_f == half + 1
        assert res.alpha == half


def test_matches_oracle_on_small_instances():
    for g in (cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)):
        assert exact_chi_f(g).chi_f == chi_f_bruteforce(g).chi_f


def test_schedule_independent():
    g = grid_graph(3, 4)
    sequential = exact_chi_f(g)
    threaded = exact_chi_f(g, jobs=3)
    assert sequential == threaded
    assert exact_chi_f(g, jobs=7) == sequential


def test_face_cap():
    with pytest.raises(FaceCapExceeded):
        exact_chi_f(grid_graph(3, 4), face_cap=3)
    with pytest.raises(FaceCapExceeded):
        sweep_dividing_systems(grid_graph(4, 5), face_cap=4)


@pytest.mark.parametrize("name,g", corpus_graphs())
def test_at_least_baseline(name, g):
    res = exact_chi_f(g)
    baseline = baseline_coloring(g, compute_bipartition(g))
    assert res.chi_f >= baseline.num_colors
    assert 2 * res.chi_f >= g.n


def test_audit_claims_recomputes():
    g = cycle_graph(4)
    res = exact_chi_f(g)
    assert audit_claims(g, res) == res.audit


def test_verify_theorem_bound_on_doctored_result():
    res = exact_chi_f(cycle_graph(4))
    assert verify_theorem_bound(res)
    impossible = dataclasses.replace(res, chi_f=4, alpha=2)
    assert not verify_theorem_bound(impossible)


def test_sweep_maximum_agrees_with_search():
    for g in (cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)):
        assert sweep_dividing_systems(g).max_regions == exact_chi_f(g).chi_f


def _random_subdivided_graphs():
    graphs = [
        (f"s{seed}", build(random_subdivided_instance(seed, 16))) for seed in range(60)
    ]
    assert all(g.num_faces <= 14 for _, g in graphs)
    return graphs


@pytest.mark.parametrize(
    "name,g", corpus_graphs() + oracle_corpus_graphs() + _random_subdivided_graphs()
)
def test_pruned_search_matches_exhaustive_scan(name, g):
    assert _best_index(g) == _scan(build_medial_graph(g))


@pytest.mark.parametrize("name,g", corpus_graphs())
def test_search_result_matches_sweep(name, g):
    assert exact_chi_f(g) == sweep_dividing_systems(g).result
