"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import pytest

from corpus import corpus_graphs, face_vertices, oracle_corpus_graphs, tight_instance
from halfmono import cli
from halfmono.coloring import (
    baseline_coloring,
    check_half_monochromatic,
    check_proper,
    coloring_from_regions,
)
from halfmono.dividing import (
    assemble_dividing_system,
    build_division_tree,
    decompose_regions,
    extract_cycles,
)
from halfmono.errors import BoundViolated, ClaimViolated, HalfmonoError
from halfmono.independence import alpha_bruteforce, maximum_matching
from halfmono.instance_io import build
from halfmono.medial import build_medial_graph
from halfmono.oracle import chi_f_bruteforce
from halfmono.search import exact_chi_f, sweep_dividing_systems

FULL_CORPUS = corpus_graphs()  # cycles 4..12, grids up to 4x5, prisms 4..8
ORACLE_CORPUS = oracle_corpus_graphs()  # <= 10 vertices incl. 25 randomized


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({desc}): FAIL")
                raise
            print(f"criterion {num} ({desc}): PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus_results():
    return {name: (g, exact_chi_f(g)) for name, g in FULL_CORPUS}


@dataclass
class SweepFacts:
    systems: int
    region_law_failures: int
    tree_law_failures: int
    claim_failures: int


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Every dividing system of every corpus instance with <= 16 faces."""
    facts: dict[str, SweepFacts] = {}
    for name, g in FULL_CORPUS + ORACLE_CORPUS:
        if g.num_faces > 16 or name in facts:
            continue
        m = build_medial_graph(g)
        nf = g.num_faces
        systems = region_fail = tree_fail = claim_fail = 0
        for idx in range(1 << nf):
            systems += 1
            parities = tuple((idx >> (nf - 1 - f)) & 1 for f in range(nf))
            try:
                bits = assemble_dividing_system(m, parities)
                cycles = extract_cycles(m, bits)
                r = decompose_regions(m, bits)
            except HalfmonoError:
                region_fail += 1
                continue
            if r.num_regions != len(cycles) + 1:
                region_fail += 1
                continue
            try:
                adjacent, degrees = build_division_tree(r.curve_sides, r.num_regions)
            except HalfmonoError:
                tree_fail += 1
                continue
            k = r.num_regions
            if len(degrees) != k or len(r.curve_sides) != k - 1:
                tree_fail += 1
                continue
            ok = True
            for u, v in g.edges:
                ru, rv = r.region_of_cell[u], r.region_of_cell[v]
                if ru == rv or ru * k + rv not in adjacent:
                    ok = False
            for node, deg in enumerate(degrees):
                if deg >= 2 and len(r.regions[node]) < 2:
                    ok = False
            if not ok:
                claim_fail += 1
        facts[name] = SweepFacts(systems, region_fail, tree_fail, claim_fail)
    return facts


@criterion(1, "Corollary equivalence, region search == partition oracle")
def test_criterion_1_corollary_equivalence():
    start = time.time()
    for name, g in ORACLE_CORPUS:
        assert g.n <= 10
        solver = exact_chi_f(g)
        oracle = chi_f_bruteforce(g)
        assert solver.chi_f == oracle.chi_f, name
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "certified bound 2*chiF <= 3*alpha on the full corpus")
def test_criterion_2_theorem_certificate(corpus_results):
    for name, (g, res) in corpus_results.items():
        assert 2 * res.chi_f <= 3 * res.alpha, name
    # a violation must surface as exit code 2
    assert cli.exit_code_for_exception(BoundViolated("x")) == 2
    assert cli.exit_code_for_exception(ClaimViolated("claim2")) == 2


@criterion(3, "tightness on the 4-cycle and T_k; the even-cycle family")
def test_criterion_3_tightness_witness(corpus_results):
    g4, res4 = corpus_results["cycle4"]
    assert (res4.chi_f, res4.alpha) == (3, 2)
    assert 2 * res4.chi_f == 3 * res4.alpha  # bound met with equality
    assert chi_f_bruteforce(g4).chi_f == 3

    for half in range(2, 7):
        g, res = corpus_results[f"cycle{2 * half}"]
        assert (res.chi_f, res.alpha) == (half + 1, half)
        baseline = baseline_coloring(g).num_colors
        assert baseline <= res.chi_f <= (3 * res.alpha) // 2
        if g.n <= 12:
            assert chi_f_bruteforce(g).chi_f == half + 1

    for k in range(1, 8):  # T_1 is C4
        g = build(tight_instance(k))
        assert (g.n, g.num_faces) == (4 * k, 4 * k - 2)
        res = exact_chi_f(g, face_cap=26)
        assert (res.chi_f, res.alpha) == (3 * k, 2 * k)
        assert 2 * res.chi_f == 3 * res.alpha  # bound met with equality
        if k <= 4:
            assert sweep_dividing_systems(g).chi_f == 3 * k
        if k <= 2:
            assert chi_f_bruteforce(g).chi_f == 3 * k


@criterion(4, "region count == curve count + 1 over every dividing system")
def test_criterion_4_region_count_law(exhaustive_sweep):
    assert exhaustive_sweep["grid3x4"].systems == 128
    assert exhaustive_sweep["prism6"].systems == 256
    for name, facts in exhaustive_sweep.items():
        assert facts.region_law_failures == 0, name


@criterion(5, "tree laws and structural claims over every dividing system")
def test_criterion_5_division_tree_laws(exhaustive_sweep):
    for name, facts in exhaustive_sweep.items():
        assert facts.tree_law_failures == 0, name
        assert facts.claim_failures == 0, name


@criterion(6, "no witness coloring puts exactly two colors on a face")
def test_criterion_6_claim1_audit(corpus_results):
    witnesses = [(n, g, r) for n, (g, r) in corpus_results.items()]
    witnesses += [(name, g, exact_chi_f(g)) for name, g in ORACLE_CORPUS]
    for name, g, res in witnesses:
        coloring = coloring_from_regions(res.witness_regions)
        for f, walk in enumerate(face_vertices(g)):
            distinct = {coloring.colors[v] for v in walk}
            assert len(distinct) != 2, (name, f)


@criterion(7, "baseline coloring is admissible and never beats the optimum")
def test_criterion_7_baseline_bound(corpus_results):
    for name, (g, res) in corpus_results.items():
        c = baseline_coloring(g)
        assert check_proper(g, c.colors), name
        assert check_half_monochromatic(g, c.colors), name
        assert c.num_colors >= (g.n + 1) // 2, name
        assert res.chi_f >= c.num_colors, name


@criterion(8, "independence number: matching route == brute force")
def test_criterion_8_independence_cross_check():
    for name, g in FULL_CORPUS + ORACLE_CORPUS:
        assert g.n <= 24
        alpha = maximum_matching(g).alpha
        assert alpha == alpha_bruteforce(g), name
        assert 2 * alpha >= g.n, name


@criterion(9, "byte-identical solver output across repeated runs")
def test_criterion_9_determinism(tmp_path, capsys):
    for family, params in (("grid", "3x4"), ("cycle", "6")):
        path = tmp_path / f"{family}{params}.hmg"
        assert cli.main(["gen", family, params, "-o", str(path)]) == 0
        capsys.readouterr()
        outputs = []
        for argv in (
            ["chif", str(path), "--json"],
            ["chif", str(path), "--json"],
            ["chif", str(path), "--json"],
            ["chif", str(path), "--json"],
        ):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        json.loads(outputs[0])  # well-formed
