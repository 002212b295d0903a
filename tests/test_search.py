from collections import Counter
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    corpus_graphs,
    corpus_instances,
    cycle_graph,
    face_darts,
    grid_graph,
    k2m_instance,
    oracle_corpus_graphs,
    prism_graph,
    random_rich_graphs,
    random_rich_instance,
    random_split_graphs,
    random_split_instance,
    random_subdivided_graphs,
    random_subdivided_instance,
    relabelled_instance,
    split_base_instance,
)
from halfmono import search
from halfmono.coloring import (
    Coloring,
    baseline_coloring,
    check_half_monochromatic,
    check_proper,
    coloring_from_regions,
)
from halfmono.dividing import (
    assemble_dividing_system,
    build_division_tree,
    decompose_regions,
    label_regions,
)
from halfmono.errors import (
    BoundViolated,
    ClaimViolated,
    FaceCapExceeded,
    InternalDegreeViolation,
    InternalInvariantError,
    NotATree,
    RegionCycleMismatch,
)
from halfmono.instance_io import InstanceFile, build
from halfmono.medial import build_medial_graph
from halfmono.oracle import chi_f_bruteforce
from halfmono.plane_graph import validate_even_polygonal
from halfmono.search import (
    _check_region_coloring,
    _check_structural_claims,
    _check_system,
    exact_chi_f,
    sweep_dividing_systems,
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


def _first_broken_system(m):
    """The first parity vector, in the sweep's order, on which
    decompose_regions or _check_system raises."""
    for bits in itertools.product((0, 1), repeat=len(m.sides)):
        try:
            r = decompose_regions(m, bits)
            _check_system(m, r.region_of_cell, r.num_regions, r.curve_sides, bits)
        except InternalInvariantError:
            return bits
    return None


def _scan(m, laws=False):
    """Bits of the lexicographically smallest region-count maximizer.

    The exhaustive reference for the pruned search and the law sweep:
    decompose_regions on all 2^F parity vectors in lexicographic order,
    face 0's bit first.  With laws, also runs _check_system on every system,
    which raises on a violated law.
    """
    best_lam, best_bits = -1, ()
    for bits in itertools.product((0, 1), repeat=len(m.sides)):
        r = decompose_regions(m, bits)
        if laws:
            _check_system(m, r.region_of_cell, r.num_regions, r.curve_sides, bits)
        if r.num_regions > best_lam:
            best_lam, best_bits = r.num_regions, bits
    return best_bits


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_optima(name):
    g, chi, alpha = EXPECTED[name]
    res = exact_chi_f(g)
    assert (res.chi_f, res.alpha) == (chi, alpha)
    assert 2 * res.chi_f <= 3 * res.alpha
    coloring = coloring_from_regions(res.witness_regions)
    assert coloring.num_colors == chi
    assert check_proper(g, coloring.colors)
    assert check_half_monochromatic(g, coloring.colors)


def test_c4_witness_details():
    res = exact_chi_f(cycle_graph(4))
    assert res.witness_parities == (0, 0)  # the smallest of the two maximizers
    assert res.systems_explored == 4
    assert coloring_from_regions(res.witness_regions).colors == (0, 1, 0, 2)
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


@pytest.mark.parametrize("run", [exact_chi_f, sweep_dividing_systems])
def test_claim_checks_stay_linear_in_the_region_count(run):
    # A 20000-cycle has 10001 regions in its witness; a k x k adjacency
    # table of them alone would take 100 MB.
    g = cycle_graph(20000)
    tracemalloc.start()
    try:
        res = run(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.chi_f == 10001
    assert peak < 60_000_000


# tracemalloc peaks on the 10^4-cycle, in MB, under Python 3.10 to 3.12:
# first when the medial graph copied both midpoints of every edge, the law
# sweep's leaf its two cells, and the pruned walk allocated curve lists it
# never read; then with each read off the dart tables in place; then with
# each curve named by its largest edge, so that the law sweep keeps no
# smallest-edge table and the curve walker builds each Cycle once:
#   build_medial_graph      1.44 -> 0.16
#   exact_chi_f             6.34-6.56 -> 5.17-5.29 -> 4.75-4.86
#   sweep_dividing_systems  8.11-8.63 -> 5.10-5.30 -> 4.86-5.06
# Each bound lies between two figures of its row; sweep_dividing_systems'
# last two are too close for a stable bound between them.
SOLVE_PEAK_BOUNDS_MB = {
    build_medial_graph: 0.7,
    exact_chi_f: 5.0,
    sweep_dividing_systems: 6.8,
}


@pytest.mark.parametrize("run", SOLVE_PEAK_BOUNDS_MB, ids=lambda run: run.__name__)
def test_solve_peak_stays_small(run):
    g = cycle_graph(10000)
    tracemalloc.start()
    try:
        run(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SOLVE_PEAK_BOUNDS_MB[run] * 1_000_000


def test_matches_oracle_on_small_instances():
    for g in (cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)):
        assert exact_chi_f(g).chi_f == chi_f_bruteforce(g).chi_f


def test_schedule_independent():
    # repeated runs agree; repeated CLI runs are compared in test_cli
    g = grid_graph(3, 4)
    assert exact_chi_f(g) == exact_chi_f(g)


def test_face_cap(monkeypatch):
    # the cap is checked first: a refused op builds no medial graph
    monkeypatch.setattr(search, "build_medial_graph", None)
    with pytest.raises(FaceCapExceeded):
        exact_chi_f(grid_graph(3, 4), face_cap=3)
    with pytest.raises(FaceCapExceeded):
        sweep_dividing_systems(grid_graph(4, 5), face_cap=4)


@pytest.mark.parametrize("name,g", corpus_graphs())
def test_at_least_baseline(name, g):
    res = exact_chi_f(g)
    baseline = baseline_coloring(g)
    assert res.chi_f >= baseline.num_colors
    assert 2 * res.chi_f >= g.n


def _certify_outcome(g, parities):
    m = build_medial_graph(g)
    try:
        return search._certify(g, m, assemble_dividing_system(m, parities)).audit
    except ClaimViolated as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bits", [(1, 0), (1, 1)])
def test_certify_takes_equal_float_and_bool_bits(bits):
    # (1, 1) is C4's other maximizer and certifies; (1, 0) is a one-curve
    # system whose region coloring puts exactly two colors on each face.
    g = cycle_graph(4)
    expected = _certify_outcome(g, bits)
    assert (expected == exact_chi_f(g).audit) == (bits == (1, 1))
    for parities in (tuple(map(float, bits)), tuple(map(bool, bits))):
        assert _certify_outcome(g, parities) == expected


def test_sweep_maximum_agrees_with_search():
    for g in (cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)):
        assert sweep_dividing_systems(g).chi_f == exact_chi_f(g).chi_f


@pytest.mark.parametrize(
    "name,g",
    corpus_graphs()
    + oracle_corpus_graphs()
    + random_subdivided_graphs()
    + random_split_graphs()
    + random_rich_graphs(),
)
def test_pruned_search_matches_exhaustive_scan(name, g):
    m = build_medial_graph(g)
    assert search._sweep(m, laws=False)[0] == _scan(m)


@pytest.mark.parametrize("name,g", corpus_graphs() + random_split_graphs())
def test_search_result_matches_sweep(name, g):
    assert exact_chi_f(g) == sweep_dividing_systems(g)


def _c4_medial():
    g = cycle_graph(4)
    return g, build_medial_graph(g)


def _raises(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


def _replant(m, moves):
    """m with the second midpoint of each medial edge e in moves moved to
    moves[e]: dart e is followed by the first dart on that base edge."""
    g = m.graph
    nxt = list(g.dart_next)
    for e, x in moves.items():
        nxt[e] = g.dart_edge.index(x)
    return m._replace(graph=g._replace(dart_next=tuple(nxt)))


def test_kernel_laws_raise_their_errors():
    g, m = _c4_medial()
    # C4's system (0, 0) selects edges 0, 2, 4 and 6, joining midpoints
    # 0-2, 3-1, 1-3 and 2-0; edge 4 re-planted to 1-0 gives midpoint 0 a
    # third
    with _raises(InternalDegreeViolation, "midpoint 0 has degree 3, expected 2"):
        decompose_regions(_replant(m, {4: 0}), (0, 0))
    # edge 2 re-planted to 3-2 gives midpoint 2 a third edge, but midpoint
    # 1, left with one, is the first the degree law names
    with _raises(InternalDegreeViolation, "midpoint 1 has degree 1, expected 2"):
        decompose_regions(_replant(m, {2: 2}), (0, 0))
    # face 1 has no darts, so it selects no edges
    emptied = g._replace(face_start=(0, 4, 4))
    with _raises(InternalDegreeViolation, "midpoint 0 has degree 1, expected 2"):
        decompose_regions(m._replace(graph=emptied), (0, 0))
    with _raises(InternalInvariantError, "region without any base vertex"):
        decompose_regions(m._replace(sides=(m.sides[0], ((), ()))), (0, 0))
    flipped = (m.sides[0][::-1], m.sides[1])
    with _raises(RegionCycleMismatch, "2 regions but 2 curves"):
        decompose_regions(m._replace(sides=flipped), (0, 0))


def test_tree_laws_raise_their_errors():
    with _raises(NotATree, "curve through midpoint 5 borders a single region"):
        build_division_tree([(0, 0, 5)], 2)
    with _raises(NotATree, "regions 0 and 1 are joined by two curve paths"):
        build_division_tree([(0, 1, 5), (1, 0, 6)], 3)
    with _raises(NotATree, "1 edges on 3 regions"):
        build_division_tree([(0, 1, 5)], 3)


def test_claims_raise_their_errors():
    g, m = _c4_medial()
    s = decompose_regions(m, (0, 0))  # regions {0, 2}, {1}, {3}: a star on region 0
    assert [(min(a, b), max(a, b)) for a, b, _ in s.curve_sides] == [(0, 1), (0, 2)]
    adjacent, degrees = build_division_tree(s.curve_sides, s.num_regions)
    assert degrees == [2, 1, 1]
    assert adjacent == {0 * 3 + 1, 1 * 3 + 0, 0 * 3 + 2, 2 * 3 + 0}
    _check_structural_claims(g, s.region_of_cell, adjacent, degrees)
    with _raises(
        ClaimViolated, "claim 'independent_regions' violated: edge 0-1 inside region 0"
    ):
        _check_structural_claims(g, [0, 0, 1, 2], adjacent, degrees)
    with _raises(
        ClaimViolated, "claim 'claim2' violated: edge 0-3 spans non-adjacent regions 0,2"
    ):
        _check_structural_claims(g, s.region_of_cell, {0 * 3 + 1, 1 * 3 + 0}, degrees)
    with _raises(
        ClaimViolated, "claim 'claim3' violated: region 1 has degree 2 but one vertex"
    ):
        _check_structural_claims(g, s.region_of_cell, adjacent, [1, 2, 1])


def test_witness_claim1_is_checked_on_the_kernel_arrays(monkeypatch):
    # Hand the certificate C4's one-curve system (0, 1) as witness: two
    # regions {0, 2} and {1, 3}, a valid system whose region coloring puts
    # exactly two colors on each face, which no optimum does.
    monkeypatch.setattr(search, "_sweep", lambda m, laws: ((0, 1), 2))
    with _raises(
        ClaimViolated, "claim 'claim1' violated: face 0 carries exactly two colors"
    ):
        exact_chi_f(cycle_graph(4))


def test_witness_bound_is_certified(monkeypatch):
    # a matching one edge too large gives the 4-cycle alpha 1: 2*3 > 3*1
    matching = search.maximum_matching
    monkeypatch.setattr(
        search,
        "maximum_matching",
        lambda g: matching(g)._replace(size=3),
    )
    for run in (exact_chi_f, sweep_dividing_systems):
        with _raises(BoundViolated, "2*3 > 3*1"):
            run(cycle_graph(4))


def test_witness_lower_bound_is_certified(monkeypatch):
    # a baseline of 4 colours on the 4-cycle outnumbers its optimum, 3
    monkeypatch.setattr(
        search, "baseline_coloring", lambda g: Coloring((0, 1, 2, 3), 4)
    )
    for run in (exact_chi_f, sweep_dividing_systems):
        with _raises(InternalInvariantError, "optimum 3 below the guaranteed lower bound"):
            run(cycle_graph(4))


def test_witness_region_coloring_is_checked(monkeypatch):
    # Hand the witness (0, 0) the arrays of C4's other maximizer (1, 1): a
    # valid system, but its face cells hold the other side of each face,
    # so the uncut side {0, 2} of face 0 under bit 0 is split.
    kernel = search.decompose_regions
    monkeypatch.setattr(search, "decompose_regions", lambda m, bits: kernel(m, (1, 1)))
    with _raises(InternalInvariantError, "region coloring failed for parity index 0"):
        exact_chi_f(cycle_graph(4))


def _numbered(parent, n):
    """Each cell's root renamed by its region's index, regions in order of
    their smallest vertex cell, as label_regions numbers them."""
    label = {root: i for i, root in enumerate(dict.fromkeys(parent[:n]))}
    return [label.get(root, -1) for root in parent]


def test_sweep_checks_the_region_coloring_of_every_system(monkeypatch):
    g = cycle_graph(4)
    sweep_dividing_systems(g)
    leaf = search._leaf_laws
    calls, states = [], {}

    def checked(tables, parent, closed, bits):
        bits = tuple(bits)
        if bits == (1, 1):
            # the state of (0, 0), whose face cells hold the other side of
            # each face under bits (1, 1): every law but the region
            # coloring holds on it
            parent[:], closed[:] = states[0, 0]
        k = leaf(tables, parent, closed, bits)
        states[bits] = parent[:], closed[:]
        calls.append((bits, _numbered(parent, g.n)[: g.n], k))
        return k

    monkeypatch.setattr(search, "_leaf_laws", checked)
    with _raises(
        InternalInvariantError, "law sweep and region kernel disagree on parity index 3"
    ) as info:
        sweep_dividing_systems(g)
    # the sweep checks all four systems and rejects the last; the law
    # functions find its region coloring broken on the same state, and the
    # single-system path, which builds the true state, passes it
    assert calls == [
        ((0, 0), [0, 1, 0, 2], 3),
        ((0, 1), [0, 1, 0, 1], 2),
        ((1, 0), [0, 1, 0, 1], 2),
        ((1, 1), [0, 1, 0, 2], 0),
    ]
    parent, closed = states[0, 0]
    assert leaf(search._leaf_tables(build_medial_graph(g)), parent, closed, (0, 0)) == 3
    cause = info.value.__cause__
    assert (type(cause), str(cause)) == (
        InternalInvariantError,
        "region coloring failed for parity index 3",
    )


def _third_edge(g, m):
    # edge 4, selected by bit 0 of face 1, joins midpoints 1 and 0, which
    # edges 0 and 6 already meet; face 1 is the last, whose systems the
    # walk evaluates in place
    m = _replant(m, {4: 0})
    return m.graph, m


def _first_face_loop(g, m):
    # edges 0 and 2, selected by bit 0 of face 0, become 0-3 and a loop at
    # midpoint 3, which edge 0 already meets: the walk meets the fault at
    # face 0, before it reaches the last face, while the single-system
    # path first names midpoint 1, which only edge 4 still meets
    m = _replant(m, {0: 3, 2: 3})
    return m.graph, m


def _no_edges(g, m):
    # face 1 has no darts, so it selects no edges
    doctored = g._replace(face_start=(0, 4, 4))
    return doctored, m._replace(graph=doctored)


def _no_side(g, m):
    return g, m._replace(sides=(m.sides[0], ((), ())))


def _flipped_side(g, m):
    return g, m._replace(sides=(m.sides[0][::-1], m.sides[1]))


def _corners_in_face_cells(g, m):
    # each curve's two sides are both read from its face cell's region:
    # every dart's head becomes its face cell
    heads = tuple(g.n + f for f in g.dart_face)
    doctored = g._replace(dart_head=heads)
    return doctored, m._replace(graph=doctored)


def _chord(g, m):
    # base edge 1-2 becomes 0-2, which joins the two vertices of face 0's
    # uncut side under bit 0
    edges = tuple((0, 2) if e == (1, 2) else e for e in g.edges)
    doctored = g._replace(edges=edges)
    return doctored, m._replace(graph=doctored)


def _lone_forest(g, m):
    # Under bit 0, face 0's uncut side becomes vertex 0 alone and face 1's
    # vertex 2 alone, and curve dart 6 is read in face 0: system (0, 0) has
    # the four regions {0}, {1}, {2} and {3} and two curves, read at darts
    # 6 and 4, 1-0 and 3-2.  Every base edge joins the ends of one curve,
    # so only the region count is broken.
    doctored = g._replace(
        edges=((0, 1), (2, 3), (0, 1), (2, 3)), dart_face=(0, 0, 0, 0, 1, 1, 0, 1)
    )
    sides = (((0,), m.sides[0][1]), ((2,), m.sides[1][1]))
    return doctored, m._replace(graph=doctored, sides=sides)


def _parallel_curves(g, m):
    # On grid2x3, as C4 has too few vertices for two regions of degree two
    # and two vertices each: system (0, 0, 0) has regions {0, 2, 4}, {1, 5}
    # and {3}, and its two curves are read at darts 12 and 6.  Dart 6's
    # corner becomes vertex 1, so both curves join regions 0 and 1, and
    # base edges 0-3 and 3-4 become 0-1 and 4-5, so that only the tree is
    # broken.
    g = grid_graph(2, 3)
    doctored = g._replace(
        dart_head=(*g.dart_head[:6], 1, *g.dart_head[7:]),
        edges=((0, 1), (0, 1), (1, 2), (1, 4), (2, 5), (4, 5), (4, 5)),
    )
    return doctored, build_medial_graph(g)._replace(graph=doctored)


def _far_chord(g, m):
    # base edge 0-1 becomes 1-3, which joins the two leaves of system
    # (0, 0)'s star
    doctored = g._replace(edges=((1, 3), *g.edges[1:]))
    return doctored, m._replace(graph=doctored)


def _lone_middle(g, m):
    # Under bit 0, face 0's uncut side becomes {2, 3} and face 1's vertex 0
    # alone, so system (0, 0) has regions {0}, {1} and {2, 3} and its
    # curves, both read on face 1, make the path {1} - {0} - {2, 3}.
    # Every base edge runs from vertex 0, so all join adjacent regions.
    doctored = g._replace(edges=((0, 1), (0, 3), (0, 2), (0, 3)))
    sides = (((2, 3), m.sides[0][1]), ((0,), m.sides[1][1]))
    return doctored, m._replace(graph=doctored, sides=sides)


class _CutSides(tuple):
    """Face sides that index as built, as the joins read them, but iterate
    with each face's two sides exchanged, as no law may read them."""

    def __iter__(self):
        return (side[::-1] for side in tuple.__iter__(self))


def _cut_sides(g, m):
    # the half-monochromatic law iterates the sides, so it reads each
    # face's cut side, whose vertices lie outside the face cell's region
    return g, m._replace(sides=_CutSides(m.sides))


# doctoring of C4 (or of grid2x3, where it says so), the error the
# single-system path raises on the first failing system, and the sweep's own
# finding, which is its cause
LAW_MUTATIONS = {
    "degree, a third edge": (
        _third_edge,
        (InternalDegreeViolation, "midpoint 0 has degree 3, expected 2"),
        (InternalDegreeViolation, "midpoint 0 meets a third selected edge"),
    ),
    "degree, a loop in the first face": (
        _first_face_loop,
        (InternalDegreeViolation, "midpoint 1 has degree 1, expected 2"),
        (InternalDegreeViolation, "midpoint 3 meets a third selected edge"),
    ),
    "degree, a missing edge": (
        _no_edges,
        (InternalDegreeViolation, "midpoint 0 has degree 1, expected 2"),
        (InternalDegreeViolation, "2 medial edges selected, expected 4"),
    ),
    "base vertex": (
        _no_side,
        (InternalInvariantError, "region without any base vertex"),
        (InternalInvariantError, "region without any base vertex"),
    ),
    "regions == curves + 1": (
        _flipped_side,
        (RegionCycleMismatch, "2 regions but 2 curves"),
        (RegionCycleMismatch, "2 regions but 2 curves"),
    ),
    "tree": (
        _corners_in_face_cells,
        (NotATree, "curve through midpoint 2 borders a single region"),
        (NotATree, "curve through midpoint 1 borders a single region"),
    ),
    "regions == curves + 1, no other law": (
        _lone_forest,
        (RegionCycleMismatch, "4 regions but 2 curves"),
        (RegionCycleMismatch, "4 regions but 2 curves"),
    ),
    "tree, two curve paths": (
        _parallel_curves,
        (NotATree, "regions 0 and 1 are joined by two curve paths"),
        (NotATree, "regions 0 and 1 are joined by two curve paths"),
    ),
    "claims": (
        _chord,
        (ClaimViolated, "claim 'independent_regions' violated: edge 0-2 inside region 0"),
        (ClaimViolated, "claim 'independent_regions' violated: edge 0-2 inside region 0"),
    ),
    "claim 2": (
        _far_chord,
        (ClaimViolated, "claim 'claim2' violated: edge 1-3 spans non-adjacent regions 1,2"),
        (ClaimViolated, "claim 'claim2' violated: edge 1-3 spans non-adjacent regions 1,2"),
    ),
    "claim 3": (
        _lone_middle,
        (ClaimViolated, "claim 'claim3' violated: region 0 has degree 2 but one vertex"),
        (ClaimViolated, "claim 'claim3' violated: region 0 has degree 2 but one vertex"),
    ),
    "region coloring": (
        _cut_sides,
        (InternalInvariantError, "region coloring failed for parity index 0"),
        (InternalInvariantError, "region coloring failed for parity index 0"),
    ),
}


@pytest.mark.parametrize("law", sorted(LAW_MUTATIONS))
def test_sweep_reports_each_violated_law_as_the_kernel_does(law, monkeypatch):
    doctor, (error, message), found = LAW_MUTATIONS[law]
    g, m = doctor(*_c4_medial())
    with _raises(error, message):
        _scan(m, laws=True)  # the single-system path, on every system in order
    monkeypatch.setattr(search, "build_medial_graph", lambda graph: m)
    rechecked = []
    kernel = search.decompose_regions

    def recorded(m, bits):
        rechecked.append(bits)
        return kernel(m, bits)

    monkeypatch.setattr(search, "decompose_regions", recorded)
    with _raises(error, message) as info:
        sweep_dividing_systems(g)
    # the sweep's own check for this law found it, on the first system in
    # order that breaks a law, which _recheck then evaluated alone
    assert (type(info.value.__cause__), str(info.value.__cause__)) == found
    assert rechecked == [_first_broken_system(m)]


def _rejecting_first_leaf(monkeypatch):
    """Make the sweep's leaf check reject the first system it sees."""
    leaf = search._leaf_laws
    seen = []

    def rejecting(tables, parent, closed, bits):
        k = leaf(tables, parent, closed, bits)
        seen.append(k)
        return 0 if len(seen) == 1 else k

    monkeypatch.setattr(search, "_leaf_laws", rejecting)


def test_sweep_reports_a_law_the_kernel_passes(monkeypatch):
    # the sweep sees a tree law fail that the single-system path passes
    tree = search.build_division_tree
    first = []

    def failing_once(curve_sides, k):
        if not first:
            first.append(curve_sides)
            raise NotATree("doctored")
        return tree(curve_sides, k)

    _rejecting_first_leaf(monkeypatch)
    monkeypatch.setattr(search, "build_division_tree", failing_once)
    with _raises(
        InternalInvariantError, "law sweep and region kernel disagree on parity index 0"
    ) as info:
        sweep_dividing_systems(cycle_graph(4))
    assert str(info.value.__cause__) == "doctored"


def test_sweep_reports_a_leaf_the_law_functions_pass(monkeypatch):
    # the leaf check rejects a system that the law functions pass on the
    # same state: the disagreement is the sweep's finding
    _rejecting_first_leaf(monkeypatch)
    with _raises(
        InternalInvariantError, "law sweep and region kernel disagree on parity index 0"
    ) as info:
        sweep_dividing_systems(cycle_graph(4))
    cause = info.value.__cause__
    assert (type(cause), str(cause)) == (
        InternalInvariantError,
        "sweep leaf rejects parity index 0 that the law functions pass",
    )


def test_sweep_maximizer_is_cross_checked_with_the_pruned_search(monkeypatch):
    # (1, 1) is C4's other maximizer; the sweep keeps the first, (0, 0)
    sweep = search._sweep
    monkeypatch.setattr(
        search, "_sweep", lambda m, laws: sweep(m, laws) if laws else ((1, 1), 3)
    )
    with _raises(
        InternalInvariantError, "sweep witness 0 differs from the pruned search's 3"
    ):
        sweep_dividing_systems(cycle_graph(4))


def test_sweep_count_is_cross_checked_with_the_witness_kernel(monkeypatch):
    sweep = search._sweep

    def miscounted(m, laws):
        bits, most = sweep(m, laws)
        return bits, most + laws

    monkeypatch.setattr(search, "_sweep", miscounted)
    with _raises(
        InternalInvariantError, "sweep counted 4 regions but the witness has 3"
    ):
        sweep_dividing_systems(cycle_graph(4))


SWEEP_REFERENCE_GRAPHS = [
    (name, g)
    for name, g in corpus_graphs()
    + oracle_corpus_graphs()
    + random_subdivided_graphs()
    + random_split_graphs()
    + random_rich_graphs()
    + [(f"k2_{m}", build(k2m_instance(m))) for m in range(2, 13)]
    if g.num_faces <= 12
]


def _leaf_states(m, monkeypatch):
    """(resolved cell union-find, closed curves' largest edges, bits, count)
    of every leaf of the law sweep on m, in sweep order."""
    states = []
    leaf = search._leaf_laws

    def spy(tables, parent, closed, bits):
        k = leaf(tables, parent, closed, bits)
        states.append((parent[:], closed[:], tuple(bits), k))
        return k

    monkeypatch.setattr(search, "_leaf_laws", spy)
    search._sweep(m, laws=True)
    monkeypatch.undo()
    return states


@pytest.mark.parametrize("name,g", SWEEP_REFERENCE_GRAPHS)
def test_sweep_leaves_equal_region_kernel(name, g, monkeypatch):
    # Each leaf's roots, numbered by smallest vertex cell, are the kernel's
    # regions; its curves' sides, read at their largest edges, and its
    # count are the kernel's.
    m = build_medial_graph(g)
    n, head, face, edge = g.n, g.dart_head, g.dart_face, g.dart_edge
    leaves = []
    for parent, closed, bits, k in _leaf_states(m, monkeypatch):
        region = _numbered(parent, n)
        sides = [(region[head[d]], region[n + face[d]], edge[d]) for d in closed]
        leaves.append([sorted(sides), k, bits, region])
    expected = []
    for system in itertools.product((0, 1), repeat=g.num_faces):
        s = decompose_regions(m, system)
        expected.append(
            [sorted(s.curve_sides), s.num_regions, system, list(s.region_of_cell)]
        )
    assert leaves == expected
    bits, most = search._sweep(m, laws=True)
    assert bits == _scan(m)
    assert most == decompose_regions(m, bits).num_regions


def _leaf_mutants(m, parent, closed):
    """(kind, medial graph, cell union-find, curves) for every single change
    to one resolved leaf state: a cell moved to another root or to a fresh
    one of its own, a curve's largest edge dropped or listed twice, or one
    end of a base edge re-planted at the first vertex of some region."""
    roots = sorted(set(parent))
    for c in range(len(parent)):
        for r in [*roots, c]:
            if r != parent[c]:
                moved = parent[:]
                moved[c] = r
                yield "cell", m, moved, closed
    for i in range(len(closed)):
        yield "curve", m, parent, closed[:i] + closed[i + 1:]
        yield "curve", m, parent, closed + closed[i:i + 1]
    g = m.graph
    first = {}
    for v in range(g.n):
        first.setdefault(parent[v], v)
    for i, (u, v) in enumerate(g.edges):
        for x in first.values():
            if x not in (u, v):
                edges = (*g.edges[:i], (u, x), *g.edges[i + 1:])
                yield "edge", m._replace(graph=g._replace(edges=edges)), parent, closed


def _rich_with_a_wide_face():
    inst = random_rich_instance(2)
    g = build(inst)
    assert max(map(len, face_darts(g))) == 14  # besides degrees 4, 6 and 8
    return inst.name, g


@pytest.mark.parametrize(
    "name,g",
    [("grid3x4", grid_graph(3, 4)), ("prism6", prism_graph(6)), _rich_with_a_wide_face()],
)
def test_leaf_rejects_exactly_when_the_law_functions_raise(name, g, monkeypatch):
    # On every system, every single change to the leaf's resolved state is
    # rejected by the leaf check exactly when label_regions and
    # _check_system raise on the same state; a passing leaf counts the
    # regions they count.  Both outcomes occur on re-planted base edges.
    m = build_medial_graph(g)
    outcomes = Counter()
    for parent, closed, bits, _ in _leaf_states(m, monkeypatch):
        for kind, mutant, moved, curves in _leaf_mutants(m, parent, closed):
            k = search._leaf_laws(search._leaf_tables(mutant), moved[:], curves[:], bits)
            try:
                region_of_cell, count, sides = label_regions(mutant, moved[:], curves)
                _check_system(mutant, region_of_cell, count, sides, bits)
            except InternalInvariantError:
                assert k == 0, (kind, bits)
                outcomes[kind, "rejected"] += 1
            else:
                assert k == count, (kind, bits)
                outcomes[kind, "passed"] += 1
    assert outcomes["edge", "rejected"] and outcomes["edge", "passed"], outcomes
    # A moved cell breaks the region count, or leaves some face cell's
    # region without a vertex of the face's uncut side; a changed curve list
    # breaks the region count.
    for kind in ("cell", "curve"):
        assert outcomes[kind, "rejected"] and not outcomes[kind, "passed"], outcomes


@pytest.mark.parametrize(
    "name,g",
    corpus_graphs()
    + oracle_corpus_graphs()
    + random_subdivided_graphs()
    + random_split_graphs()
    + random_rich_graphs()
    + [(f"k2_{m}", build(k2m_instance(m))) for m in range(2, 7)],
)
def test_region_coloring_check_agrees_with_the_count_form(name, g):
    # The sweep's check reads each face's uncut side; the count form it
    # replaced reads every boundary label.  Both pass on every system.
    m = build_medial_graph(g)
    for bits in itertools.product((0, 1), repeat=g.num_faces):
        s = decompose_regions(m, bits)
        _check_region_coloring(g.n, m.sides, s.region_of_cell, bits)
        assert check_half_monochromatic(g, s.region_of_cell[: g.n])


@pytest.mark.parametrize("degree", [4, 10])
def test_region_coloring_check_rejects_a_moved_uncut_vertex(degree):
    # On grid3x4, an inner face of degree 4 and the outer face of degree
    # 10: in every system, moving one vertex of the face's uncut side to
    # any other region, or to a new one, raises with that system's index.
    # The count form rejects only some of these arrays; the check rejects
    # all of them, so it rejects every array the count form rejects.
    g = grid_graph(3, 4)
    m = build_medial_graph(g)
    f = next(f for f, darts in enumerate(face_darts(g)) if len(darts) == degree)
    moves = count_rejected = 0
    for index, bits in enumerate(itertools.product((0, 1), repeat=g.num_faces)):
        s = decompose_regions(m, bits)
        for v in m.sides[f][bits[f]]:
            for region in range(s.num_regions + 1):
                if region == s.region_of_cell[v]:
                    continue
                moved = list(s.region_of_cell)
                moved[v] = region
                moves += 1
                count_rejected += not check_half_monochromatic(g, moved[: g.n])
                with _raises(
                    InternalInvariantError,
                    f"region coloring failed for parity index {index}",
                ):
                    _check_region_coloring(g.n, m.sides, moved, bits)
    assert 0 < count_rejected < moves


@pytest.mark.parametrize("seed", range(30))
def test_split_instance_gains_one_even_face(seed):
    base = build(split_base_instance(seed))
    g = build(random_split_instance(seed))
    assert g.num_faces == base.num_faces + 1
    assert g.num_edges > base.num_edges  # the path has at least one edge
    assert validate_even_polygonal(g).ok  # every face an even simple cycle
    assert all(len(darts) >= 4 for darts in face_darts(g))


def _mirror(inst: InstanceFile) -> InstanceFile:
    """The mirror image: every rotation reversed, x coordinates negated."""
    coords = inst.coords and tuple((-x, y) for x, y in inst.coords)
    rotations = tuple(rot[::-1] for rot in inst.rotations)
    return InstanceFile(f"{inst.name}-mirror", inst.n, rotations, coords)


METAMORPHIC_INSTANCES = (
    [inst for inst in corpus_instances() if build(inst).num_faces <= 12]
    + [random_subdivided_instance(seed, 16) for seed in range(60)]
    + [random_split_instance(seed) for seed in range(30)]
    + [random_rich_instance(seed) for seed in range(100)]
)


@settings(max_examples=40, deadline=None)
@given(
    inst=st.sampled_from(METAMORPHIC_INSTANCES),
    mirror=st.booleans(),
    data=st.data(),
)
def test_mirror_and_relabel_keep_chif_alpha_and_the_laws(inst, mirror, data):
    perm = data.draw(st.permutations(range(inst.n)))
    expected = exact_chi_f(build(inst))
    g = build(relabelled_instance(_mirror(inst) if mirror else inst, perm))
    res = exact_chi_f(g)
    assert (res.chi_f, res.alpha) == (expected.chi_f, expected.alpha)
    # what `check` runs: every law on every system, region colorings included
    assert sweep_dividing_systems(g).chi_f == res.chi_f
    if g.num_faces <= 10:
        # both walk modes against the exhaustive scan they replace
        m = build_medial_graph(g)
        scanned = _scan(m)
        assert search._sweep(m, laws=True)[0] == scanned
        assert search._sweep(m, laws=False)[0] == scanned
