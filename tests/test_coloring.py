import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import corpus_graphs, cycle_graph, face_vertices, grid_graph, prism_graph
from halfmono.coloring import (
    Coloring,
    baseline_coloring,
    check_half_monochromatic,
    check_proper,
    coloring_from_regions,
)
from halfmono.dividing import assemble_dividing_system, decompose_regions
from halfmono.medial import build_medial_graph
from halfmono.plane_graph import BLACK, WHITE
from halfmono.search import sweep_dividing_systems

CORPUS = corpus_graphs()


def _regions(g, parities):
    m = build_medial_graph(g)
    return decompose_regions(m, assemble_dividing_system(m, parities))


def test_check_proper_examples():
    g = cycle_graph(4)
    assert check_proper(g, (0, 1, 0, 2))
    assert not check_proper(g, (0, 0, 1, 2))
    assert check_proper(g, (0, 1, 2, 3))


def test_check_half_monochromatic_examples():
    g = cycle_graph(4)
    assert check_half_monochromatic(g, (0, 1, 0, 2))
    assert not check_half_monochromatic(g, (0, 1, 2, 3))


def test_coloring_must_be_dense_and_surjective():
    with pytest.raises(ValueError):
        Coloring((0, 2, 0, 2), 3)  # color 1 unused
    with pytest.raises(ValueError):
        Coloring((0, 1), 3)
    with pytest.raises(ValueError):
        Coloring((0, 1), 2)._replace(num_colors=3)


def test_coloring_from_regions_c4():
    c = coloring_from_regions(_regions(cycle_graph(4), (0, 0)))
    assert c.colors == (0, 1, 0, 2)
    assert c.num_colors == 3


def test_coloring_from_regions_c6():
    c = coloring_from_regions(_regions(cycle_graph(6), (0, 0)))
    assert c.colors == (0, 1, 0, 2, 0, 3)
    assert c.num_colors == 4


def test_baseline_examples():
    g = cycle_graph(4)
    c = baseline_coloring(g)
    assert c.colors == (0, 2, 1, 2)
    assert c.num_colors == 3

    g23 = grid_graph(2, 3)
    assert baseline_coloring(g23).num_colors == 4

    cube = prism_graph(4)
    assert baseline_coloring(cube).num_colors == 5


@pytest.mark.parametrize("name,g", CORPUS)
def test_baseline_is_admissible_and_large(name, g):
    b = g.side
    c = baseline_coloring(g)
    assert check_proper(g, c.colors)
    assert check_half_monochromatic(g, c.colors)
    assert c.num_colors == max(b.count(BLACK), b.count(WHITE)) + 1
    assert 2 * c.num_colors >= g.n + 2  # at least ceil(n/2) + 1 colors


@pytest.mark.parametrize(
    "g",
    [cycle_graph(4), cycle_graph(6), grid_graph(2, 3), prism_graph(4)],
    ids=lambda g: f"n{g.n}",
)
def test_region_colorings_admissible_for_every_system(g):
    # raises from inside the sweep if any system's coloring misbehaves
    sweep_dividing_systems(g)


def _alternation_class_check(g, labels):
    """Independent formulation: some alternation class of each face is
    monochromatic."""
    for walk in face_vertices(g):
        even = [labels[v] for v in walk[0::2]]
        odd = [labels[v] for v in walk[1::2]]
        if len(set(even)) != 1 and len(set(odd)) != 1:
            return False
    return True


@given(data=st.data(), g=st.sampled_from([g for _, g in CORPUS if g.n <= 12]))
def test_half_monochromatic_equals_alternation_form_when_proper(data, g):
    # a proper labeling drawn vertex by vertex: each label avoids those of
    # the neighbours labelled before it, which leave at least one of 0..n-1
    labels: list[int] = []
    for v in range(g.n):
        taken = {labels[u] for u in g.rotations[v] if u < v}
        free = [c for c in range(g.n) if c not in taken]
        labels.append(data.draw(st.sampled_from(free)))
    assert check_proper(g, labels)
    assert check_half_monochromatic(g, labels) == _alternation_class_check(
        g, labels
    )
