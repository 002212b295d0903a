import random
from collections import Counter

import pytest

from census import COUNTS, canonical_code, census, check_map
from corpus import (
    random_rich_instance,
    random_split_instance,
    random_subdivided_instance,
    relabelled_instance,
)

MAX_N = 9  # 134 maps; tests/census.py runs n <= 10 and 11 outside tier-1


@pytest.fixture(scope="module")
def maps():
    return census(MAX_N)


def test_census_counts_are_pinned(maps):
    counts = Counter(inst.n for inst in maps)
    assert counts == {n: COUNTS[n] for n in range(4, MAX_N + 1)}


def test_no_two_census_maps_share_a_code(maps):
    assert len({canonical_code(inst.rotations) for inst in maps}) == len(maps)


def test_seeded_instances_and_relabelled_copies_are_in_the_census(maps):
    codes = {canonical_code(inst.rotations) for inst in maps}
    seeded = [random_rich_instance(seed) for seed in range(100)]
    seeded += [random_split_instance(seed) for seed in range(30)]
    seeded += [random_subdivided_instance(seed) for seed in range(30)]
    small = [inst for inst in seeded if inst.n <= MAX_N]
    assert len(small) >= 20
    for inst in small:
        perm = list(range(inst.n))
        random.Random(inst.name).shuffle(perm)
        assert canonical_code(inst.rotations) in codes, inst.name
        assert canonical_code(relabelled_instance(inst, perm).rotations) in codes, inst.name


def test_a_map_and_its_mirror_share_a_code(maps):
    for inst in maps:
        mirrored = tuple(rot[::-1] for rot in inst.rotations)
        assert canonical_code(mirrored) == canonical_code(inst.rotations), inst.name


def test_every_census_map_agrees_with_the_sweep_oracle_and_alpha(maps):
    for inst in maps:  # check_map builds, so every map is a valid instance
        check_map(inst, sweep=True, oracle=True)
