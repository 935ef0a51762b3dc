"""Exhaustive small-instance references: matchings, densities, chromatic index."""

from fractions import Fraction

import pytest

from matchcolor import HardCoreModel
from matchcolor.errors import CapacityError
from matchcolor.oracle import (
    brute_force_chromatic_index,
    brute_force_gamma,
    enumerate_matchings,
    exact_distribution,
    tv_distance,
)
from support import cycle_graph, double_edge, path_graph, petersen, shannon


# ---------------------------------------------------------------------------
# Matchings


def test_matchings_of_triangle():
    ms = enumerate_matchings(cycle_graph(3))
    assert sorted(ms, key=sorted) == [frozenset(), {0}, {1}, {2}]


@pytest.mark.parametrize("m,count", [(1, 2), (2, 3), (3, 5), (4, 8), (5, 13)])
def test_path_matching_counts_follow_fibonacci(m, count):
    assert len(enumerate_matchings(path_graph(m))) == count


def test_matchings_are_matchings():
    g = cycle_graph(6)
    for matching in enumerate_matchings(g):
        touched = [v for eid in matching for v in g.endpoints[eid]]
        assert len(touched) == len(set(touched))


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_matchings(path_graph(21))


# ---------------------------------------------------------------------------
# Distributions


def test_exact_distribution_uniform_activity():
    model = HardCoreModel(path_graph(3), [1.0, 1.0, 1.0])
    dist = exact_distribution(model)
    probs = dist.as_dict()
    assert len(probs) == 5
    assert all(abs(p - 0.2) < 1e-12 for p in probs.values())


def test_exact_distribution_weighted():
    model = HardCoreModel(double_edge(), [2.0, 3.0])
    probs = exact_distribution(model).as_dict()
    assert abs(probs[frozenset()] - 1 / 6) < 1e-12
    assert abs(probs[frozenset({0})] - 2 / 6) < 1e-12
    assert abs(probs[frozenset({1})] - 3 / 6) < 1e-12


def test_tv_distance():
    a = {frozenset(): 1.0}
    b = {frozenset({0}): 1.0}
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == 1.0
    # Mappings of raw counts are normalized.
    c = {frozenset(): 3, frozenset({0}): 1}
    d = {frozenset(): 1, frozenset({0}): 1}
    assert abs(tv_distance(c, d) - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# Density


def test_gamma_values():
    assert brute_force_gamma(cycle_graph(3)) == 3
    assert brute_force_gamma(cycle_graph(5)) == Fraction(5, 2)
    assert brute_force_gamma(cycle_graph(4)) == 2
    assert brute_force_gamma(shannon(3)) == 9
    assert brute_force_gamma(petersen()) == 3


def test_gamma_cap():
    with pytest.raises(CapacityError):
        brute_force_gamma(path_graph(17))


# ---------------------------------------------------------------------------
# Chromatic index


@pytest.mark.parametrize(
    "graph,chromatic",
    [
        (cycle_graph(3), 3),
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (double_edge(), 2),
        (shannon(2), 6),
        (path_graph(4), 2),
    ],
)
def test_chromatic_index_known_values(graph, chromatic):
    assert brute_force_chromatic_index(graph) == chromatic


def test_chromatic_index_petersen_is_class_two():
    assert brute_force_chromatic_index(petersen()) == 4


def test_chromatic_index_cap():
    with pytest.raises(CapacityError):
        brute_force_chromatic_index(path_graph(17))
