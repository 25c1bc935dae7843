"""The oracles against slower or exact computations, and against the program."""

import numpy as np
import pytest

from miqueldyn import (generate_kasteleyn_cauchy_data, pattern_star_ratios,
                       weights_from_pattern)
from miqueldyn.dimer import dimer_statistics

import oracles


def _centres(rows, cols, seed):
    p = generate_kasteleyn_cauchy_data(rows, cols, seed=seed, spread=0.5)
    Z = np.array([[p.center_points[i * cols + j] for j in range(cols)]
                  for i in range(rows)])
    return p, Z, p.periods


def test_centre_recurrence_matches_exact_gaussian_rationals():
    _, Z, periods = _centres(4, 4, seed=3)
    rng = np.random.default_rng(0)
    Z = Z + 0.05 * (rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape))
    exact = [[oracles.GaussianRational.from_complex(z) for z in row] for row in Z]
    exact_periods = tuple(oracles.GaussianRational.from_complex(p) for p in periods)
    floats = oracles.centre_trajectory(Z, periods, 0, 4)
    for k in range(4):
        exact = oracles.exact_centre_sweep(exact, exact_periods, k % 2)
        want = np.array([[complex(z) for z in row] for row in exact])
        assert np.max(np.abs(floats[k + 1] - want)) <= 1e-12 * abs(periods[0])


def test_a_sweep_repeated_on_the_same_parity_is_undone():
    _, Z, periods = _centres(6, 8, seed=1)
    twice = oracles.centre_sweep(oracles.centre_sweep(Z, periods, 1), periods, 1)
    assert np.max(np.abs(twice - Z)) <= 1e-12


def test_grid_star_ratios_match_the_program():
    p, Z, periods = _centres(6, 6, seed=2)
    field = pattern_star_ratios(p.centers_drawing())
    got = np.array([field.values[f] for f in range(36)]).reshape(6, 6)
    assert np.max(np.abs(got - oracles.grid_star_ratios(Z, periods))) <= 1e-13


def test_grid_edge_weights_match_the_program():
    for rows, cols in ((4, 4), (2, 10), (10, 2)):
        p, Z, periods = _centres(rows, cols, seed=4)
        want = weights_from_pattern(p)
        got = oracles.grid_edge_weights(Z, periods)
        assert sorted(got) == sorted(want)
        assert max(abs(got[e] - want[e]) for e in want) <= 1e-14


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6])
def test_ryser_matches_the_sum_over_permutations(n):
    A = np.random.default_rng(n).uniform(0.1, 2.0, size=(n, n))
    assert oracles.ryser_permanent(A) == pytest.approx(oracles.brute_permanent(A),
                                                       rel=1e-12, abs=1e-300)


def test_edge_probabilities_match_enumeration():
    p, Z, periods = _centres(4, 4, seed=5)
    w = oracles.grid_edge_weights(Z, periods)
    edges = {eid: (e.minus, e.plus) for eid, e in p.graph.edges.items()}
    z, probs = oracles.edge_probabilities(edges, w, edges)
    ens = dimer_statistics(p.graph, w)
    assert z == pytest.approx(ens.Z, rel=1e-12)
    for eid in edges:
        want = sum(q for m, q in zip(ens.matchings, ens.probabilities) if eid in m)
        assert probs[eid] == pytest.approx(want, abs=1e-12)


def test_period_distance_removes_period_combinations():
    periods = (complex(3.0, 0.2), complex(-0.5, 2.0))
    a = np.array([0.1 + 0.2j, 1.0 - 1.0j])
    b = a + 2 * periods[0] - 3 * periods[1] + np.array([1e-3, 0])
    assert np.allclose(oracles.period_distance(a, b, periods), [1e-3, 0], atol=1e-12)
