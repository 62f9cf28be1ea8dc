"""Power-split searchers on analytically known surfaces."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_block_design, random_blocked, unit

from airsdm.model import NoiseProfile
from airsdm.nsp_mrr import PaScalarContext
from airsdm.pa_search import (
    SearchResult,
    SearchSpec,
    annealing_search,
    exhaustive_search,
    fixed_beta_search,
    fixed_eta_search,
    fixed_point_search,
    pso_search,
)


def bowl(eta, beta):
    """Smooth concave surface with its peak on the canonical grid."""
    return -((eta - 0.3) ** 2) - (beta - 0.7) ** 2


def tilted(eta, beta):
    return 0.4 * eta + 0.1 * beta


def terraced(eta, beta):
    """Stepped bowl: many exact ties, and NaN on one beta strip."""
    steps = np.floor(20.0 * bowl(eta, beta))
    return np.where(np.abs(beta - 0.5) < 0.02, np.nan, steps)


class CallCounter:
    def __init__(self, objective):
        self.objective = objective
        self.calls = 0

    def __call__(self, eta, beta):
        self.calls += 1
        return self.objective(eta, beta)


# -- grid scan -----------------------------------------------------------------

def test_grid_axis_has_99_points():
    spec = SearchSpec(objective=bowl, vectorized=True)
    res = exhaustive_search(spec)
    assert res.evaluations == 99 * 99
    assert len(res.trace) == 99


def test_grid_finds_the_on_grid_peak():
    res = exhaustive_search(SearchSpec(objective=bowl, vectorized=True))
    assert_allclose(res.point, (0.3, 0.7), atol=1e-12)
    assert_allclose(res.value, 0.0, atol=1e-24)


def test_grid_trace_is_non_decreasing():
    res = exhaustive_search(SearchSpec(objective=bowl, vectorized=True))
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.trace[-1] == res.value


def test_grid_ties_go_to_the_smallest_pair():
    res = exhaustive_search(SearchSpec(objective=lambda e, b: np.zeros_like(e),
                                       vectorized=True))
    assert res.point == (0.01, 0.01)


def test_grid_respects_an_evaluation_budget():
    res = exhaustive_search(SearchSpec(objective=bowl, vectorized=True, budget=150))
    assert res.evaluations == 150
    # 99 first-row evals plus a 51-wide slice of the second row
    assert len(res.trace) == 2


def test_grid_scalar_and_vectorized_agree():
    a = exhaustive_search(SearchSpec(objective=bowl, vectorized=True))
    b = exhaustive_search(SearchSpec(objective=lambda e, b_: bowl(e, b_),
                                     vectorized=False))
    assert a.point == b.point
    assert a.value == b.value
    assert a.trace == b.trace


def row_by_row_scan(spec):
    """Reference grid scan: one objective call per grid row, budget cut mid-row."""
    axis = np.linspace(spec.lo, spec.hi, round((spec.hi - spec.lo) / spec.grid_step) + 1)
    cap = spec.budget if spec.budget is not None else axis.size ** 2
    best_val, best_pt, trace, evals = -math.inf, (float(axis[0]), float(axis[0])), [], 0
    for eta in axis:
        take = min(axis.size, cap - evals)
        if take <= 0:
            break
        if spec.vectorized:
            row = np.asarray(spec.objective(np.full(take, eta), axis[:take]), dtype=float)
        else:
            row = np.array([spec.objective(float(eta), float(b)) for b in axis[:take]],
                           dtype=float)
        evals += take
        j = int(np.argmax(row))
        if row[j] > best_val:
            best_val, best_pt = float(row[j]), (float(eta), float(axis[j]))
        trace.append(best_val)
    return SearchResult(best_pt, best_val, evals, trace)


def assert_same_result(a, b):
    assert a.point == b.point
    assert a.value == b.value
    assert a.evaluations == b.evaluations
    assert a.trace == b.trace


def test_grid_calls_a_vectorized_objective_once():
    for budget in (None, 1, 150):
        counter = CallCounter(bowl)
        exhaustive_search(SearchSpec(objective=counter, vectorized=True, budget=budget))
        assert counter.calls == 1


@pytest.mark.parametrize("budget", [1, 98, 99, 150, 9801, 20000, None])
def test_one_call_scan_matches_the_row_by_row_scan(budget):
    for objective in (bowl, terraced):
        spec = SearchSpec(objective=objective, vectorized=True, budget=budget)
        assert_same_result(exhaustive_search(spec), row_by_row_scan(spec))
    spec = SearchSpec(objective=terraced, vectorized=False, budget=budget)
    assert_same_result(exhaustive_search(spec), row_by_row_scan(spec))


def test_one_call_scan_matches_the_row_by_row_scan_on_a_secrecy_surface():
    rng = np.random.default_rng(21)
    noise = NoiseProfile(sigma2_irs=0.03, sigma2_b=0.05, sigma2_e=0.04)
    for _ in range(3):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, noise)
        ctx = PaScalarContext(bch, unit(d.v_b), unit(d.v_e), d.theta1, d.theta2,
                              d.pa.mu, d.p_s, noise)
        spec = SearchSpec(objective=ctx, vectorized=True)
        assert_same_result(exhaustive_search(spec), row_by_row_scan(spec))


def test_indivisible_grid_step_raises():
    with pytest.raises(ValueError):
        exhaustive_search(SearchSpec(objective=bowl, grid_step=0.013))


def test_bad_box_raises():
    with pytest.raises(ValueError):
        SearchSpec(objective=bowl, lo=0.5, hi=0.2)
    with pytest.raises(ValueError):
        SearchSpec(objective=bowl, lo=0.0, hi=0.99)
    with pytest.raises(ValueError):
        SearchSpec(objective=bowl, budget=0)


# -- particle swarm --------------------------------------------------------------

def test_pso_stays_in_the_box_and_meets_its_budget():
    spec = SearchSpec(objective=bowl, vectorized=True, seed=7)
    res = pso_search(spec)
    assert res.evaluations == 30 * 101
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))


def test_pso_nearly_solves_a_smooth_surface():
    res = pso_search(SearchSpec(objective=bowl, vectorized=True, seed=1))
    assert res.value >= -1e-6          # true max is 0
    assert abs(res.point[0] - 0.3) <= 1e-2
    assert abs(res.point[1] - 0.7) <= 1e-2


def test_pso_is_seed_deterministic():
    a = pso_search(SearchSpec(objective=tilted, vectorized=True, seed=5))
    b = pso_search(SearchSpec(objective=tilted, vectorized=True, seed=5))
    assert a.point == b.point and a.value == b.value and a.trace == b.trace
    c = pso_search(SearchSpec(objective=tilted, vectorized=True, seed=6))
    assert c.point != a.point or c.trace != a.trace


def test_pso_budget_truncates_iterations():
    res = pso_search(SearchSpec(objective=bowl, vectorized=True, seed=0, budget=100))
    assert res.evaluations == 90       # 3 full swarm sweeps fit under 100


def test_pso_budget_below_the_swarm_caps_the_initial_swarm():
    counter = CallCounter(bowl)
    res = pso_search(SearchSpec(objective=counter, vectorized=False, seed=0, budget=10))
    assert res.evaluations == 10
    assert counter.calls == 10
    assert len(res.trace) == 1


# -- simulated annealing ------------------------------------------------------------

def test_annealing_budget_and_box():
    res = annealing_search(SearchSpec(objective=bowl, seed=3))
    assert res.evaluations == 100 * 20 + 1
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))


def test_annealing_nearly_solves_a_smooth_surface():
    res = annealing_search(SearchSpec(objective=bowl, seed=11))
    assert res.value >= -1e-4
    assert abs(res.point[0] - 0.3) <= 0.05
    assert abs(res.point[1] - 0.7) <= 0.05


def test_annealing_golden_run_on_the_bowl():
    # Recorded from the array-state implementation this float loop replaced.
    res = annealing_search(SearchSpec(objective=bowl, seed=3))
    assert res.point == (0.30108615815685413, 0.7067612073352405)
    assert res.value == -4.6893664171811393e-05
    assert res.evaluations == 2001
    runs = [(-0.1683437586601813, 1), (-0.12041160167276954, 1),
            (-0.04268823745027269, 1), (-0.0003190530712841487, 2),
            (-0.00023342423618195603, 10), (-7.295905189292334e-05, 82),
            (-4.6893664171811393e-05, 3)]
    assert res.trace == [value for value, count in runs for _ in range(count)]


def test_annealing_is_seed_deterministic():
    a = annealing_search(SearchSpec(objective=bowl, seed=9))
    b = annealing_search(SearchSpec(objective=bowl, seed=9))
    assert a.point == b.point and a.value == b.value


def test_annealing_prefers_the_global_basin_of_a_two_peak_surface():
    def two_peaks(eta, beta):
        tall = np.exp(-60.0 * ((eta - 0.8) ** 2 + (beta - 0.8) ** 2))
        short = 0.4 * np.exp(-60.0 * ((eta - 0.2) ** 2 + (beta - 0.2) ** 2))
        return tall + short

    hits = sum(
        annealing_search(SearchSpec(objective=two_peaks, seed=s)).point[0] > 0.5
        for s in range(10))
    assert hits >= 8


# -- pinned baselines -----------------------------------------------------------------

def test_fixed_point_evaluates_once():
    res = fixed_point_search(SearchSpec(objective=bowl))
    assert res.evaluations == 1
    assert res.point == (0.5, 0.5)
    assert res.value == bowl(0.5, 0.5)


def test_fixed_eta_scans_beta_only():
    res = fixed_eta_search(SearchSpec(objective=bowl, vectorized=True))
    assert res.evaluations == 99
    assert res.point[0] == 0.5
    assert_allclose(res.point[1], 0.7, atol=1e-12)
    assert_allclose(res.value, bowl(0.5, 0.7), atol=1e-15)


def test_fixed_beta_scans_eta_only():
    res = fixed_beta_search(SearchSpec(objective=bowl, vectorized=True))
    assert res.evaluations == 99
    assert res.point[1] == 0.5
    assert_allclose(res.point[0], 0.3, atol=1e-12)
    assert_allclose(res.value, bowl(0.3, 0.5), atol=1e-15)


def test_fixed_searchers_accept_custom_pins():
    res = fixed_eta_search(SearchSpec(objective=bowl, vectorized=True), eta=0.9)
    assert_allclose(res.point, (0.9, 0.7), atol=1e-12)
    res = fixed_beta_search(SearchSpec(objective=bowl, vectorized=True), beta=0.1)
    assert_allclose(res.point, (0.3, 0.1), atol=1e-12)
    res = fixed_point_search(SearchSpec(objective=bowl), eta=0.25, beta=0.75)
    assert res.point == (0.25, 0.75)


@pytest.mark.parametrize("search, scanned", [(fixed_eta_search, 1), (fixed_beta_search, 0)])
def test_fixed_scans_stop_at_the_budget(search, scanned):
    counter = CallCounter(bowl)
    res = search(SearchSpec(objective=counter, vectorized=False, budget=10))
    assert res.evaluations == 10
    assert counter.calls == 10
    assert len(res.trace) == 10
    assert_allclose(res.point[scanned], 0.10, atol=1e-12)  # best of the first ten points
