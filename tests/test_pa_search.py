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
    res = exhaustive_search(bowl)
    assert res.evaluations == 99 * 99
    assert len(res.trace) == 99


def test_grid_finds_the_on_grid_peak():
    res = exhaustive_search(bowl)
    assert_allclose(res.point, (0.3, 0.7), atol=1e-12)
    assert_allclose(res.value, 0.0, atol=1e-24)


def test_grid_trace_is_non_decreasing():
    res = exhaustive_search(bowl)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.trace[-1] == res.value


def test_grid_ties_go_to_the_smallest_pair():
    res = exhaustive_search(lambda e, b: np.zeros_like(e))
    assert res.point == (0.01, 0.01)


def row_by_row_scan(objective):
    """Reference grid scan: one objective call per grid row."""
    axis = np.linspace(0.01, 0.99, 99)
    best_val, best_pt, trace, evals = -math.inf, (float(axis[0]), float(axis[0])), [], 0
    for eta in axis:
        row = np.asarray(objective(np.full(axis.size, eta), axis), dtype=float)
        evals += axis.size
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
    counter = CallCounter(bowl)
    exhaustive_search(counter)
    assert counter.calls == 1


def test_one_call_scan_matches_the_row_by_row_scan():
    for objective in (bowl, terraced):
        assert_same_result(exhaustive_search(objective), row_by_row_scan(objective))


def test_one_call_scan_matches_the_row_by_row_scan_on_a_secrecy_surface():
    rng = np.random.default_rng(21)
    noise = NoiseProfile(sigma2_irs=0.03, sigma2_b=0.05, sigma2_e=0.04)
    for _ in range(3):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, noise)
        ctx = PaScalarContext(bch, unit(d.v_b), unit(d.v_e), d.theta1, d.theta2,
                              d.pa.mu, d.p_s, noise)
        assert_same_result(exhaustive_search(ctx), row_by_row_scan(ctx))


# -- particle swarm --------------------------------------------------------------

def test_pso_stays_in_the_box_and_meets_its_budget():
    res = pso_search(bowl, 7)
    assert res.evaluations == 30 * 101
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))


def test_pso_nearly_solves_a_smooth_surface():
    res = pso_search(bowl, 1)
    assert res.value >= -1e-6          # true max is 0
    assert abs(res.point[0] - 0.3) <= 1e-2
    assert abs(res.point[1] - 0.7) <= 1e-2


def test_pso_is_seed_deterministic():
    a = pso_search(tilted, 5)
    b = pso_search(tilted, 5)
    assert a.point == b.point and a.value == b.value and a.trace == b.trace
    c = pso_search(tilted, 6)
    assert c.point != a.point or c.trace != a.trace


def test_pso_golden_run_on_the_bowl():
    # Recorded before the swarm settings became module constants.
    res = pso_search(bowl, 7)
    assert res.point == (0.30000000364585944, 0.7000000168738753)
    assert res.value == -2.9801995865192557e-16
    assert res.evaluations == 3030
    runs = [(-0.01487117337686665, 1), (-0.0005441418410210482, 2),
            (-0.0001832807391964891, 1), (-0.00011461500892055918, 3),
            (-5.5752621119903344e-05, 1), (-1.3895578181022185e-05, 2),
            (-4.232055260879083e-06, 2), (-9.182303537757887e-07, 2),
            (-2.1618611079436553e-07, 7), (-1.1161151241930541e-08, 4),
            (-7.598633919154386e-09, 6), (-5.143385417877296e-09, 2),
            (-2.066182043575242e-09, 7), (-1.4252043934094124e-09, 6),
            (-9.304410414273188e-10, 1), (-2.3161334726910172e-10, 1),
            (-1.332455986161762e-10, 2), (-1.0386413802777477e-10, 2),
            (-9.155667460117857e-11, 1), (-5.1096435638006106e-11, 1),
            (-2.986762796085844e-11, 1), (-1.848320878956805e-11, 1),
            (-1.2217231009310303e-11, 1), (-8.665573226256914e-12, 1),
            (-6.588330843257416e-12, 1), (-2.6440824890968104e-12, 1),
            (-1.7711062200584595e-12, 1), (-7.321732138935788e-13, 1),
            (-7.181319453124846e-13, 2), (-4.528982673205668e-13, 1),
            (-2.0089192033076226e-13, 1), (-1.0847772358445752e-13, 1),
            (-8.494300650454818e-14, 4), (-8.11580615237555e-14, 1),
            (-7.912173219168082e-14, 1), (-7.838769775807354e-14, 1),
            (-7.821265775986662e-14, 3), (-7.818563058625288e-14, 1),
            (-7.816088801675391e-14, 1), (-7.814361909286821e-14, 1),
            (-7.8131555788419e-14, 1), (-7.812312369379751e-14, 1),
            (-7.811722719145822e-14, 1), (-7.811310259497877e-14, 1),
            (-7.811021681666987e-14, 1), (-1.0458197718456758e-14, 2),
            (-1.4857414038643796e-15, 3), (-1.0118192639323305e-15, 1),
            (-7.009844063718046e-16, 3), (-3.280451697713561e-16, 6),
            (-2.9801995865192557e-16, 1)]
    assert res.trace == [value for value, count in runs for _ in range(count)]


# -- simulated annealing ------------------------------------------------------------

def test_annealing_budget_and_box():
    res = annealing_search(bowl, 3)
    assert res.evaluations == 100 * 20 + 1
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))


def test_annealing_nearly_solves_a_smooth_surface():
    res = annealing_search(bowl, 11)
    assert res.value >= -1e-4
    assert abs(res.point[0] - 0.3) <= 0.05
    assert abs(res.point[1] - 0.7) <= 0.05


def test_annealing_golden_run_on_the_bowl():
    # Recorded from the array-state implementation this float loop replaced.
    res = annealing_search(bowl, 3)
    assert res.point == (0.30108615815685413, 0.7067612073352405)
    assert res.value == -4.6893664171811393e-05
    assert res.evaluations == 2001
    runs = [(-0.1683437586601813, 1), (-0.12041160167276954, 1),
            (-0.04268823745027269, 1), (-0.0003190530712841487, 2),
            (-0.00023342423618195603, 10), (-7.295905189292334e-05, 82),
            (-4.6893664171811393e-05, 3)]
    assert res.trace == [value for value, count in runs for _ in range(count)]


def test_annealing_is_seed_deterministic():
    a = annealing_search(bowl, 9)
    b = annealing_search(bowl, 9)
    assert a.point == b.point and a.value == b.value


def test_annealing_prefers_the_global_basin_of_a_two_peak_surface():
    def two_peaks(eta, beta):
        tall = np.exp(-60.0 * ((eta - 0.8) ** 2 + (beta - 0.8) ** 2))
        short = 0.4 * np.exp(-60.0 * ((eta - 0.2) ** 2 + (beta - 0.2) ** 2))
        return tall + short

    hits = sum(
        annealing_search(two_peaks, s).point[0] > 0.5
        for s in range(10))
    assert hits >= 8


# -- pinned baselines -----------------------------------------------------------------

def test_fixed_point_evaluates_once():
    res = fixed_point_search(bowl)
    assert res.evaluations == 1
    assert res.point == (0.5, 0.5)
    assert res.value == bowl(0.5, 0.5)


def test_fixed_eta_scans_beta_only():
    res = fixed_eta_search(bowl)
    assert res.evaluations == 99
    assert res.point[0] == 0.5
    assert_allclose(res.point[1], 0.7, atol=1e-12)
    assert_allclose(res.value, bowl(0.5, 0.7), atol=1e-15)


def test_fixed_beta_scans_eta_only():
    res = fixed_beta_search(bowl)
    assert res.evaluations == 99
    assert res.point[1] == 0.5
    assert_allclose(res.point[0], 0.3, atol=1e-12)
    assert_allclose(res.value, bowl(0.3, 0.5), atol=1e-15)


# -- warm start ---------------------------------------------------------------------

STARTS = [(0.9, 0.1), (0.3, 0.7), (0.01, 0.99), (0.99, 0.01)]
BAD_STARTS = [(0.0, 0.5), (0.5, 1.0), (0.005, 0.5), (0.5, 0.995), (math.nan, 0.5),
              (0.5, math.inf), (-math.inf, 0.5), (0.5,), (0.1, 0.2, 0.3), "ab", 0.5,
              (None, 0.5)]
ALL_SEARCHERS = [exhaustive_search, pso_search, annealing_search,
                 fixed_point_search, fixed_eta_search, fixed_beta_search]


@pytest.mark.parametrize("searcher", [exhaustive_search, pso_search, fixed_point_search,
                                      fixed_eta_search, fixed_beta_search])
def test_searchers_other_than_annealing_ignore_the_start(searcher):
    for objective in (bowl, tilted):
        cold = searcher(objective, 4)
        for start in STARTS + [np.array([0.5, 0.5])]:
            assert_same_result(searcher(objective, 4, start=start), cold)


@pytest.mark.parametrize("searcher", ALL_SEARCHERS)
def test_a_start_outside_the_box_or_not_a_finite_pair_raises(searcher):
    for start in BAD_STARTS:
        with pytest.raises(ValueError, match="start"):
            searcher(bowl, 1, start=start)


def test_annealing_without_a_start_is_the_cold_search():
    assert_same_result(annealing_search(bowl, 3, start=None), annealing_search(bowl, 3))


def test_warm_annealing_never_ends_below_its_start():
    for objective in (bowl, tilted):
        for start in STARTS:
            for seed in range(4):
                res = annealing_search(objective, seed, start=start)
                assert res.value >= objective(*start)
                assert res.trace[0] >= objective(*start)
                assert res.evaluations == 2001
                assert len(res.trace) == 100


def test_warm_annealing_begins_at_the_start_and_draws_no_uniform_point():
    seen = []

    def recording(eta, beta):
        seen.append((eta, beta))
        return bowl(eta, beta)

    res = annealing_search(recording, 5, start=(0.9, 0.1))
    assert len(seen) == res.evaluations == 2001
    assert seen[0] == (0.9, 0.1)
    # the first proposal is the first normal draw of a fresh stream
    step = np.random.default_rng(5).normal(0.0, 0.05, size=2)
    assert_allclose(seen[1], (0.9 + step[0], 0.1 + step[1]), rtol=0, atol=1e-15)


def test_warm_annealing_golden_run_on_the_bowl():
    res = annealing_search(bowl, 3, start=(0.9, 0.1))
    assert res.point == (0.2987504627652005, 0.701868680104511)
    assert res.value == -5.053308634145658e-06
    assert res.evaluations == 2001
    runs = [(-0.5004392518019556, 1), (-0.4780267810914766, 1),
            (-0.18954676203163984, 1), (-0.12251860745830125, 1),
            (-0.10224603090070614, 4), (-0.09908944004998646, 4),
            (-0.05524960345592088, 1), (-0.0354970433040335, 1),
            (-0.004468122349534878, 1), (-2.413826652762721e-05, 68),
            (-5.053308634145658e-06, 17)]
    assert res.trace == [value for value, count in runs for _ in range(count)]
