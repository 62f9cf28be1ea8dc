"""Power-split searchers on analytically known surfaces."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_block_design, random_blocked, unit

from airsdm.harness import _SEARCHERS
from airsdm.model import NoiseProfile
from airsdm import pa_search
from airsdm.nsp_mrr import PaScalarContext
from airsdm.pa_search import (
    SearchResult,
    annealing_search,
    exhaustive_search,
    fixed_beta_search,
    fixed_eta_search,
    fixed_point_search,
    pso_search,
    _reflect,
    search_stack,
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


def nan_cell(eta, beta):
    """The bowl with NaN on the single grid cell (0.30, 0.01)."""
    return np.where((np.abs(eta - 0.3) < 0.005) & (np.abs(beta - 0.01) < 0.005),
                    np.nan, bowl(eta, beta))


def nan_cross(eta, beta):
    """The bowl with NaN on the strips eta ~ 0.3 and beta ~ 0.3: the strips cut
    every grid row and both pinned scans, and hold the start (0.3, 0.3)."""
    cross = (np.abs(eta - 0.3) < 0.02) | (np.abs(beta - 0.3) < 0.02)
    return np.where(cross, np.nan, bowl(eta, beta))


def all_nan(eta, beta):
    return np.full(np.shape(eta), np.nan)


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


def test_grid_finds_the_on_grid_peak():
    res = exhaustive_search(bowl)
    assert_allclose(res.point, (0.3, 0.7), atol=1e-12)
    assert_allclose(res.value, 0.0, atol=1e-24)


def test_grid_ties_go_to_the_smallest_pair():
    res = exhaustive_search(lambda e, b: np.zeros_like(e))
    assert res.point == (0.01, 0.01)


def row_by_row_scan(objective):
    """Reference grid scan: one objective call per grid row, NaN counted as -inf."""
    axis = np.linspace(0.01, 0.99, 99)
    best_val, best_pt, evals = -math.inf, (float(axis[0]), float(axis[0])), 0
    for eta in axis:
        row = np.asarray(objective(np.full(axis.size, eta), axis), dtype=float)
        row = np.where(np.isnan(row), -np.inf, row)
        evals += axis.size
        j = int(np.argmax(row))
        if row[j] > best_val:
            best_val, best_pt = float(row[j]), (float(eta), float(axis[j]))
    return SearchResult(best_pt, best_val, evals)


def assert_same_result(a, b):
    assert a.point == b.point
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_grid_calls_a_vectorized_objective_once():
    counter = CallCounter(bowl)
    exhaustive_search(counter)
    assert counter.calls == 1


def test_one_call_scan_matches_the_row_by_row_scan():
    for objective in (bowl, terraced, nan_cell):
        assert_same_result(exhaustive_search(objective), row_by_row_scan(objective))


def test_one_call_scan_matches_the_row_by_row_scan_on_a_secrecy_surface():
    rng = np.random.default_rng(21)
    noise = NoiseProfile(sigma2_irs=0.03, sigma2_b=0.05, sigma2_e=0.04)
    for _ in range(3):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, noise)
        ctx = PaScalarContext(bch, replace(d, v_b=unit(d.v_b), v_e=unit(d.v_e)), noise)
        assert_same_result(exhaustive_search(ctx), row_by_row_scan(ctx))


# -- particle swarm --------------------------------------------------------------

def test_pso_stays_in_the_box_and_meets_its_budget():
    res = pso_search(bowl, 7)
    assert res.evaluations == 30 * 101
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99


def test_pso_nearly_solves_a_smooth_surface():
    res = pso_search(bowl, 1)
    assert res.value >= -1e-6          # true max is 0
    assert abs(res.point[0] - 0.3) <= 1e-2
    assert abs(res.point[1] - 0.7) <= 1e-2


def test_pso_is_seed_deterministic():
    a = pso_search(tilted, 5)
    b = pso_search(tilted, 5)
    assert a.point == b.point and a.value == b.value
    assert pso_search(bowl, 6).point != pso_search(bowl, 5).point


def test_pso_golden_run_on_the_bowl():
    # Recorded before the swarm settings became module constants.
    res = pso_search(bowl, 7)
    assert res.point == (0.30000000364585944, 0.7000000168738753)
    assert res.value == -2.9801995865192557e-16
    assert res.evaluations == 3030


# -- simulated annealing ------------------------------------------------------------

def test_annealing_budget_and_box():
    res = annealing_search(bowl, 3)
    assert res.evaluations == 100 * 20 + 1
    assert 0.01 <= res.point[0] <= 0.99
    assert 0.01 <= res.point[1] <= 0.99


def test_annealing_nearly_solves_a_smooth_surface():
    res = annealing_search(bowl, 11)
    assert res.value >= -1e-4
    assert abs(res.point[0] - 0.3) <= 0.05
    assert abs(res.point[1] - 0.7) <= 0.05


def test_annealing_golden_run_on_the_bowl():
    # Recorded with the pre-drawn stream: start, then every step, then every draw.
    res = annealing_search(bowl, 3)
    assert res.point == (0.30197104346367887, 0.6985468534949637)
    assert res.value == -5.9966471008103036e-06
    assert res.evaluations == 2001


@pytest.mark.parametrize("surface", [bowl, terraced], ids=["bowl", "terraced"])
@pytest.mark.parametrize("start", [None, (0.9, 0.1)], ids=["cold", "warm"])
def test_annealing_reads_one_pre_drawn_stream(monkeypatch, surface, start):
    """The chain's stream: the uniform start (cold only), all (100, 20, 2)
    Gaussian steps in one draw, then all (100, 20) Metropolis uniforms in one
    draw; proposal k is the reflected chain point plus step k, and uniform k
    is read only when move k is worse."""
    made = []
    fresh = np.random.default_rng

    def capturing(seed):
        made.append(fresh(seed))
        return made[-1]

    seen = []

    def recording(eta, beta):
        value = float(surface(eta, beta))
        seen.append((eta, beta, value))
        return value

    monkeypatch.setattr(np.random, "default_rng", capturing)
    res = annealing_search(recording, 8, start=start)
    monkeypatch.undo()

    ref = np.random.default_rng(8)
    z = tuple(ref.uniform(0.01, 0.99, size=2).tolist()) if start is None else start
    steps = ref.normal(0.0, 0.05, (100, 20, 2)).reshape(-1, 2).tolist()
    draws = ref.random((100, 20)).ravel().tolist()
    assert len(made) == 1
    assert made[0].bit_generator.state == ref.bit_generator.state
    assert len(seen) == res.evaluations == 2001
    assert seen[0][:2] == z

    def energy(value):
        return -math.inf if math.isnan(value) else value

    fz, temp = energy(seen[0][2]), 1.0
    for k, ((eta, beta, value), step, draw) in enumerate(zip(seen[1:], steps, draws)):
        assert (eta, beta) == (_reflect(z[0] + step[0]), _reflect(z[1] + step[1]))
        loss = fz - energy(value)
        if loss <= 0.0 or draw < math.exp(-loss / temp):
            z, fz = (eta, beta), energy(value)
        if k % 20 == 19:
            temp *= 0.95


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


# -- the NaN rule ------------------------------------------------------------------

@pytest.mark.parametrize("method", sorted(_SEARCHERS))
@pytest.mark.parametrize("surface, start", [(nan_cell, None), (nan_cross, None),
                                            (nan_cross, (0.3, 0.3)), (all_nan, None)],
                         ids=["nan-cell", "nan-cross", "nan-start", "all-nan"])
def test_nan_counts_as_minus_infinity(method, surface, start):
    """The result is the best non-NaN candidate evaluated, at its own point;
    -inf at an evaluated point in the box only when every candidate was NaN."""
    seen = {}

    def recording(eta, beta):
        out = surface(eta, beta)
        for e, b, v in zip(np.ravel(eta), np.ravel(beta), np.ravel(out)):
            seen[(float(e), float(b))] = float(v)
        return out

    res = _SEARCHERS[method](recording, 2, start=start)
    assert res.point in seen
    assert 0.01 <= min(res.point) and max(res.point) <= 0.99
    finite = [v for v in seen.values() if not math.isnan(v)]
    if finite:
        assert res.value == max(finite) == seen[res.point]
    else:
        assert res.value == -math.inf


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
                assert res.evaluations == 2001


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
    assert res.point == (0.2990092268937, 0.6980858156337512)
    assert res.value == -4.645733136158589e-06
    assert res.evaluations == 2001


# -- stacked searches -----------------------------------------------------------------

class RowStack:
    """A stacked objective whose row i is the one-row surface ``surfaces[i]``."""

    def __init__(self, surfaces):
        self.surfaces = surfaces
        self.calls = 0

    def __call__(self, eta, beta):
        self.calls += 1
        return np.stack([f(e, b) for f, e, b in zip(self.surfaces, eta, beta)])

    def __getitem__(self, i):
        return self.surfaces[i]


def secrecy_contexts(count):
    """Per-seed secrecy surfaces of random blocked channels; noise, p_s and mu shared."""
    rng = np.random.default_rng(31)
    noise = NoiseProfile(sigma2_irs=0.03, sigma2_b=0.05, sigma2_e=0.04)
    rows = []
    for _ in range(count):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, noise)
        d = replace(d, v_b=unit(d.v_b), v_e=unit(d.v_e), pa=replace(d.pa, mu=0.8))
        rows.append(PaScalarContext(bch, d, noise))
    return rows


def assert_stack_matches_one_by_one(searcher, stack, seeds, starts):
    stacked = search_stack(searcher, stack, seeds, starts)
    assert len(stacked) == len(seeds)
    for i, (seed, start) in enumerate(zip(seeds, starts)):
        assert_same_result(stacked[i], searcher(stack[i], seed, start=start))


@pytest.mark.parametrize("searcher", ALL_SEARCHERS)
@pytest.mark.parametrize("size", [1, 3])
def test_a_stacked_search_is_the_one_by_one_search_on_secrecy_surfaces(searcher, size):
    rows = secrecy_contexts(size)
    seeds = [4, 9, 2][:size]
    for starts in ([None] * size, [(0.9, 0.1), (0.3, 0.7), (0.01, 0.99)][:size]):
        assert_stack_matches_one_by_one(searcher, PaScalarContext.stack(rows), seeds, starts)


@pytest.mark.parametrize("searcher", ALL_SEARCHERS)
@pytest.mark.parametrize("surfaces", [[nan_cross], [nan_cell, all_nan, terraced],
                                      [bowl, nan_cross, tilted]],
                         ids=["one", "nan-rows", "mixed"])
def test_a_stacked_search_keeps_the_nan_rule_of_each_row(searcher, surfaces):
    starts = [(0.3, 0.3), None, (0.5, 0.2)][:len(surfaces)]
    assert_stack_matches_one_by_one(searcher, RowStack(surfaces), [5, 6, 7][:len(surfaces)],
                                    starts)


def test_stacked_swarms_make_one_objective_call_per_sweep():
    stack = RowStack([bowl, tilted, terraced])
    results = search_stack(pso_search, stack, [1, 2, 3], [None] * 3)
    assert stack.calls == 1 + 100
    assert [r.evaluations for r in results] == [30 * 101] * 3


def test_stacked_swarms_are_the_golden_run_in_every_row():
    results = search_stack(pso_search, RowStack([bowl, bowl]), [7, 7], [None, None])
    for res in results:
        assert res.point == (0.30000000364585944, 0.7000000168738753)
        assert res.value == -2.9801995865192557e-16


def test_a_stacked_search_checks_every_start_and_its_length():
    for searcher in ALL_SEARCHERS:
        with pytest.raises(ValueError, match="start"):
            search_stack(searcher, RowStack([bowl, bowl]), [1, 2], [None, (0.5, 1.0)])
        with pytest.raises(ValueError, match="one start per seed"):
            search_stack(searcher, RowStack([bowl, bowl]), [1, 2], [None])


# -- annealing chains as one array chain ------------------------------------------------

def minus_inf(eta, beta):
    return np.full(np.shape(eta), -np.inf)


class CountedStack(CallCounter):
    """A stacked objective that counts its stacked calls; row i is its own."""

    def __getitem__(self, i):
        return self.objective[i]


def test_level_draws_read_each_stream_as_the_one_shot_draws():
    seeds = [3, 8, 11]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rngs[1].uniform(0.01, 0.99, size=2)          # a cold start draws first
    levels = list(pa_search._level_draws(rngs))
    assert len(levels) == pa_search.LEVELS
    steps = np.stack([s for s, _ in levels])     # (LEVELS, PROPOSALS, 2, S)
    draws = np.stack([d for _, d in levels])     # (LEVELS, PROPOSALS, S)
    for i, seed in enumerate(seeds):
        ref = np.random.default_rng(seed)
        if i == 1:
            ref.uniform(0.01, 0.99, size=2)
        assert np.array_equal(steps[..., i], ref.normal(0.0, 0.05, (100, 20, 2)))
        assert np.array_equal(draws[..., i], ref.random((100, 20)))


def assert_array_chain_is_the_float_chains(stack, seeds, starts):
    counted = CountedStack(stack)
    stacked = search_stack(annealing_search, counted, seeds, starts)
    assert counted.calls == pa_search.LEVELS * pa_search.PROPOSALS
    for i, (seed, start) in enumerate(zip(seeds, starts)):
        assert_same_result(stacked[i], annealing_search(stack[i], seed, start=start))


WARM = [(0.9, 0.1), (0.3, 0.7), (0.01, 0.99), (0.99, 0.01), (0.5, 0.5)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", [32, 40])
@pytest.mark.parametrize("starts", ["cold", "warm", "mixed"])
def test_an_array_chain_is_the_float_chains_on_secrecy_surfaces(size, starts):
    rows = secrecy_contexts(size)
    chosen = {"cold": [None] * size,
              "warm": [WARM[i % 5] for i in range(size)],
              "mixed": [None if i % 3 else WARM[i % 5] for i in range(size)]}[starts]
    assert_array_chain_is_the_float_chains(PaScalarContext.stack(rows),
                                           list(range(100, 100 + size)), chosen)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", [32, 40])
def test_an_array_chain_keeps_the_nan_rule_of_each_row(size):
    surfaces = [terraced, minus_inf, nan_cross, all_nan, bowl, tilted, nan_cell]
    rows = [surfaces[i % len(surfaces)] for i in range(size)]
    starts = [(0.3, 0.3) if i % 4 == 2 else (None if i % 2 else (0.5, 0.2)) for i in range(size)]
    assert_array_chain_is_the_float_chains(RowStack(rows), list(range(size)), starts)


def test_a_stack_below_the_threshold_runs_float_chains():
    size = pa_search.ARRAY_CHAINS - 1
    stack = CountedStack(RowStack([bowl, tilted] * size))
    results = search_stack(annealing_search, stack, list(range(size)), [None] * size)
    assert stack.calls == 0
    for i, res in enumerate(results):
        assert_same_result(res, annealing_search(stack[i], i))


def test_the_array_metropolis_test_decides_near_ties_as_the_float_chain():
    """Where np.exp and math.exp differ in the last bit, a draw between them
    must get the float chain's decision: a draw equal to np.exp(x) below
    math.exp(x) is accepted."""
    sample = np.random.default_rng(21).uniform(-30.0, -1e-3, 20000).tolist()
    below = [x for x in sample if np.exp(x) < math.exp(x)]
    for x in below[:40] + sample[:40]:
        exact = math.exp(x)
        draws = [float(np.exp(x)), exact]
        draws += [float(np.nextafter(exact, k)) for k in (0.0, 1.0)]
        draws += [exact + k * float(np.spacing(exact)) for k in (-3, -2, 2, 3)]
        for temp in (1.0, 0.5):
            fz, fc = np.zeros((len(draws), 1)), np.full((len(draws), 1), x * temp)
            take = pa_search._metropolis(fz, fc, np.array(draws)[:, None], temp)
            loss = 0.0 - x * temp
            assert take[:, 0].tolist() == [d < math.exp(-loss / temp) for d in draws]
    if below:                                    # np.exp is below math.exp somewhere
        x = below[0]
        take = pa_search._metropolis(np.zeros((1, 1)), np.full((1, 1), x),
                                     np.full((1, 1), np.exp(x)), 1.0)
        assert take[0, 0]
