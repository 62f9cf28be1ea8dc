"""Alternating surrogate ascent: aux tightness, block assembly, the runner.

The assembly oracles are difference probes: a block's QCQP objective and
constraint must track the full surrogate and the total power exactly as
that block's variable moves, holding everything else fixed.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, overspend_seed, random_channelset, random_design

from airsdm import ldt_cffp
from airsdm.ldt_cffp import (
    BudgetExhausted,
    _assemble_block,
    assemble_theta,
    assemble_vb,
    assemble_ve,
    initial_design,
    optimal_aux,
    run_ldt_cffp,
    run_ldt_cffp_seeds,
    solve_qcqp,
    solve_qcqp_stack,
)
from airsdm.model import (Design, DesignState, NoiseProfile, effective_channel, ldt_objective,
                          secrecy_rate, snr_pair, total_power, virtual_rate)
from airsdm.scene import benchmark_scene, build_channels
from airsdm.trace import RunTrace


NOISE = NoiseProfile(sigma2_irs=0.05, sigma2_b=0.07, sigma2_e=0.06)


def qcqp_objective(prob, x):
    return float(2.0 * np.vdot(prob.a, x).real - np.vdot(x, prob.A @ x).real)


def qcqp_constraint(prob, x):
    return float(np.vdot(x, prob.F @ x).real)


# -- auxiliary fixed point ----------------------------------------------------

def test_optimal_aux_lambdas_are_the_sinrs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ch = random_channelset(rng)
        d = random_design(rng, ch, NOISE, p_max=4.0)
        aux = optimal_aux(ch, d, NOISE)
        snr_b, _ = snr_pair(ch, d, NOISE)
        assert_allclose(aux.lam_b, snr_b, rtol=1e-12)
        assert aux.lam_e >= 0.0


def test_surrogate_is_tight_at_the_aux_fixed_point():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ch = random_channelset(rng, m=4, n=8)
        d = random_design(rng, ch, NOISE, p_max=4.0)
        aux = optimal_aux(ch, d, NOISE)
        vr = virtual_rate(ch, d, NOISE, base=math.e)
        assert_allclose(ldt_objective(ch, d, NOISE, aux), vr, rtol=1e-10)


def test_aux_satisfies_all_stationarity_conditions():
    rng = np.random.default_rng(2)
    ch = random_channelset(rng)
    d = random_design(rng, ch, NOISE, p_max=4.0)
    aux = optimal_aux(ch, d, NOISE)
    # perturbing any auxiliary away from the fixed point can only lose
    base = ldt_objective(ch, d, NOISE, aux)
    from airsdm.model import AuxVars
    for eps in (1e-3, -1e-3):
        worse = ldt_objective(ch, d, NOISE, AuxVars(
            lam_b=max(0.0, aux.lam_b + eps), lam_e=aux.lam_e,
            mu_b=aux.mu_b, mu_e=aux.mu_e))
        assert worse <= base + 1e-12
        worse = ldt_objective(ch, d, NOISE, AuxVars(
            lam_b=aux.lam_b, lam_e=aux.lam_e,
            mu_b=aux.mu_b * (1.0 + eps), mu_e=aux.mu_e))
        assert worse <= base + 1e-12


# -- block assembly probes ------------------------------------------------------

def _random_state(rng, m=4, n=8, p_max=6.0):
    ch = random_channelset(rng, m=m, n=n)
    d = random_design(rng, ch, NOISE, p_max=p_max, fill=0.7)
    aux = optimal_aux(ch, d, NOISE)
    return ch, d, aux


def test_vb_problem_tracks_surrogate_and_power():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ch, d, aux = _random_state(rng)
        prob = assemble_vb(ch, d, NOISE, aux, p_max=6.0)
        x, y = crandn(rng, 4), crandn(rng, 4)

        dx, dy = d.copy(), d.copy()
        dx.v_b, dy.v_b = x, y
        lhs = qcqp_objective(prob, x) - qcqp_objective(prob, y)
        rhs = ldt_objective(ch, dx, NOISE, aux) - ldt_objective(ch, dy, NOISE, aux)
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

        # constraint value + spent budget = total power at that beam
        spent = 6.0 - prob.p_budget
        assert_allclose(qcqp_constraint(prob, x) + spent,
                        total_power(ch, dx, NOISE), rtol=1e-10)


def test_ve_problem_tracks_surrogate_and_power():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ch, d, aux = _random_state(rng)
        prob = assemble_ve(ch, d, NOISE, aux, p_max=6.0)
        x, y = crandn(rng, 4), crandn(rng, 4)

        dx, dy = d.copy(), d.copy()
        dx.v_e, dy.v_e = x, y
        lhs = qcqp_objective(prob, x) - qcqp_objective(prob, y)
        rhs = ldt_objective(ch, dx, NOISE, aux) - ldt_objective(ch, dy, NOISE, aux)
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

        spent = 6.0 - prob.p_budget
        assert_allclose(qcqp_constraint(prob, x) + spent,
                        total_power(ch, dx, NOISE), rtol=1e-10)


def test_theta_problem_tracks_surrogate_and_power():
    """The reflect QCQP's variable is the conjugate of the design vector."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        ch, d, aux = _random_state(rng)
        prob = assemble_theta(ch, d, NOISE, aux, p_max=6.0)
        tx, ty = crandn(rng, 8), crandn(rng, 8)

        dx, dy = d.copy(), d.copy()
        dx.theta, dy.theta = tx, ty
        lhs = qcqp_objective(prob, tx.conj()) - qcqp_objective(prob, ty.conj())
        rhs = ldt_objective(ch, dx, NOISE, aux) - ldt_objective(ch, dy, NOISE, aux)
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

        spent = 6.0 - prob.p_budget
        assert_allclose(qcqp_constraint(prob, tx.conj()) + spent,
                        total_power(ch, dx, NOISE), rtol=1e-10)


def test_block_budgets_partition_total_power():
    rng = np.random.default_rng(6)
    ch, d, aux = _random_state(rng)
    p = 6.0
    for assemble, attr in ((assemble_vb, "v_b"), (assemble_ve, "v_e")):
        prob = assemble(ch, d, NOISE, aux, p_max=p)
        x_now = getattr(d, attr)
        assert_allclose(qcqp_constraint(prob, x_now) + (p - prob.p_budget),
                        total_power(ch, d, NOISE), rtol=1e-10)
    prob = assemble_theta(ch, d, NOISE, aux, p_max=p)
    assert_allclose(qcqp_constraint(prob, d.theta.conj()) + (p - prob.p_budget),
                    total_power(ch, d, NOISE), rtol=1e-10)


def test_assemblers_raise_on_exhausted_budget():
    rng = np.random.default_rng(7)
    ch = random_channelset(rng)
    aux = optimal_aux(ch, random_design(rng, ch, NOISE, p_max=4.0), NOISE)
    glut = Design(v_b=10.0 * crandn(rng, 4), v_e=10.0 * crandn(rng, 4),
                  theta=crandn(rng, 8))
    with pytest.raises(BudgetExhausted):
        assemble_vb(ch, glut, NOISE, aux, p_max=1.0)
    with pytest.raises(BudgetExhausted):
        assemble_ve(ch, glut, NOISE, aux, p_max=1.0)
    with pytest.raises(BudgetExhausted):
        assemble_theta(ch, glut, NOISE, aux, p_max=1.0)


def test_shared_ve_problem_matches_fresh_assembly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ch, d, aux = _random_state(rng)
        shared = assemble_vb(ch, d, NOISE, aux, p_max=6.0)
        d.v_b = solve_qcqp(shared).x          # the runner's v_b step
        fresh = assemble_ve(ch, d, NOISE, aux, p_max=6.0)
        reused = assemble_ve(ch, d, NOISE, aux, p_max=6.0, shared=shared)
        assert reused._T is shared._T
        assert reused.p_budget == fresh.p_budget
        assert_allclose(reused.a, fresh.a, rtol=1e-15)
        s_fresh, s_reused = solve_qcqp(fresh), solve_qcqp(reused)
        assert_allclose(s_reused.x, s_fresh.x, rtol=1e-12, atol=0)
        assert_allclose(s_reused.nu, s_fresh.nu, rtol=1e-12)


def test_budget_rescue_bypasses_the_shared_factorization():
    rng = np.random.default_rng(10)
    ch, d, aux = _random_state(rng)
    shared = assemble_vb(ch, d, NOISE, aux, p_max=6.0)
    # a total budget just below what v_b and theta spend exhausts the v_e
    # block; shrinking both by 5% frees it
    p_max = 0.99 * (6.0 - assemble_ve(ch, d, NOISE, aux, p_max=6.0).p_budget)
    rescued = d.copy()
    trace = RunTrace()
    prob = _assemble_block(assemble_ve, DesignState(ch, rescued),
                           NOISE, aux, p_max, [trace], "v_e", ("v_b", "theta"), shared=shared)
    assert trace.flags == ["budget-rescue:v_e"]
    assert_allclose(rescued.theta, 0.95 * d.theta, rtol=1e-15)
    fresh = assemble_ve(ch, rescued, NOISE, aux, p_max)
    assert prob._T is not shared._T
    assert_allclose(prob.F, fresh.F, rtol=1e-15)
    assert not np.allclose(prob.F, shared.F)
    assert_allclose(solve_qcqp(prob).x, solve_qcqp(fresh).x, rtol=1e-12)


def test_block_maximizer_improves_the_surrogate():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ch, d, aux = _random_state(rng)
        base = ldt_objective(ch, d, NOISE, aux)
        sol = solve_qcqp(assemble_vb(ch, d, NOISE, aux, p_max=6.0))
        d2 = d.copy()
        d2.v_b = sol.x
        assert ldt_objective(ch, d2, NOISE, aux) >= base - 1e-10
        assert total_power(ch, d2, NOISE) <= 6.0 * (1.0 + 1e-8)


# -- one shared evaluation per design -------------------------------------------

def _reference_values(ch, d, noise):
    """Aux, surrogate, secrecy rate and power written out per receiver."""
    t_b = effective_channel(ch.h_b, ch.g_b, ch.H_si, d.theta)
    t_e = effective_channel(ch.h_e, ch.g_e, ch.H_si, d.theta)
    s_b, i_b = np.vdot(t_b, d.v_b), np.vdot(t_b, d.v_e)
    s_e, i_e = np.vdot(t_e, d.v_b), np.vdot(t_e, d.v_e)
    amp = noise.sigma2_irs * np.abs(d.theta) ** 2
    den_b = abs(s_b) ** 2 + abs(i_b) ** 2 + np.sum(np.abs(ch.g_b) ** 2 * amp) + noise.sigma2_b
    den_e = abs(s_e) ** 2 + abs(i_e) ** 2 + np.sum(np.abs(ch.g_e) ** 2 * amp) + noise.sigma2_e
    lam_b = abs(s_b) ** 2 / (den_b - abs(s_b) ** 2)
    lam_e = abs(i_e) ** 2 / (den_e - abs(i_e) ** 2)
    mu_b = math.sqrt(1 + lam_b) * s_b / den_b
    mu_e = math.sqrt(1 + lam_e) * i_e / den_e
    surrogate = (math.log1p(lam_b) + math.log1p(lam_e) - lam_b - lam_e
                 - abs(mu_b) ** 2 * den_b - abs(mu_e) ** 2 * den_e
                 + 2 * math.sqrt(1 + lam_b) * (np.conj(mu_b) * s_b).real
                 + 2 * math.sqrt(1 + lam_e) * (np.conj(mu_e) * i_e).real)
    snr_e = abs(s_e) ** 2 / (den_e - abs(s_e) ** 2)
    sr = math.log2(1 + lam_b) - math.log2(1 + snr_e)
    power = sum(np.sum(np.abs(v) ** 2) + np.sum(np.abs(d.theta * (ch.H_si @ v)) ** 2)
                for v in (d.v_b, d.v_e)) + np.sum(amp)
    return (lam_b, lam_e, mu_b, mu_e), surrogate, sr, power


def _reference_problems(ch, d, noise, aux, p_max):
    """(a, A, F, p_budget) of the three blocks, built term by term."""
    t = {x: effective_channel(getattr(ch, "h_" + x), getattr(ch, "g_" + x), ch.H_si, d.theta)
         for x in "be"}
    lam = {"b": aux.lam_b, "e": aux.lam_e}
    mu = {"b": aux.mu_b, "e": aux.mu_e}
    v = {"b": d.v_b, "e": d.v_e}
    irs_noise = noise.sigma2_irs * np.sum(np.abs(d.theta) ** 2)
    beam = {y: np.sum(np.abs(v[y]) ** 2) + np.sum(np.abs(d.theta * (ch.H_si @ v[y])) ** 2)
            for y in "be"}
    A = sum(abs(mu[x]) ** 2 * np.outer(t[x], t[x].conj()) for x in "be")
    F = np.eye(ch.h_b.size) + ch.H_si.conj().T @ (np.abs(d.theta)[:, None] ** 2 * ch.H_si)
    out = {}
    for y, x, other in (("v_b", "b", "e"), ("v_e", "e", "b")):
        out[y] = (math.sqrt(1 + lam[x]) * mu[x] * t[x], A, F, p_max - beam[other] - irs_noise)
    # theta (conjugated): surrogate terms in c_xy = conj(g_x) * (H_si v_y), d_xy = h_x^H v_y
    c = {(x, y): getattr(ch, "g_" + x).conj() * (ch.H_si @ v[y]) for x in "be" for y in "be"}
    dd = {(x, y): np.vdot(getattr(ch, "h_" + x), v[y]) for x in "be" for y in "be"}
    chi = sum(math.sqrt(1 + lam[x]) * np.conj(mu[x]) * c[x, x] for x in "be")
    chi = chi - sum(abs(mu[x]) ** 2 * np.conj(dd[x, y]) * c[x, y] for x in "be" for y in "be")
    ups = sum(abs(mu[x]) ** 2 * np.outer(c[x, y], c[x, y].conj()) for x in "be" for y in "be")
    ups = ups + np.diag(noise.sigma2_irs * (abs(mu["b"]) ** 2 * np.abs(ch.g_b) ** 2
                                            + abs(mu["e"]) ** 2 * np.abs(ch.g_e) ** 2))
    omega = np.diag(np.abs(ch.H_si @ d.v_b) ** 2 + np.abs(ch.H_si @ d.v_e) ** 2
                    + noise.sigma2_irs)
    out["theta"] = (chi, ups, omega, p_max - np.sum(np.abs(d.v_b) ** 2) - np.sum(np.abs(d.v_e) ** 2))
    return out


def _assert_problem(prob, ref):
    a, A, F, budget = ref
    scale = np.abs(A).max()
    assert_allclose(prob.a, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())
    assert_allclose(prob.A, A, rtol=1e-12, atol=1e-12 * scale)
    assert_allclose(prob.F, F, rtol=1e-12, atol=1e-12 * np.abs(F).max())
    assert_allclose(prob.p_budget, budget, rtol=1e-12)


@pytest.mark.parametrize("m, n", [(4, 8), (3, 5), (6, 2), (1, 4)])
def test_shared_evaluation_reproduces_the_per_receiver_formulas(m, n):
    rng = np.random.default_rng(11 + m * n)
    for _ in range(20):
        ch, d, _ = _random_state(rng, m=m, n=n)
        ev = DesignState(ch, d).evaluate(NOISE)
        (lam_b, lam_e, mu_b, mu_e), surrogate, sr, power = _reference_values(ch, d, NOISE)
        aux = ldt_cffp._aux_at(ev)
        assert_allclose([aux.lam_b, aux.lam_e], [lam_b, lam_e], rtol=1e-12)
        assert_allclose([aux.mu_b, aux.mu_e], [mu_b, mu_e], rtol=1e-12)
        assert_allclose(ev.surrogate(aux), surrogate, rtol=1e-12)
        assert_allclose(ev.secrecy_rate(), sr, rtol=1e-12)
        assert_allclose(ev.power, power, rtol=1e-12)
        # the public functions are this evaluation
        public = optimal_aux(ch, d, NOISE)
        assert (public.lam_b, public.lam_e, public.mu_b, public.mu_e) == \
            (aux.lam_b, aux.lam_e, aux.mu_b, aux.mu_e)
        assert ldt_objective(ch, d, NOISE, aux) == ev.surrogate(aux)
        assert secrecy_rate(ch, d, NOISE) == ev.secrecy_rate()
        assert total_power(ch, d, NOISE) == ev.power


@pytest.mark.parametrize("m, n", [(4, 8), (3, 5), (6, 2)])
def test_assemblers_reproduce_the_term_by_term_blocks(m, n):
    """Fresh and runner-kept states give the blocks written out term by term."""
    rng = np.random.default_rng(12 + m * n)
    for _ in range(10):
        ch, d, aux = _random_state(rng, m=m, n=n)
        ref = _reference_problems(ch, d, NOISE, aux, 6.0)
        # a state moved to d through the setters, as the runner keeps it
        kept = DesignState(ch, d.copy())
        kept.set_v_b(d.v_b.copy())
        kept.set_v_e(d.v_e.copy())
        kept.set_theta(d.theta.copy())
        for block, assemble in (("v_b", assemble_vb), ("v_e", assemble_ve),
                                ("theta", assemble_theta)):
            _assert_problem(assemble(ch, d, NOISE, aux, 6.0), ref[block])
            _assert_problem(assemble(ch, kept.d, NOISE, aux, 6.0, state=kept), ref[block])


def test_assemblers_reject_a_state_of_another_design():
    rng = np.random.default_rng(13)
    ch, d, aux = _random_state(rng)
    state = DesignState(ch, d.copy())
    with pytest.raises(ValueError, match="another design"):
        assemble_theta(ch, d, NOISE, aux, 6.0, state=state)


def test_run_reproduces_the_recorded_trajectory():
    """Trace rows recorded before each iterate was evaluated once."""
    golden = json.loads((Path(__file__).parent / "data" / "ldt_cffp_golden.json").read_text())
    ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0))
    _, trace = run_ldt_cffp(ch, NoiseProfile(), p_max=1.0, seed=1)
    rows = golden["rows"]
    assert trace.iterations == len(rows)
    assert [r["iteration"] for r in trace.rows] == [r[0] for r in rows]
    for key, col in (("vr_prime", 1), ("sr_bits", 2)):
        assert_allclose(trace.objective_values(key), [r[col] for r in rows], rtol=1e-10)
    # the budget is spent to rounding, so the slack is compared against p_max
    assert_allclose(trace.objective_values("power_slack"), [r[3] for r in rows],
                    rtol=1e-10, atol=1e-10 * 1.0)


def test_run_builds_and_solves_every_block_through_the_module_globals(monkeypatch):
    """Two stacked QcqpProblem constructions and three solve_qcqp_stack calls
    per lockstep iteration, whatever the stack size, looked up on the module
    at call time, so traced runs see each of them; the one-problem
    solve_qcqp is not called."""
    counts = {"QcqpProblem": 0, "solve_qcqp_stack": 0, "solve_qcqp": 0}

    def counted(name):
        original = getattr(ldt_cffp, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(ldt_cffp, name, wrapper)

    for name in counts:
        counted(name)
    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 20)
    ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0))
    for seeds in ([1], [1, 2, 3]):
        counts.update(dict.fromkeys(counts, 0))
        runs = run_ldt_cffp_seeds([ch] * len(seeds), NoiseProfile(), p_max=1.0, seeds=seeds)
        assert not any(f.startswith("budget-") for _, trace in runs for f in trace.flags)
        lockstep = max(trace.iterations for _, trace in runs)
        assert counts == {"QcqpProblem": 2 * lockstep, "solve_qcqp_stack": 3 * lockstep,
                          "solve_qcqp": 0}


# -- lockstep stacks ------------------------------------------------------------------

def _assert_same_runs(chs, noise, p_max, stacked, alone):
    """Stacked and one-seed runs: equal iterations, flags and convergence,
    and every trace row and final rate within 1e-12 relative."""
    assert len(stacked) == len(alone)
    for ch, (d_s, t_s), (d_a, t_a) in zip(chs, stacked, alone):
        assert (t_s.iterations, t_s.converged, t_s.flags) == \
            (t_a.iterations, t_a.converged, t_a.flags)
        assert [r["iteration"] for r in t_s.rows] == [r["iteration"] for r in t_a.rows]
        for key in ("vr_prime", "sr_bits"):
            assert_allclose(t_s.objective_values(key), t_a.objective_values(key),
                            rtol=1e-12, atol=0)
        # the budget is spent to rounding, so the slack is compared against p_max
        assert_allclose(t_s.objective_values("power_slack"), t_a.objective_values("power_slack"),
                        rtol=0, atol=1e-12 * p_max)
        assert_allclose(secrecy_rate(ch, d_s, noise), secrecy_rate(ch, d_a, noise),
                        rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["staggered", "rician", "m_not_n"])
def test_lockstep_stack_matches_the_one_seed_runs(monkeypatch, kind):
    noise = NoiseProfile()
    if kind == "staggered":
        # some seeds converge, at different iterations, and some hit a lowered cap
        monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 150)
        ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0))
        chs, seeds, p_max = [ch] * 5, [2, 4, 5, 6, 1], 1.0
    elif kind == "rician":
        # scattered channels: every seed of the stack has its own draw
        chs = [build_channels(benchmark_scene(m_bs=4, n_irs=8, rician_k_db=5.0,
                                              pl_ref_db=-60.0, seed=s))[0] for s in (1, 2, 3)]
        seeds, p_max = [1, 2, 3], 0.1
    else:
        ch, _ = build_channels(benchmark_scene(m_bs=3, n_irs=6, pl_ref_db=-55.0))
        chs, seeds, p_max = [ch] * 3, [4, 5, 6], 1.0
    stacked = run_ldt_cffp_seeds(chs, noise, p_max, seeds)
    alone = [run_ldt_cffp(ch, noise, p_max, seed=seed) for ch, seed in zip(chs, seeds)]
    _assert_same_runs(chs, noise, p_max, stacked, alone)
    iterations = [trace.iterations for _, trace in stacked]
    if kind == "staggered":
        capped = ["iteration-cap" in trace.flags for _, trace in stacked]
        assert 0 < sum(capped) < len(capped)
        assert len(set(iterations)) >= 3
    else:
        assert all(trace.converged for _, trace in stacked)
        assert len(set(iterations)) == len(iterations)


def test_a_stack_needs_one_channel_set_per_seed():
    ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8))
    for chs, seeds in (([], []), ([ch], [1, 2]), ([ch, ch], [1])):
        with pytest.raises(ValueError, match="one channel set per seed"):
            run_ldt_cffp_seeds(chs, NoiseProfile(), 1.0, seeds)


def test_a_budget_rescue_stays_with_its_seed_in_a_stack(monkeypatch):
    """Seed 5 starts with its AN beam and IRS noise 2% above the budget, so
    its first v_b step needs a rescue, which frees the block; the other
    seeds' runs are untouched."""
    overspend_seed(monkeypatch, 5, 1.02)
    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 30)
    noise = NoiseProfile()
    ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0))
    chs, seeds = [ch] * 3, [4, 5, 6]
    stacked = run_ldt_cffp_seeds(chs, noise, 1.0, seeds)
    alone = [run_ldt_cffp(ch, noise, 1.0, seed=seed) for seed in seeds]
    _assert_same_runs(chs, noise, 1.0, stacked, alone)
    assert [[f for f in trace.flags if f.startswith("budget-")] for _, trace in stacked] == \
        [[], ["budget-rescue:v_b"], []]


def test_a_block_skipped_for_one_seed_of_a_stack_raises(monkeypatch):
    """At 1.5 times the budget the rescue cannot free seed 5's v_b block,
    which is skipped for it alone: the stack raises, naming seed 5, and
    leaves the rerun of each seed to its caller."""
    overspend_seed(monkeypatch, 5, 1.5)
    noise = NoiseProfile()
    ch, _ = build_channels(benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0))
    with pytest.raises(BudgetExhausted) as exc:
        run_ldt_cffp_seeds([ch] * 3, noise, 1.0, [4, 5, 6])
    assert exc.value.low == [False, True, False]


def test_a_stacked_rescue_scales_and_refactors_only_its_design():
    """In a stack sharing the v_b factorization, the design whose v_e budget
    is exhausted is shrunk and flagged alone, and every design's problem
    equals its own fresh one-design problem."""
    rng = np.random.default_rng(14)
    ch = random_channelset(rng)
    designs = [random_design(rng, ch, NOISE, p_max=6.0, fill=0.7) for _ in range(3)]
    designs[1].v_b = 1.5 * designs[1].v_b
    # what the AN-beam block leaves to the rest: the confidential beam and IRS noise
    spend = [DesignState(ch, d).spent(NOISE, "v_b", "irs")[0] for d in designs]
    p_max = 0.99 * spend[1]
    assert max(spend[0], spend[2]) < 0.9 * p_max
    auxes = [optimal_aux(ch, d, NOISE) for d in designs]
    stack = Design(*(np.stack([getattr(d, f) for d in designs]) for f in ("v_b", "v_e", "theta")))
    state = DesignState([ch] * 3, stack)
    shared = assemble_vb([ch] * 3, stack, NOISE, auxes, p_max, state=state)
    traces = [RunTrace() for _ in designs]
    prob = _assemble_block(assemble_ve, state, NOISE, auxes, p_max, traces,
                           "v_e", ("v_b", "theta"), shared=shared)
    assert [t.flags for t in traces] == [[], ["budget-rescue:v_e"], []]
    for f in ("v_b", "theta"):
        assert_allclose(getattr(stack, f)[1], 0.95 * getattr(designs[1], f), rtol=1e-15)
        for i in (0, 2):
            assert np.array_equal(getattr(stack, f)[i], getattr(designs[i], f))
    sols = solve_qcqp_stack(prob)
    for i, d in enumerate(designs):
        mine = Design(stack.v_b[i], stack.v_e[i], stack.theta[i])
        fresh = assemble_ve(ch, mine, NOISE, auxes[i], p_max)
        assert_allclose(prob.F[i], fresh.F, rtol=1e-15)
        assert prob.p_budget[i] == fresh.p_budget
        assert_allclose(sols.x[i], solve_qcqp(fresh).x, rtol=1e-12)


# -- initialization and the runner ------------------------------------------------

def test_initial_design_spends_99_percent():
    cfg = benchmark_scene(m_bs=4, n_irs=8)
    ch, _ = build_channels(cfg)
    noise = NoiseProfile()
    d = initial_design(ch, noise, p_max=1.0, seed=3)
    assert_allclose(total_power(ch, d, noise), 0.99, rtol=1e-10)
    assert_allclose(np.linalg.norm(d.v_b), 0.5, rtol=1e-12)   # sqrt(P/4)
    assert_allclose(np.linalg.norm(d.v_e), 0.5, rtol=1e-12)

    again = initial_design(ch, noise, p_max=1.0, seed=3)
    assert np.array_equal(d.theta, again.theta)
    other = initial_design(ch, noise, p_max=1.0, seed=4)
    assert not np.allclose(d.theta, other.theta)


def test_run_ldt_cffp_trace_and_convergence():
    cfg = benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0)
    ch, _ = build_channels(cfg)
    noise = NoiseProfile()
    d, trace = run_ldt_cffp(ch, noise, p_max=1.0, seed=1)

    assert trace.converged
    assert trace.iterations == len(trace.rows) <= ldt_cffp.MAX_ITERS
    assert trace.flags == []
    row = trace.rows[0]
    assert set(row) == {"iteration", "vr_prime", "sr_bits", "power_slack",
                        "wall_time_s"}
    assert trace.rows[-1]["iteration"] == trace.iterations

    # monotone surrogate ascent, up to per-step float slack
    vr = trace.objective_values("vr_prime")
    assert all(b >= a - 1e-6 for a, b in zip(vr, vr[1:]))
    # the final design respects the budget
    assert total_power(ch, d, noise) <= 1.0 * (1.0 + 1e-8)
    assert all(r["power_slack"] >= -1e-8 for r in trace.rows)


def test_run_ldt_cffp_is_deterministic():
    cfg = benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-60.0)
    ch, _ = build_channels(cfg)
    noise = NoiseProfile()
    d1, t1 = run_ldt_cffp(ch, noise, p_max=0.1, seed=5)
    d2, t2 = run_ldt_cffp(ch, noise, p_max=0.1, seed=5)
    assert np.array_equal(d1.v_b, d2.v_b)
    assert np.array_equal(d1.v_e, d2.v_e)
    assert np.array_equal(d1.theta, d2.theta)
    assert t1.iterations == t2.iterations
    assert t1.objective_values("vr_prime") == t2.objective_values("vr_prime")


def test_run_ldt_cffp_flags_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 3)
    cfg = benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0)
    ch, _ = build_channels(cfg)
    d, trace = run_ldt_cffp(ch, NoiseProfile(), p_max=1.0, seed=1)
    assert not trace.converged
    assert trace.iterations == 3
    assert "iteration-cap" in trace.flags


def test_run_improves_on_the_initial_secrecy_rate():
    from airsdm.model import secrecy_rate
    cfg = benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0)
    ch, _ = build_channels(cfg)
    noise = NoiseProfile()
    d0 = initial_design(ch, noise, p_max=1.0, seed=2)
    d, trace = run_ldt_cffp(ch, noise, p_max=1.0, seed=2)
    assert secrecy_rate(ch, d, noise) > secrecy_rate(ch, d0, noise)
