"""Blocked pipeline: projectors, closed-form beams, gains, scalar PA path."""

import copy
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, random_blocked, random_block_design, unit

from airsdm import nsp_mrr
from airsdm.harness import ExperimentSpec, SweepSpec, run_experiment
from airsdm.model import NoiseProfile, snr_pair, total_power
from airsdm.nsp_mrr import (
    EPS,
    BlockDesign,
    PaFactors,
    PaScalarContext,
    amplification_rho,
    at_split,
    blocked_secrecy_rate,
    mrr_reflect,
    nsp_beamformers,
    nsp_projector,
    run_nsp_mrr_pa,
    run_nsp_mrr_pa_seeds,
)
from airsdm.pa_search import (
    annealing_search,
    exhaustive_search,
    fixed_beta_search,
    fixed_eta_search,
    fixed_point_search,
    pso_search,
)
from airsdm.scene import BlockedChannelSet, benchmark_scene, build_channels, dbm_to_watts


NOISE = NoiseProfile(sigma2_irs=0.03, sigma2_b=0.05, sigma2_e=0.04)


# -- null-space projector ----------------------------------------------------

def test_projector_of_full_rank_rows_is_zero():
    assert_allclose(nsp_projector(np.eye(3)), np.zeros((3, 3)), atol=1e-14)


def test_projector_of_first_basis_row():
    T = nsp_projector(np.array([[1.0, 0.0, 0.0]]))
    assert_allclose(T, np.diag([0.0, 1.0, 1.0]), atol=1e-14)


def test_projector_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        Q = crandn(rng, 3, 6)
        T = nsp_projector(Q)
        assert_allclose(T @ T, T, atol=1e-12)           # idempotent
        assert_allclose(T, T.conj().T, atol=1e-13)      # Hermitian
        assert_allclose(Q @ T, np.zeros((3, 6)), atol=1e-12)  # annihilates rows
        x = crandn(rng, 6)
        assert_allclose(Q @ (T @ x), np.zeros(3), atol=1e-11)


def test_projector_accepts_a_single_vector_row():
    rng = np.random.default_rng(1)
    q = crandn(rng, 4)
    T = nsp_projector(q)
    assert T.shape == (4, 4)
    # every projected vector solves the row equation q . x = 0
    x = crandn(rng, 4)
    assert abs(np.dot(q, T @ x)) <= 1e-12
    assert_allclose(T @ q.conj(), np.zeros(4), atol=1e-12)


# -- null-space-projected beamformers -----------------------------------------

def test_beamformers_are_unit_and_orthogonal_to_protected_spans():
    rng = np.random.default_rng(2)
    for _ in range(20):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, NOISE)
        v_b, v_e, flags = nsp_beamformers(bch, d)
        assert flags == []
        assert abs(np.linalg.norm(v_b) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(v_e) - 1.0) <= 1e-12
        # AN invisible to Bob: orthogonal to his direct channel and block 1
        assert abs(np.vdot(bch.h_b, v_e)) <= 1e-10
        assert np.abs(bch.H_s1 @ v_e).max() <= 1e-10
        # CM invisible to Eve: orthogonal to her direct channel and block 2
        assert abs(np.vdot(bch.h_e, v_b)) <= 1e-10
        assert np.abs(bch.H_s2 @ v_b).max() <= 1e-10


def test_beamformers_maximize_target_gain_within_the_null_space():
    rng = np.random.default_rng(3)
    bch = random_blocked(rng)
    d = random_block_design(rng, bch, NOISE)
    v_b, v_e, _ = nsp_beamformers(bch, d)

    T1 = nsp_projector(np.vstack([bch.h_b.conj()[None, :], bch.H_s1]))
    target_e = bch.h_e + d.rho2 * (bch.H_s2.conj().T @ (d.theta2 * bch.g_e2))
    for _ in range(50):
        u = unit(T1 @ crandn(rng, bch.h_b.size))
        assert abs(np.vdot(target_e, v_e)) >= abs(np.vdot(target_e, u)) - 1e-12


def test_degenerate_target_falls_back_with_a_flag():
    """Put Eve's effective channel inside the protected span of block 1."""
    rng = np.random.default_rng(4)
    bch0 = random_blocked(rng, m=6, n1=2, n2=2)
    y = crandn(rng, 2)
    h_e = 0.7 * bch0.h_b + bch0.H_s1.conj().T @ y
    bch = BlockedChannelSet(h_b=bch0.h_b, h_e=h_e, H_s1=bch0.H_s1,
                            H_s2=bch0.H_s2, g_b1=bch0.g_b1, g_e1=bch0.g_e1,
                            g_b2=bch0.g_b2, g_e2=bch0.g_e2)
    d = random_block_design(rng, bch, NOISE)
    d.rho2 = 0.0  # target for the AN beam degenerates to h_e exactly
    v_b, v_e, flags = nsp_beamformers(bch, d)
    assert "nsp-degenerate:v_e" in flags
    # the fallback is still a unit vector in the protecting null space
    assert abs(np.linalg.norm(v_e) - 1.0) <= 1e-12
    assert abs(np.vdot(bch.h_b, v_e)) <= 1e-10
    assert np.abs(bch.H_s1 @ v_e).max() <= 1e-10


def test_a_target_inside_the_nulled_span_falls_back_to_the_direct_channel():
    from airsdm.nsp_mrr import _project_or_fallback
    T = nsp_projector(np.array([[1.0, 0.0, 0.0]], dtype=complex))
    flags: list[str] = []
    v = _project_or_fallback(T, np.array([2.0, 0.0, 0.0], dtype=complex),
                             np.array([1.0, 3.0j, 0.0]), "v_b", flags)
    assert flags == ["nsp-degenerate:v_b"]
    assert_allclose(v, [0.0, 1.0j, 0.0], atol=1e-15)


# -- matched-and-rotated reflection --------------------------------------------

def _tiny_blocked() -> BlockedChannelSet:
    return BlockedChannelSet(
        h_b=np.array([1.0, 0.0], dtype=complex),
        h_e=np.array([0.0, 1.0], dtype=complex),
        H_s1=np.eye(2, dtype=complex),
        H_s2=np.array([[0.0, 1.0]], dtype=complex),
        g_b1=np.array([1.0, -1.0j]),
        g_e1=np.array([0.5, 0.5]),
        g_b2=np.array([0.25]),
        g_e2=np.array([1.0 + 0.0j]),
    )


def test_mrr_hand_example_and_zero_cascade_fallback():
    bch = _tiny_blocked()
    d = BlockDesign(v_b=np.array([1.0, 1.0], dtype=complex),
                    v_e=np.array([1.0, 0.0], dtype=complex),
                    theta1=np.ones(2) / math.sqrt(2), theta2=np.ones(1),
                    rho1=1.0, rho2=1.0, pa=PaFactors(0.5, 0.5), p_s=1.0)
    theta1, theta2, flags = mrr_reflect(bch, d)
    # c1 = conj(g_b1) * (H_s1 v_b) = [1, 1j]; phi1 = angle(h_b^H v_b) = 0
    assert_allclose(theta1, np.array([1.0, 1.0j]) / math.sqrt(2), atol=1e-15)
    # H_s2 v_e = 0 so block 2 degenerates to the uniform unit vector
    assert flags == ["mrr-degenerate:theta2"]
    assert_allclose(theta2, np.array([1.0 + 0.0j]), atol=1e-15)


def test_mrr_falls_back_on_a_zero_block_1_cascade():
    bch = replace(_tiny_blocked(), g_b1=np.zeros(2, dtype=complex))
    d = BlockDesign(v_b=np.array([1.0, 1.0], dtype=complex),
                    v_e=np.array([0.0, 1.0], dtype=complex),
                    theta1=np.ones(2) / math.sqrt(2), theta2=np.ones(1),
                    rho1=1.0, rho2=1.0, pa=PaFactors(0.5, 0.5), p_s=1.0)
    theta1, theta2, flags = mrr_reflect(bch, d)
    assert flags == ["mrr-degenerate:theta1"]
    assert_allclose(theta1, np.ones(2) / math.sqrt(2), atol=1e-15)
    # c2 = conj(g_e2) * (H_s2 v_e) = [1]; phi2 = angle(h_e^H v_e) = 0
    assert_allclose(theta2, np.array([1.0 + 0.0j]), atol=1e-15)


def test_reflection_adds_coherently_with_the_direct_path():
    rng = np.random.default_rng(5)
    for _ in range(25):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, NOISE)
        theta1, theta2, flags = mrr_reflect(bch, d)
        assert flags == []
        assert abs(np.linalg.norm(theta1) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(theta2) - 1.0) <= 1e-12

        r1 = complex(np.vdot(theta1, bch.g_b1.conj() * (bch.H_s1 @ d.v_b)))
        d_bb = complex(np.vdot(bch.h_b, d.v_b))
        c1 = bch.g_b1.conj() * (bch.H_s1 @ d.v_b)
        # same phase as the direct gain, magnitude equal to the cascade norm
        assert abs(np.angle(r1 / d_bb)) <= 1e-8
        assert_allclose(abs(r1), np.linalg.norm(c1), rtol=1e-12)

        r2 = complex(np.vdot(theta2, bch.g_e2.conj() * (bch.H_s2 @ d.v_e)))
        d_ee = complex(np.vdot(bch.h_e, d.v_e))
        assert abs(np.angle(r2 / d_ee)) <= 1e-8


# -- amplification gains -------------------------------------------------------

def test_rho_spends_the_exact_irs_power_shares():
    rng = np.random.default_rng(6)
    for _ in range(25):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, NOISE)
        rho1, rho2 = amplification_rho(bch, d, NOISE)
        eta, beta, mu = d.pa.eta, d.pa.beta, d.pa.mu
        s1 = float(np.sum(np.abs(d.theta1) ** 2 * np.abs(bch.H_s1 @ d.v_b) ** 2))
        s2 = float(np.sum(np.abs(d.theta2) ** 2 * np.abs(bch.H_s2 @ d.v_e) ** 2))
        emitted1 = rho1 ** 2 * (eta * beta * d.p_s * s1 + NOISE.sigma2_irs)
        emitted2 = rho2 ** 2 * (eta * (1 - beta) * d.p_s * s2 + NOISE.sigma2_irs)
        assert_allclose(emitted1, mu * (1 - eta) * d.p_s, rtol=1e-12)
        assert_allclose(emitted2, (1 - mu) * (1 - eta) * d.p_s, rtol=1e-12)
        # the IRS as a whole spends exactly its share of the budget
        assert_allclose(emitted1 + emitted2, (1 - eta) * d.p_s, rtol=1e-12)


def test_at_split_keeps_mu_and_spends_the_irs_share_of_the_new_split():
    noise = NoiseProfile()
    p_s = dbm_to_watts(20.0)
    _, bch = build_channels(benchmark_scene(n_irs=8, n1=4, n2=4, rician_k_db=5.0, seed=1))
    d, _ = run_nsp_mrr_pa(bch, noise, p_s, seed=1)
    d = replace(d, pa=PaFactors(d.pa.eta, d.pa.beta, mu=0.3))
    before = copy.deepcopy(d)
    moved = at_split(bch, d, noise, 0.3, 0.7)
    assert moved.pa == PaFactors(0.3, 0.7, mu=0.3)
    for f in ("v_b", "v_e", "theta1", "theta2"):
        assert np.array_equal(getattr(moved, f), getattr(d, f))
    assert (d.pa, d.rho1, d.rho2) == (before.pa, before.rho1, before.rho2)
    assert (moved.rho1, moved.rho2) == amplification_rho(bch, moved, noise)
    spend = total_power(bch.stacked(), moved.as_design(), noise)
    assert_allclose(spend, p_s, rtol=1e-12)
    assert_allclose(spend - 0.3 * p_s, 0.7 * p_s, rtol=1e-12)   # the IRS's (1 - eta) p_s


def test_rho_hand_value():
    bch = BlockedChannelSet(
        h_b=np.array([1.0 + 0j]), h_e=np.array([1.0 + 0j]),
        H_s1=np.array([[1.0 + 0j], [0.0j]]), H_s2=np.array([[1.0 + 0j]]),
        g_b1=np.ones(2, dtype=complex), g_e1=np.ones(2, dtype=complex),
        g_b2=np.ones(1, dtype=complex), g_e2=np.ones(1, dtype=complex))
    d = BlockDesign(v_b=np.array([1.0 + 0j]), v_e=np.array([1.0 + 0j]),
                    theta1=np.array([1.0, 0.0], dtype=complex),
                    theta2=np.array([1.0 + 0j]),
                    rho1=0.0, rho2=0.0, pa=PaFactors(0.5, 0.5, mu=0.8), p_s=1.0)
    tiny = NoiseProfile(sigma2_irs=1e-300, sigma2_b=1.0, sigma2_e=1.0)
    rho1, _ = amplification_rho(bch, d, tiny)
    # rho1 = sqrt(0.5 * 0.8 / (0.5 * 0.5 * 1)) = sqrt(1.6)
    assert rho1 == 1.2649110640673518


# -- scalarized power-allocation objective ---------------------------------------

def _context_and_design(rng):
    bch = random_blocked(rng)
    d = random_block_design(rng, bch, NOISE)
    return bch, d, PaScalarContext(bch, d, NOISE)


def test_scalar_context_matches_the_full_model():
    # The closed form leaves out the paths that null-space projection zeroes,
    # so it is held to the full model on designs that keep those zeros.
    rng = np.random.default_rng(7)
    for _ in range(10):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, NOISE)
        d.v_b, d.v_e, flags = nsp_beamformers(bch, d)
        d.theta1, d.theta2, flags2 = mrr_reflect(bch, d)
        assert flags + flags2 == []
        ctx = PaScalarContext(bch, d, NOISE)
        for eta in (0.1, 0.5, 0.93):
            for beta in (0.07, 0.5, 0.9):
                d.pa = PaFactors(eta=eta, beta=beta, mu=d.pa.mu)
                d.rho1, d.rho2 = amplification_rho(bch, d, NOISE)
                assert_allclose(ctx(eta, beta),
                                blocked_secrecy_rate(bch, d, NOISE), rtol=1e-10)
                gb, ge = ctx.sinrs(eta, beta)
                gb_full, ge_full = snr_pair(bch.stacked(), d.as_design(), NOISE)
                assert_allclose(gb, gb_full, rtol=1e-10)
                assert_allclose(ge, ge_full, rtol=1e-10)


def test_blocked_rate_counts_every_path():
    # Beams outside the null spaces reach both receivers directly and through
    # both blocks; the rate must count every one of those paths.
    rng = np.random.default_rng(8)
    for _ in range(10):
        bch = random_blocked(rng)
        d = random_block_design(rng, bch, NOISE)
        eta, beta = d.pa.eta, d.pa.beta

        def sinr(h, g1, g2, sigma2):
            def gain(v):
                return (np.vdot(h, v)
                        + d.rho1 * np.vdot(d.theta1, g1.conj() * (bch.H_s1 @ v))
                        + d.rho2 * np.vdot(d.theta2, g2.conj() * (bch.H_s2 @ v)))
            irs = NOISE.sigma2_irs * (d.rho1 ** 2 * np.sum(np.abs(d.theta1 * g1) ** 2)
                                      + d.rho2 ** 2 * np.sum(np.abs(d.theta2 * g2) ** 2))
            return (eta * beta * d.p_s * abs(gain(d.v_b)) ** 2
                    / (eta * (1 - beta) * d.p_s * abs(gain(d.v_e)) ** 2 + irs + sigma2))

        gb = sinr(bch.h_b, bch.g_b1, bch.g_b2, NOISE.sigma2_b)
        ge = sinr(bch.h_e, bch.g_e1, bch.g_e2, NOISE.sigma2_e)
        assert_allclose(blocked_secrecy_rate(bch, d, NOISE),
                        math.log2(1 + gb) - math.log2(1 + ge), rtol=1e-10)


def test_scalar_context_broadcasts_like_a_scalar_loop():
    rng = np.random.default_rng(9)
    _, _, ctx = _context_and_design(rng)
    etas = np.linspace(0.05, 0.95, 7)
    betas = np.linspace(0.1, 0.9, 7)
    E, B = np.meshgrid(etas, betas, indexing="ij")
    grid = ctx(E, B)
    assert grid.shape == (7, 7)
    for i, eta in enumerate(etas):
        for j, beta in enumerate(betas):
            assert grid[i, j] == ctx(float(eta), float(beta))


def test_scalar_context_rejects_the_box_boundary():
    rng = np.random.default_rng(10)
    _, _, ctx = _context_and_design(rng)
    for eta, beta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError):
            ctx(eta, beta)
    with pytest.raises(ValueError):
        ctx(np.array([0.5, 1.0]), np.array([0.5, 0.5]))


def test_scalar_call_equals_the_one_element_array_call_bit_for_bit():
    rng = np.random.default_rng(11)
    edge = 1e-12
    for _ in range(10):
        _, _, ctx = _context_and_design(rng)
        etas = rng.uniform(edge, 1.0 - edge, 1000)
        betas = rng.uniform(edge, 1.0 - edge, 1000)
        etas[:4] = (edge, 1.0 - edge, 0.5, edge)
        betas[:4] = (0.5, 1.0 - edge, edge, 1.0 - edge)
        for eta, beta in zip(etas.tolist(), betas.tolist()):
            fast = ctx(eta, beta)
            assert fast == ctx(np.array([eta]), np.array([beta]))[0]
            assert fast.dtype == np.float64


def _shared_mu_contexts(rng, count):
    rows = []
    for _ in range(count):
        bch, d, _ = _context_and_design(rng)
        rows.append(PaScalarContext(bch, replace(d, pa=replace(d.pa, mu=0.8)), NOISE))
    return rows


def test_a_stacked_context_scores_each_row_as_its_own_context():
    rng = np.random.default_rng(14)
    rows = _shared_mu_contexts(rng, 3)
    stack = PaScalarContext.stack(rows)
    assert stack.a.shape == (3, 1)
    assert all(stack[i] is row for i, row in enumerate(rows))
    etas = rng.uniform(0.01, 0.99, (3, 30))
    betas = rng.uniform(0.01, 0.99, (3, 30))
    values = stack(etas, betas)
    gamma_b, gamma_e = stack.sinrs(etas, betas)
    assert values.shape == gamma_b.shape == (3, 30)
    for i, row in enumerate(rows):
        assert np.array_equal(values[i], row(etas[i], betas[i]))
        assert np.array_equal(gamma_e[i], row.sinrs(etas[i], betas[i])[1])
        assert values[i, 0] == row(float(etas[i, 0]), float(betas[i, 0]))


def test_stacked_contexts_must_share_the_scalars_they_do_not_stack():
    rng = np.random.default_rng(15)
    rows = _shared_mu_contexts(rng, 2)
    bch, d, _ = _context_and_design(rng)
    d = replace(d, pa=replace(d.pa, mu=0.8))
    others = [PaScalarContext(bch, replace(d, pa=replace(d.pa, mu=0.7)), NOISE)]
    for name in ("sigma2_irs", "sigma2_b", "sigma2_e"):
        noise = replace(NOISE, **{name: 2.0 * getattr(NOISE, name)})
        others.append(PaScalarContext(bch, d, noise))
    for other in others:
        with pytest.raises(ValueError, match="share"):
            PaScalarContext.stack(rows + [other])
    # the power budget is stacked, not shared
    stack = PaScalarContext.stack(rows + [PaScalarContext(bch, replace(d, p_s=2.0), NOISE)])
    assert np.shape(stack.p_s) == (3, 1)
    with pytest.raises(ValueError):
        PaScalarContext.stack(rows)(np.full((2, 1), 0.5), np.full((2, 1), 1.0))


def test_stacked_contexts_with_their_own_budgets_score_each_row_as_its_own_context():
    rng = np.random.default_rng(18)
    budgets = [1.0, 3.7, 1.0, 0.01, 52.3, 1e-3 * rng.uniform()]
    rows = []
    for p_s in budgets:
        bch, d, _ = _context_and_design(rng)
        rows.append(PaScalarContext(bch, replace(d, p_s=p_s, pa=replace(d.pa, mu=0.8)), NOISE))
    stack = PaScalarContext.stack(rows)
    assert stack.p_s.shape == stack.ps2.shape == (6, 1)
    etas = rng.uniform(0.01, 0.99, (6, 40))
    betas = rng.uniform(0.01, 0.99, (6, 40))
    values = stack(etas, betas)
    for i, row in enumerate(rows):
        assert np.array_equal(values[i], row(etas[i], betas[i]))
        for k in range(0, 40, 7):
            assert values[i, k] == row(float(etas[i, k]), float(betas[i, k]))


def test_scalar_call_keeps_numpy_semantics_when_the_denominators_underflow():
    rng = np.random.default_rng(13)
    bch = random_blocked(rng)
    faint = NoiseProfile(sigma2_irs=1e-200, sigma2_b=1e-200, sigma2_e=1e-200)
    d = random_block_design(rng, bch, faint)
    ctx = PaScalarContext(bch, replace(d, p_s=1e-300), faint)
    with np.errstate(divide="ignore", invalid="ignore"):
        fast = ctx(0.5, 0.5)                 # 0/0 in plain floats would raise
        ref = ctx(np.array([0.5]), np.array([0.5]))[0]
    assert np.isnan(fast) and np.isnan(ref)


def test_scalar_and_array_calls_reject_the_same_points():
    rng = np.random.default_rng(12)
    _, _, ctx = _context_and_design(rng)
    edge = 1e-12
    inside = (edge, 0.5, 1.0 - edge)
    outside = (-edge, 0.0, 1.0, 1.0 + edge, -0.3, 1.7)
    for bad in outside:
        for good in inside:
            for eta, beta in ((bad, good), (good, bad)):
                with pytest.raises(ValueError):
                    ctx(eta, beta)
                with pytest.raises(ValueError):
                    ctx(np.array([eta]), np.array([beta]))
    for eta in inside:
        for beta in inside:
            assert np.isfinite(ctx(eta, beta))
            assert np.isfinite(ctx(np.array([eta]), np.array([beta]))[0])


def _frozen_sinrs(self, eta, beta, sqrt):
    """``PaScalarContext._sinrs`` as written before its common subexpressions
    were hoisted: the reference the hoisted form must match bit for bit."""
    ps, mu = self.p_s, self.mu
    A = eta * beta * ps * self.s1 + self.sigma2_irs
    B = eta * (1.0 - beta) * ps * self.s2 + self.sigma2_irs
    g_b1 = eta * beta * ps * (self.a * (1.0 - eta) * mu * ps * B
                              + 2.0 * self.b * B * sqrt((1.0 - eta) * mu * ps * A)
                              + self.c * A * B)
    g_b2 = (self.d * eta * (1.0 - eta) * (1.0 - beta) * (1.0 - mu) * ps ** 2 * A
            + self.e * (1.0 - eta) * mu * ps * B
            + self.f * (1.0 - eta) * (1.0 - mu) * ps * A
            + self.sigma2_b * A * B)
    g_e1 = eta * (1.0 - eta) * beta * mu * ps ** 2 * self.a_hat * B
    g_e2 = (eta * (1.0 - beta) * ps * (self.b_hat * (1.0 - eta) * (1.0 - mu) * ps * A
                                       + 2.0 * self.c_hat * A * sqrt((1.0 - eta) * (1.0 - mu) * ps * B)
                                       + self.d_hat * A * B)
            + self.e_hat * (1.0 - eta) * mu * ps * B
            + self.f_hat * (1.0 - eta) * (1.0 - mu) * ps * A
            + self.sigma2_e * A * B)
    return g_b1 / g_b2, g_e1 / g_e2


def assert_sinrs_bits(ctx, eta, beta):
    """``ctx._sinrs`` equals the frozen expression bit for bit (type, shape and
    bytes, NaN and inf included), or raises what it raises, under both roots."""
    roots = (math.sqrt, np.sqrt) if isinstance(eta, float) else (np.sqrt,)
    with np.errstate(all="ignore"):
        for sqrt in roots:
            try:
                want = _frozen_sinrs(ctx, eta, beta, sqrt)
            except (ZeroDivisionError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    ctx._sinrs(eta, beta, sqrt)
                continue
            for got, ref in zip(ctx._sinrs(eta, beta, sqrt), want):
                assert type(got) is type(ref)
                assert np.shape(got) == np.shape(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _bench_scene_contexts():
    """Converged ES contexts at 20 dBm on the benchmark's three scenes: the
    default scene of pa-compare, its N=32 form of ldt-n32, and the first
    Rician draw of rician-n8."""
    w = dbm_to_watts(-70.0)
    noise = NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w)
    scenes = [benchmark_scene(), benchmark_scene(n_irs=32, n1=16, n2=16),
              benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                              pl_ref_db=-60.0, seed=1)]
    contexts = []
    for cfg in scenes:
        _, bch = build_channels(cfg)
        d, _ = run_nsp_mrr_pa(bch, noise, dbm_to_watts(20.0))
        contexts.append(PaScalarContext(bch, d, noise))
    return contexts


def test_the_hoisted_closed_form_is_the_frozen_expression_bit_for_bit():
    rng = np.random.default_rng(16)
    contexts = [_context_and_design(rng)[2] for _ in range(5)] + _bench_scene_contexts()
    edge = 1e-12
    etas = np.concatenate([[edge, 0.01, 0.5, 0.99, 1.0 - edge], rng.uniform(edge, 1.0 - edge, 45)])
    betas = np.concatenate([[0.5, 0.99, edge, 0.01, 1.0 - edge], rng.uniform(edge, 1.0 - edge, 45)])
    for ctx in contexts:
        for eta, beta in zip(etas.tolist(), betas.tolist()):
            assert_sinrs_bits(ctx, eta, beta)
        assert_sinrs_bits(ctx, etas, betas)
    stack = PaScalarContext.stack(contexts[-3:])
    assert_sinrs_bits(stack, np.tile(etas, (3, 1)), rng.uniform(edge, 1.0 - edge, (3, 50)))
    # the fallbacks: a zero denominator, and a negative root
    faint = NoiseProfile(sigma2_irs=1e-200, sigma2_b=1e-200, sigma2_e=1e-200)
    bch = random_blocked(rng)
    zero = PaScalarContext(bch, replace(random_block_design(rng, bch, faint), p_s=1e-300), faint)
    negative = copy.copy(contexts[0])
    negative.sigma2_irs = -1e3
    for ctx, error in ((zero, ZeroDivisionError), (negative, ValueError)):
        with pytest.raises(error):
            ctx._sinrs(0.5, 0.5, math.sqrt)
        assert_sinrs_bits(ctx, 0.5, 0.5)
        assert_sinrs_bits(ctx, np.array([0.5, 0.2]), np.array([0.5, 0.7]))
        with np.errstate(all="ignore"):
            assert np.isnan(ctx(0.5, 0.5))


def _frozen_rho(bch, d, noise):
    """``amplification_rho`` as written before ``PaScalarContext.at`` held the
    expression: the reference the gains must match bit for bit."""
    eta, beta, mu = d.pa.eta, d.pa.beta, d.pa.mu
    s1 = float(np.sum(np.abs(d.theta1) ** 2 * np.abs(bch.H_s1 @ d.v_b) ** 2))
    s2 = float(np.sum(np.abs(d.theta2) ** 2 * np.abs(bch.H_s2 @ d.v_e) ** 2))
    rho1 = math.sqrt((1.0 - eta) * mu * d.p_s
                     / (eta * beta * d.p_s * s1 + noise.sigma2_irs))
    rho2 = math.sqrt((1.0 - eta) * (1.0 - mu) * d.p_s
                     / (eta * (1.0 - beta) * d.p_s * s2 + noise.sigma2_irs))
    return rho1, rho2


def test_the_context_gains_are_the_frozen_expression_bit_for_bit():
    rng = np.random.default_rng(17)
    w = dbm_to_watts(-70.0)
    bench_noise = NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w)
    cases = []
    for _ in range(10):
        bch = random_blocked(rng)
        cases.append((bch, random_block_design(rng, bch, NOISE), NOISE))
    # the three bench scenes of _bench_scene_contexts, at their converged designs
    for cfg in (benchmark_scene(), benchmark_scene(n_irs=32, n1=16, n2=16),
                benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                pl_ref_db=-60.0, seed=1)):
        _, bch = build_channels(cfg)
        d, _ = run_nsp_mrr_pa(bch, bench_noise, dbm_to_watts(20.0))
        cases.append((bch, d, bench_noise))
    pairs = [(0.01, 0.99), (0.5, 0.5), (0.99, 0.01)] + rng.uniform(1e-6, 1 - 1e-6, (20, 2)).tolist()
    for bch, d, noise in cases:
        ctx = PaScalarContext(bch, d, noise)
        assert amplification_rho(bch, d, noise) == _frozen_rho(bch, d, noise)
        for eta, beta in pairs:
            moved = ctx.at(eta, beta)
            assert (moved.rho1, moved.rho2) == _frozen_rho(bch, moved, noise)
            alone = at_split(bch, d, noise, eta, beta)
            assert (alone.pa, alone.rho1, alone.rho2) == (moved.pa, moved.rho1, moved.rho2)


def test_pa_factors_validate_the_open_interval():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            PaFactors(eta=bad, beta=0.5)
        with pytest.raises(ValueError):
            PaFactors(eta=0.5, beta=bad)
        with pytest.raises(ValueError):
            PaFactors(eta=0.5, beta=0.5, mu=bad)


# -- the alternating pipeline -----------------------------------------------------

def test_pipeline_on_the_benchmark_scene():
    cfg = benchmark_scene(m_bs=8, n_irs=32)
    _, bch = build_channels(cfg)
    noise = NoiseProfile()
    d, trace = run_nsp_mrr_pa(bch, noise, p_s=0.1, seed=1)

    assert trace.converged
    assert trace.iterations <= 100
    row = trace.rows[0]
    assert set(row) == {"iteration", "eta", "beta", "rho1", "rho2", "sr_bits",
                        "beamformer_delta", "search_evals", "wall_time_s"}
    assert row["search_evals"] == 99 * 99
    assert trace.rows[-1]["beamformer_delta"] <= EPS

    # the searched split sits on the canonical grid
    axis = np.linspace(0.01, 0.99, 99)
    assert np.isclose(axis, d.pa.eta).any()
    assert np.isclose(axis, d.pa.beta).any()
    # gains spend the IRS budget exactly at the searched split
    assert_allclose(
        d.rho1 ** 2 * (d.pa.eta * d.pa.beta * d.p_s
                       * float(np.sum(np.abs(d.theta1) ** 2
                                      * np.abs(bch.H_s1 @ d.v_b) ** 2))
                       + noise.sigma2_irs)
        + d.rho2 ** 2 * (d.pa.eta * (1 - d.pa.beta) * d.p_s
                         * float(np.sum(np.abs(d.theta2) ** 2
                                        * np.abs(bch.H_s2 @ d.v_e) ** 2))
                         + noise.sigma2_irs),
        (1 - d.pa.eta) * d.p_s, rtol=1e-10)


def test_pipeline_designs_spend_exactly_the_budget_in_the_full_model():
    noise = NoiseProfile()
    p_s = dbm_to_watts(20.0)
    for cfg in (benchmark_scene(),
                benchmark_scene(eve_pos=(60, -80, 0), irs2_pos=(40, -60, 20)),
                benchmark_scene(n_irs=8, n1=4, n2=4, rician_k_db=5.0, seed=1)):
        _, bch = build_channels(cfg)
        d, _ = run_nsp_mrr_pa(bch, noise, p_s, seed=1)
        assert_allclose(total_power(bch.stacked(), d.as_design(), noise), p_s, rtol=1e-12)


def test_pipeline_is_deterministic():
    cfg = benchmark_scene(m_bs=6, n_irs=16)
    _, bch = build_channels(cfg)
    d1, t1 = run_nsp_mrr_pa(bch, NoiseProfile(), p_s=0.1, seed=3)
    d2, t2 = run_nsp_mrr_pa(bch, NoiseProfile(), p_s=0.1, seed=3)
    assert np.array_equal(d1.v_b, d2.v_b)
    assert np.array_equal(d1.theta1, d2.theta1)
    assert d1.pa == d2.pa
    assert (d1.rho1, d1.rho2) == (d2.rho1, d2.rho2)
    assert t1.iterations == t2.iterations
    assert [r["sr_bits"] for r in t1.rows] == [r["sr_bits"] for r in t2.rows]


def test_pipeline_is_a_fixed_point_at_convergence():
    cfg = benchmark_scene(m_bs=6, n_irs=16)
    _, bch = build_channels(cfg)
    noise = NoiseProfile()
    d, trace = run_nsp_mrr_pa(bch, noise, p_s=0.1, seed=1)
    sr = blocked_secrecy_rate(bch, d, noise)

    # one more closed-form pass barely moves the design or the rate
    v_b, v_e, _ = nsp_beamformers(bch, d)
    assert np.linalg.norm(v_b - d.v_b) <= 1e-3
    assert np.linalg.norm(v_e - d.v_e) <= 1e-3
    d.v_b, d.v_e = v_b, v_e
    d.theta1, d.theta2, _ = mrr_reflect(bch, d)
    d.rho1, d.rho2 = amplification_rho(bch, d, noise)
    assert abs(blocked_secrecy_rate(bch, d, noise) - sr) <= 1e-3


def test_pipeline_accepts_stochastic_searchers():
    cfg = benchmark_scene(m_bs=6, n_irs=16)
    _, bch = build_channels(cfg)
    noise = NoiseProfile()
    for searcher, evals in ((pso_search, 30 * 101), (annealing_search, 2001)):
        d, trace = run_nsp_mrr_pa(bch, noise, p_s=0.1, searcher=searcher, seed=2)
        assert trace.rows[0]["search_evals"] == evals
        assert 0.0 < d.pa.eta < 1.0 and 0.0 < d.pa.beta < 1.0
        assert np.isfinite(blocked_secrecy_rate(bch, d, noise))


def test_pipeline_warm_starts_each_search_from_the_previous_split():
    cfg = benchmark_scene(m_bs=6, n_irs=16)
    _, bch = build_channels(cfg)
    calls = []

    def recording(objective, seed, start=None):
        res = annealing_search(objective, seed, start=start)
        calls.append((seed, start, res.point))
        return res

    _, trace = run_nsp_mrr_pa(bch, NoiseProfile(), p_s=0.1, searcher=recording, seed=4)
    assert len(calls) == trace.iterations >= 2
    assert [seed for seed, _, _ in calls] == list(range(4, 4 + len(calls)))
    assert calls[0][1] is None
    for (_, _, point), (_, start, _) in zip(calls, calls[1:]):
        assert start == point


def test_annealing_pipeline_converges_on_scattered_channels():
    # Criterion 10's Rician scene: a cold-started search per pass used to jitter
    # the split and run every annealing cell to the iteration cap.
    cfg = benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0, pl_ref_db=-60.0)
    w = dbm_to_watts(-70.0)
    noise = NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w)
    p_s = dbm_to_watts(20.0)
    for draw in (1, 2):
        _, bch = build_channels(replace(cfg, seed=cfg.seed + draw))
        d_es, _ = run_nsp_mrr_pa(bch, noise, p_s, seed=draw)
        sr_es = blocked_secrecy_rate(bch, d_es, noise)
        for seed in (1, 2, 3):
            d, trace = run_nsp_mrr_pa(bch, noise, p_s, searcher=annealing_search, seed=seed)
            assert trace.converged and "iteration-cap" not in trace.flags
            assert trace.iterations <= 20
            assert abs(blocked_secrecy_rate(bch, d, noise) - sr_es) <= 1e-3


# -- lockstep stacks of seeds ------------------------------------------------------

ALL_SEARCHERS = [exhaustive_search, pso_search, annealing_search,
                 fixed_point_search, fixed_eta_search, fixed_beta_search]


def _criterion_10_stack():
    """Criterion 10's Rician channel draws (scene seed 0 + run seeds 1, 2)."""
    cfg = benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0, pl_ref_db=-60.0)
    w = dbm_to_watts(-70.0)
    bchs = [build_channels(replace(cfg, seed=cfg.seed + s))[1] for s in (1, 2)]
    return bchs, NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w), dbm_to_watts(20.0)


def _without_wall_time(trace):
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in trace.rows]


def assert_same_run(stacked, alone):
    (d, trace), (d1, trace1) = stacked, alone
    for f in ("v_b", "v_e", "theta1", "theta2"):
        assert np.array_equal(getattr(d, f), getattr(d1, f))
    assert (d.rho1, d.rho2, d.pa, d.p_s) == (d1.rho1, d1.rho2, d1.pa, d1.p_s)
    assert _without_wall_time(trace) == _without_wall_time(trace1)
    assert (trace.iterations, trace.converged, trace.flags) == \
        (trace1.iterations, trace1.converged, trace1.flags)
    assert trace.wall_time_s > 0.0
    assert trace.rows[-1]["wall_time_s"] == trace.wall_time_s


@pytest.mark.parametrize("searcher", ALL_SEARCHERS)
def test_a_lockstep_stack_is_the_one_seed_runs_on_criterion_10(searcher):
    bchs, noise, p_s = _criterion_10_stack()
    seeds = [1, 2]
    runs = run_nsp_mrr_pa_seeds(bchs, noise, p_s, searcher, seeds)
    for run, bch, seed in zip(runs, bchs, seeds):
        assert_same_run(run, run_nsp_mrr_pa(bch, noise, p_s, searcher=searcher, seed=seed))
    if searcher is exhaustive_search:
        # the seeds leave the stack in different passes
        assert [trace.iterations for _, trace in runs] == [7, 10]


def test_the_rows_of_a_lockstep_stack_carry_their_own_times():
    bchs, noise, p_s = _criterion_10_stack()
    stack = [bchs[0], bchs[1], bchs[0], bchs[1]]
    t0 = time.perf_counter()
    runs = run_nsp_mrr_pa_seeds(stack, noise, p_s, exhaustive_search, [1, 2, 3, 4])
    elapsed = time.perf_counter() - t0
    times = [trace.wall_time_s for _, trace in runs]
    assert len(set(times)) == len(times)
    assert min(times) > 0.0
    # the seeds' times add up to the stack's
    assert sum(times) <= elapsed


def test_a_lockstep_stack_runs_each_seed_on_its_own_channels():
    # the same channels under three seeds, and the scene's other draw in between
    bchs, noise, p_s = _criterion_10_stack()
    stack = [bchs[0], bchs[1], bchs[0]]
    runs = run_nsp_mrr_pa_seeds(stack, noise, p_s, pso_search, [3, 4, 5])
    for run, bch, seed in zip(runs, stack, [3, 4, 5]):
        assert_same_run(run, run_nsp_mrr_pa(bch, noise, p_s, searcher=pso_search, seed=seed))


def test_degenerate_null_spaces_flag_only_their_own_seed():
    # M = 4 <= n_k + 1 = 5 leaves both null spaces trivial in the first scene
    w = dbm_to_watts(-70.0)
    noise = NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w)
    p_s = dbm_to_watts(20.0)
    small = build_channels(benchmark_scene(m_bs=4, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                           pl_ref_db=-60.0, seed=3))[1]
    wide = _criterion_10_stack()[0][0]
    bchs = [wide, small, wide]
    for searcher in (exhaustive_search, pso_search, annealing_search):
        runs = run_nsp_mrr_pa_seeds(bchs, noise, p_s, searcher, [1, 2, 3])
        for run, bch, seed in zip(runs, bchs, [1, 2, 3]):
            assert_same_run(run, run_nsp_mrr_pa(bch, noise, p_s, searcher=searcher, seed=seed))
        flags = [trace.flags for _, trace in runs]
        assert {"nsp-degenerate:v_b", "nsp-degenerate:v_e"} <= set(flags[1])
        assert not any(f.startswith("nsp-degenerate") for f in flags[0] + flags[2])


def test_a_lockstep_stack_flags_the_seeds_that_hit_the_cap(monkeypatch):
    monkeypatch.setattr(nsp_mrr, "MAX_ITERS", 8)
    bchs, noise, p_s = _criterion_10_stack()
    runs = run_nsp_mrr_pa_seeds(bchs, noise, p_s, exhaustive_search, [1, 2])
    assert [(t.iterations, t.converged, "iteration-cap" in t.flags) for _, t in runs] == \
        [(7, True, False), (8, False, True)]


def test_a_lockstep_stack_needs_one_channel_set_per_seed():
    bchs, noise, p_s = _criterion_10_stack()
    with pytest.raises(ValueError, match="one channel set per seed"):
        run_nsp_mrr_pa_seeds(bchs, noise, p_s, exhaustive_search, [1])
    with pytest.raises(ValueError, match="one channel set per seed"):
        run_nsp_mrr_pa_seeds([], noise, p_s, exhaustive_search, [])
    with pytest.raises(ValueError, match="one power per seed"):
        run_nsp_mrr_pa_seeds(bchs, noise, [p_s], exhaustive_search, [1, 2])


@pytest.mark.parametrize("searcher", [exhaustive_search, pso_search, annealing_search])
def test_a_lockstep_stack_runs_each_seed_at_its_own_power(searcher):
    bchs, noise, _ = _criterion_10_stack()
    stack = [bchs[0], bchs[1], bchs[0]]
    budgets = [dbm_to_watts(10.0), dbm_to_watts(20.0), dbm_to_watts(30.0)]
    runs = run_nsp_mrr_pa_seeds(stack, noise, budgets, searcher, [1, 2, 3])
    for run, bch, p_s, seed in zip(runs, stack, budgets, [1, 2, 3]):
        assert run[0].p_s == p_s
        assert_same_run(run, run_nsp_mrr_pa(bch, noise, p_s, searcher=searcher, seed=seed))


_BLOCKED = ["nsp-mrr-pa/ES", "nsp-mrr-pa/PSO", "nsp-mrr-pa/SA",
            "fixed-eta", "fixed-beta", "fixed-both"]


def test_blocked_rows_reproduce_the_recorded_golden():
    """Rows recorded before PaScalarContext moved designs to their splits:
    the six blocked methods on criterion 10's Rician scene, and a pa_grid
    on the degenerate scene, where both null spaces are trivial."""
    golden = json.loads((Path(__file__).parent / "data" / "blocked_golden.json").read_text())
    specs = {
        "criterion_10": ExperimentSpec(
            sweep=SweepSpec("n_elements", [8]), methods=_BLOCKED,
            scene=benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                  pl_ref_db=-60.0),
            power_dbm=20.0, seeds=[1, 2]),
        "pa_grid_degenerate": ExperimentSpec(
            sweep=SweepSpec("pa_grid", [(0.2, 0.3), (0.5, 0.5), (0.9, 0.1)]), methods=_BLOCKED,
            scene=benchmark_scene(m_bs=4, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                  pl_ref_db=-60.0),
            seeds=[1, 2]),
    }
    for name, spec in specs.items():
        rows, want = run_experiment(spec), golden[name]
        # method, sweep value, seed, iterations, flags and the split exactly
        got = [(r.method, r.sweep_value, r.seed, r.iterations, r.flags, r.eta, r.beta)
               for r in rows]
        assert got == [(w[0], tuple(w[1]) if isinstance(w[1], list) else w[1], w[2], w[4],
                        w[5], w[6], w[7]) for w in want]
        assert_allclose([r.sr_bits for r in rows], [w[3] for w in want], rtol=1e-10)
