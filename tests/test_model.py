"""System model: effective channels, rates, powers, design serialization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn, random_channelset, random_design

from airsdm.model import (
    AuxVars,
    Design,
    NoiseProfile,
    effective_channel,
    ldt_objective,
    secrecy_rate,
    snr_pair,
    total_power,
    virtual_rate,
)
from airsdm.scene import ChannelSet


def _tiny_channelset() -> ChannelSet:
    """M = 2, N = 2 hand-checkable channels (identity forward link)."""
    return ChannelSet(
        h_b=np.array([2.0, 0.0], dtype=complex),
        h_e=np.array([1.0, 0.0], dtype=complex),
        g_b=np.array([0.0, 0.0], dtype=complex),
        g_e=np.array([0.0, 0.0], dtype=complex),
        H_si=np.eye(2, dtype=complex),
    )


def test_effective_channel_matches_elementwise_sum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = rng.integers(1, 6, size=2)
        h, g = crandn(rng, m), crandn(rng, n)
        H = crandn(rng, n, m)
        theta = crandn(rng, n)
        t = effective_channel(h, g, H, theta)
        # row convention: t^H v == h^H v + sum_k conj(g_k) theta_k (H v)_k
        v = crandn(rng, m)
        direct = np.vdot(h, v)
        reflected = np.sum(g.conj() * theta * (H @ v))
        assert_allclose(np.vdot(t, v), direct + reflected, rtol=1e-12)


def test_effective_channel_zero_reflection_is_direct():
    rng = np.random.default_rng(1)
    h, g = crandn(rng, 4), crandn(rng, 8)
    H = crandn(rng, 8, 4)
    t = effective_channel(h, g, H, np.zeros(8, dtype=complex))
    assert_allclose(t, h, rtol=1e-15)


def test_snr_pair_hand_example():
    ch = _tiny_channelset()
    d = Design(v_b=np.array([1.0, 0.0], dtype=complex),
               v_e=np.array([0.0, 0.0], dtype=complex),
               theta=np.zeros(2, dtype=complex))
    noise = NoiseProfile(sigma2_irs=1e-3, sigma2_b=1e-3, sigma2_e=1e-3)
    snr_b, snr_e = snr_pair(ch, d, noise)
    # Bob: |h_b^H v_b|^2 / sigma^2 = 4/1e-3; Eve: 1/1e-3
    assert_allclose(snr_b, 4000.0, rtol=1e-12)
    assert_allclose(snr_e, 1000.0, rtol=1e-12)
    assert_allclose(secrecy_rate(ch, d, noise),
                    math.log2(4001.0) - math.log2(1001.0), rtol=1e-12)


def test_snr_denominator_includes_an_and_amplified_noise():
    rng = np.random.default_rng(2)
    ch = random_channelset(rng, m=3, n=5)
    noise = NoiseProfile(sigma2_irs=0.01, sigma2_b=0.02, sigma2_e=0.03)
    d = Design(v_b=crandn(rng, 3), v_e=crandn(rng, 3), theta=crandn(rng, 5))
    t_b = effective_channel(ch.h_b, ch.g_b, ch.H_si, d.theta)
    expected = (abs(np.vdot(t_b, d.v_b)) ** 2
                / (abs(np.vdot(t_b, d.v_e)) ** 2
                   + 0.01 * np.sum(np.abs(ch.g_b) ** 2 * np.abs(d.theta) ** 2)
                   + 0.02))
    assert_allclose(snr_pair(ch, d, noise)[0], expected, rtol=1e-12)


def test_total_power_hand_example():
    ch = _tiny_channelset()
    d = Design(v_b=np.array([1.0, 0.0], dtype=complex),
               v_e=np.array([0.0, 2.0], dtype=complex),
               theta=np.array([1.0j, 0.5], dtype=complex))
    noise = NoiseProfile(sigma2_irs=0.01, sigma2_b=1.0, sigma2_e=1.0)
    # ||v_b||^2 + ||v_e||^2 + ||theta*(H v_b)||^2 + ||theta*(H v_e)||^2
    # + sigma^2 ||theta||^2 = 1 + 4 + 1 + 1 + 0.01*1.25
    assert_allclose(total_power(ch, d, noise), 7.0125, rtol=1e-14)


def test_virtual_rate_base_change():
    rng = np.random.default_rng(3)
    ch = random_channelset(rng)
    noise = NoiseProfile(sigma2_irs=0.05, sigma2_b=0.05, sigma2_e=0.05)
    d = random_design(rng, ch, noise, p_max=4.0)
    nats = virtual_rate(ch, d, noise, base=math.e)
    bits = virtual_rate(ch, d, noise, base=2.0)
    assert_allclose(nats, bits * math.log(2.0), rtol=1e-12)
    assert nats > 0.0


def test_ldt_objective_formula():
    """The surrogate evaluates its printed closed form term by term."""
    rng = np.random.default_rng(4)
    ch = random_channelset(rng, m=2, n=3)
    noise = NoiseProfile(sigma2_irs=0.1, sigma2_b=0.2, sigma2_e=0.3)
    d = Design(v_b=crandn(rng, 2), v_e=crandn(rng, 2), theta=crandn(rng, 3))
    aux = AuxVars(lam_b=1.5, lam_e=0.5, mu_b=0.3 - 0.1j, mu_e=-0.2 + 0.4j)

    t_b = effective_channel(ch.h_b, ch.g_b, ch.H_si, d.theta)
    t_e = effective_channel(ch.h_e, ch.g_e, ch.H_si, d.theta)
    den_b = (abs(np.vdot(t_b, d.v_b)) ** 2 + abs(np.vdot(t_b, d.v_e)) ** 2
             + 0.1 * np.sum(np.abs(ch.g_b) ** 2 * np.abs(d.theta) ** 2) + 0.2)
    den_e = (abs(np.vdot(t_e, d.v_b)) ** 2 + abs(np.vdot(t_e, d.v_e)) ** 2
             + 0.1 * np.sum(np.abs(ch.g_e) ** 2 * np.abs(d.theta) ** 2) + 0.3)
    expected = (math.log1p(1.5) + math.log1p(0.5) - 2.0
                - abs(aux.mu_b) ** 2 * den_b - abs(aux.mu_e) ** 2 * den_e
                + 2 * math.sqrt(2.5) * (np.conj(aux.mu_b) * np.vdot(t_b, d.v_b)).real
                + 2 * math.sqrt(1.5) * (np.conj(aux.mu_e) * np.vdot(t_e, d.v_e)).real)
    assert_allclose(ldt_objective(ch, d, noise, aux), expected, rtol=1e-12)


def test_aux_vars_reject_negative_lambda():
    with pytest.raises(ValueError):
        AuxVars(lam_b=-0.1, lam_e=0.0, mu_b=0j, mu_e=0j)


def test_noise_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        NoiseProfile(sigma2_b=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["sigma2_irs", "sigma2_b", "sigma2_e"])
def test_noise_profile_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        NoiseProfile(**{name: value})


@pytest.mark.parametrize("lam_b, lam_e", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0)])
def test_aux_vars_reject_non_finite_lambda(lam_b, lam_e):
    with pytest.raises(ValueError, match="non-negative and finite"):
        AuxVars(lam_b=lam_b, lam_e=lam_e, mu_b=0j, mu_e=0j)


def test_design_copy_is_deep():
    rng = np.random.default_rng(6)
    d = Design(v_b=crandn(rng, 2), v_e=crandn(rng, 2), theta=crandn(rng, 2))
    c = d.copy()
    c.v_b[0] = 0.0
    assert d.v_b[0] != 0.0
