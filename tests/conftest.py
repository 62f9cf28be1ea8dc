"""Shared builders: random channel sets and designs for the test suites."""

import math

import numpy as np

from airsdm import ldt_cffp
from airsdm.model import Design, NoiseProfile, total_power
from airsdm.nsp_mrr import BlockDesign, PaFactors, amplification_rho
from airsdm.scene import BlockedChannelSet, ChannelSet


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian array."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.sqrt(2.0)


def random_channelset(rng: np.random.Generator, m: int = 4, n: int = 8,
                      scale: float = 1.0) -> ChannelSet:
    """iid complex-Gaussian monolithic channel set (unit scale by default)."""
    return ChannelSet(
        h_b=scale * crandn(rng, m),
        h_e=scale * crandn(rng, m),
        g_b=scale * crandn(rng, n),
        g_e=scale * crandn(rng, n),
        H_si=scale * crandn(rng, n, m),
    )


def random_blocked(rng: np.random.Generator, m: int = 6, n1: int = 4,
                   n2: int = 3, scale: float = 1.0) -> BlockedChannelSet:
    """iid complex-Gaussian blocked channel set."""
    return BlockedChannelSet(
        h_b=scale * crandn(rng, m),
        h_e=scale * crandn(rng, m),
        H_s1=scale * crandn(rng, n1, m),
        H_s2=scale * crandn(rng, n2, m),
        g_b1=scale * crandn(rng, n1),
        g_e1=scale * crandn(rng, n1),
        g_b2=scale * crandn(rng, n2),
        g_e2=scale * crandn(rng, n2),
    )


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_design(rng: np.random.Generator, ch: ChannelSet, noise: NoiseProfile,
                  p_max: float, fill: float = 0.9) -> Design:
    """Random design spending exactly ``fill * p_max``.

    The beams take half the spend; the reflect vector is then scaled to the
    other half using the fact that the reflect-dependent power is quadratic
    in |theta| once the beams are fixed.
    """
    v_b = crandn(rng, ch.h_b.size)
    v_e = crandn(rng, ch.h_b.size)
    beam = float(np.sum(np.abs(v_b) ** 2 + np.abs(v_e) ** 2))
    s = np.sqrt(0.5 * fill * p_max / beam)
    v_b, v_e = s * v_b, s * v_e

    theta = crandn(rng, ch.g_b.size)
    d = Design(v_b=v_b, v_e=v_e, theta=theta)
    spent_theta = total_power(ch, d, noise) - 0.5 * fill * p_max
    d.theta = theta * np.sqrt(0.5 * fill * p_max / spent_theta)
    return d


def random_block_design(rng: np.random.Generator, bch: BlockedChannelSet,
                        noise: NoiseProfile, p_s: float = 1.0) -> BlockDesign:
    """Random unit-vector blocked design with its exact amplification gains."""
    pa = PaFactors(eta=float(rng.uniform(0.1, 0.9)),
                   beta=float(rng.uniform(0.1, 0.9)),
                   mu=float(rng.uniform(0.1, 0.9)))
    d = BlockDesign(
        v_b=unit(crandn(rng, bch.h_b.size)),
        v_e=unit(crandn(rng, bch.h_b.size)),
        theta1=unit(crandn(rng, bch.n1)),
        theta2=unit(crandn(rng, bch.n2)),
        rho1=0.0, rho2=0.0, pa=pa, p_s=p_s,
    )
    d.rho1, d.rho2 = amplification_rho(bch, d, noise)
    return d


def overspend_seed(monkeypatch, seed: int, factor: float) -> None:
    """Make ``ldt_cffp.initial_design`` start ``seed`` with its AN beam and
    IRS noise spending ``factor`` times the budget, so with ``factor`` > 1
    its first v_b block has no budget; other seeds start as usual."""
    initial = ldt_cffp.initial_design

    def overspent(ch, noise, p_max, s):
        d = initial(ch, noise, p_max, s)
        if s == seed:
            beam = np.sum(np.abs(d.v_e) ** 2) + np.sum(np.abs(d.theta * (ch.H_si @ d.v_e)) ** 2)
            irs = noise.sigma2_irs * np.sum(np.abs(d.theta) ** 2)
            d.v_e = d.v_e * math.sqrt((factor * p_max - irs) / beam)
        return d

    monkeypatch.setattr(ldt_cffp, "initial_design", overspent)
