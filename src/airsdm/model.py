"""Core signal model of the monolithic active-IRS wiretap link.

The BS transmits a confidential beam ``v_b`` plus an artificial-noise beam
``v_e``; the active IRS applies the diagonal reflect vector ``theta``
(amplitude and phase per element) and injects its own thermal noise of
power ``sigma2_irs`` per element.  All rate/power expressions below are
averages over unit-power independent symbols and the receiver/IRS noise.

Effective receive row channel:  t^H = h^H + g^H diag(theta) H_si.

Receiver SNRs (x in {b, e} denotes Bob / Eve):

    snr_x = |t_x^H v_b|^2 / (|t_x^H v_e|^2 + sigma2_irs*||g_x^H diag(theta)||^2 + sigma2_x)

Secrecy rate:  log2(1+snr_b) - log2(1+snr_e), clamped at reporting level
never here (callers decide).

The "virtual" rate used by the alternating optimizer replaces Eve's
decoding role: snr_e_virtual treats the AN beam as Eve's useful signal.
Its logarithmic surrogate (``ldt_objective``) is a lower bound that is
tight at the optimal auxiliary variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import ChannelSet

__all__ = [
    "Design",
    "NoiseProfile",
    "AuxVars",
    "effective_channel",
    "snr_pair",
    "secrecy_rate",
    "total_power",
    "virtual_rate",
    "ldt_objective",
]


@dataclass
class Design:
    """One candidate transmit design for the monolithic system."""

    v_b: np.ndarray   # (M,) confidential-message beamformer
    v_e: np.ndarray   # (M,) artificial-noise beamformer
    theta: np.ndarray  # (N,) diagonal of the IRS reflect matrix

    def copy(self) -> "Design":
        return Design(self.v_b.copy(), self.v_e.copy(), self.theta.copy())


@dataclass
class NoiseProfile:
    """Noise powers in watts (IRS per-element, Bob, Eve)."""

    sigma2_irs: float = 1e-10   # -70 dBm
    sigma2_b: float = 1e-10
    sigma2_e: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("sigma2_irs", "sigma2_b", "sigma2_e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class AuxVars:
    """Auxiliary variables of the logarithmic surrogate."""

    lam_b: float
    lam_e: float
    mu_b: complex
    mu_e: complex

    def __post_init__(self) -> None:
        if self.lam_b < 0 or self.lam_e < 0:
            raise ValueError("lambda auxiliaries must be non-negative")


def effective_channel(h: np.ndarray, g: np.ndarray, H_si: np.ndarray,
                      theta: np.ndarray) -> np.ndarray:
    """Column vector t with t^H = h^H + g^H diag(theta) H_si."""
    row = h.conj() + (g.conj() * theta) @ H_si
    return row.conj()


def _receiver_terms(ch: ChannelSet, d: Design, noise: NoiseProfile):
    """Per-receiver signal/interference scalars shared by the rate expressions.

    Returns (s_b, i_b, den_b, s_e, i_e, den_e) where s/i are the complex
    gains t^H v_b / t^H v_e and den is the full received power
    |s|^2 + |i|^2 + noise terms.
    """
    t_b = effective_channel(ch.h_b, ch.g_b, ch.H_si, d.theta)
    t_e = effective_channel(ch.h_e, ch.g_e, ch.H_si, d.theta)
    s_b = np.vdot(t_b, d.v_b)
    i_b = np.vdot(t_b, d.v_e)
    s_e = np.vdot(t_e, d.v_b)
    i_e = np.vdot(t_e, d.v_e)
    amp_b = noise.sigma2_irs * float(np.sum(np.abs(ch.g_b) ** 2 * np.abs(d.theta) ** 2))
    amp_e = noise.sigma2_irs * float(np.sum(np.abs(ch.g_e) ** 2 * np.abs(d.theta) ** 2))
    den_b = abs(s_b) ** 2 + abs(i_b) ** 2 + amp_b + noise.sigma2_b
    den_e = abs(s_e) ** 2 + abs(i_e) ** 2 + amp_e + noise.sigma2_e
    return s_b, i_b, den_b, s_e, i_e, den_e


def snr_pair(ch: ChannelSet, d: Design, noise: NoiseProfile) -> tuple[float, float]:
    """(snr_b, snr_e): Bob's and Eve's SINR on the confidential beam."""
    s_b, i_b, den_b, s_e, i_e, den_e = _receiver_terms(ch, d, noise)
    snr_b = abs(s_b) ** 2 / (den_b - abs(s_b) ** 2)
    snr_e = abs(s_e) ** 2 / (den_e - abs(s_e) ** 2)
    return float(snr_b), float(snr_e)


def secrecy_rate(ch: ChannelSet, d: Design, noise: NoiseProfile) -> float:
    """Achievable secrecy rate in bits: log2(1+snr_b) - log2(1+snr_e)."""
    snr_b, snr_e = snr_pair(ch, d, noise)
    return math.log2(1.0 + snr_b) - math.log2(1.0 + snr_e)


def total_power(ch: ChannelSet, d: Design, noise: NoiseProfile) -> float:
    """Average transmit power spent by the BS plus the active IRS.

    BS side: ||v_b||^2 + ||v_e||^2.  IRS side: the reflected-signal power
    ||diag(theta) H_si v_b||^2 + ||diag(theta) H_si v_e||^2 plus the
    amplified IRS noise sigma2_irs * ||theta||^2 (cross terms between the
    two beams vanish under independent unit-power symbols).
    """
    p_bs = float(np.sum(np.abs(d.v_b) ** 2) + np.sum(np.abs(d.v_e) ** 2))
    r_b = d.theta * (ch.H_si @ d.v_b)
    r_e = d.theta * (ch.H_si @ d.v_e)
    p_irs = float(np.sum(np.abs(r_b) ** 2) + np.sum(np.abs(r_e) ** 2))
    p_noise = noise.sigma2_irs * float(np.sum(np.abs(d.theta) ** 2))
    return p_bs + p_irs + p_noise


def _virtual_snrs(ch: ChannelSet, d: Design, noise: NoiseProfile) -> tuple[float, float]:
    """(snr_b, snr_e_virtual): Bob decodes v_b; Eve virtually decodes v_e."""
    s_b, i_b, den_b, s_e, i_e, den_e = _receiver_terms(ch, d, noise)
    snr_b = abs(s_b) ** 2 / (den_b - abs(s_b) ** 2)
    snr_ev = abs(i_e) ** 2 / (den_e - abs(i_e) ** 2)
    return float(snr_b), float(snr_ev)


def virtual_rate(ch: ChannelSet, d: Design, noise: NoiseProfile,
                 base: float = math.e) -> float:
    """Sum of Bob's rate and Eve's virtual (AN-decoding) rate.

    ``base`` selects the logarithm (e for nats, 2 for bits); the surrogate
    ``ldt_objective`` is tight against the nats version.
    """
    snr_b, snr_ev = _virtual_snrs(ch, d, noise)
    return (math.log(1.0 + snr_b) + math.log(1.0 + snr_ev)) / math.log(base)


def ldt_objective(ch: ChannelSet, d: Design, noise: NoiseProfile,
                  aux: AuxVars) -> float:
    """Logarithmic surrogate of the virtual rate (nats).

    Concave in each variable block; equals ``virtual_rate`` (nats) when the
    auxiliaries solve their stationarity conditions at the given design.
    """
    s_b, i_b, den_b, s_e, i_e, den_e = _receiver_terms(ch, d, noise)
    val = math.log1p(aux.lam_b) + math.log1p(aux.lam_e) - aux.lam_b - aux.lam_e
    val -= abs(aux.mu_b) ** 2 * den_b
    val -= abs(aux.mu_e) ** 2 * den_e
    val += 2.0 * math.sqrt(1.0 + aux.lam_b) * (np.conj(aux.mu_b) * s_b).real
    val += 2.0 * math.sqrt(1.0 + aux.lam_e) * (np.conj(aux.mu_e) * i_e).real
    return float(val)

