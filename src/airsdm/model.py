"""Core signal model of the monolithic active-IRS wiretap link.

The BS transmits a confidential beam ``v_b`` plus an artificial-noise beam
``v_e``; the active IRS applies the diagonal reflect vector ``theta``
(amplitude and phase per element) and injects its own thermal noise of
power ``sigma2_irs`` per element.  All rate/power expressions below are
averages over unit-power independent symbols and the receiver/IRS noise.

Effective receive row channel:  t^H = h^H + g^H diag(theta) H_si.

Receiver SNRs (x in {b, e} denotes Bob / Eve):

    snr_x = |t_x^H v_b|^2 / (|t_x^H v_e|^2 + sigma2_irs*||g_x^H diag(theta)||^2 + sigma2_x)

Secrecy rate:  log2(1+snr_b) - log2(1+snr_e), not clamped at zero here;
callers decide whether to clamp.

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
    "DesignState",
    "Evaluation",
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
    return _effective_rows(h.conj(), g.conj(), H_si, theta).conj()


def _effective_rows(h_rows: np.ndarray, g_rows: np.ndarray, H_si: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
    """Row channels t^H = h^H + g^H diag(theta) H_si from conjugated h and g
    (one receiver per row when stacked)."""
    return h_rows + (g_rows * theta) @ H_si


def _sq_norm(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _sinr(signal: complex, den: float) -> float:
    """|signal|^2 over the rest of the received power ``den``."""
    return abs(signal) ** 2 / (den - abs(signal) ** 2)


@dataclass
class Evaluation:
    """Per-receiver scalars and total power of one design.

    s_x = t_x^H v_b and i_x = t_x^H v_e are the complex gains of the two
    beams at receiver x, den_x the full received power |s|^2 + |i|^2 plus
    the noise terms.  Every rate, the surrogate, its auxiliaries and the
    power report derive from these.
    """

    s_b: complex
    i_b: complex
    den_b: float
    s_e: complex
    i_e: complex
    den_e: float
    power: float

    def snr_pair(self) -> tuple[float, float]:
        """(snr_b, snr_e): Bob's and Eve's SINR on the confidential beam."""
        return _sinr(self.s_b, self.den_b), _sinr(self.s_e, self.den_e)

    def virtual_snrs(self) -> tuple[float, float]:
        """(snr_b, snr_e_virtual): Bob decodes v_b; Eve virtually decodes v_e."""
        return _sinr(self.s_b, self.den_b), _sinr(self.i_e, self.den_e)

    def secrecy_rate(self) -> float:
        snr_b, snr_e = self.snr_pair()
        return math.log2(1.0 + snr_b) - math.log2(1.0 + snr_e)

    def surrogate(self, aux: "AuxVars") -> float:
        """The logarithmic surrogate (nats) at these auxiliaries."""
        val = math.log1p(aux.lam_b) + math.log1p(aux.lam_e) - aux.lam_b - aux.lam_e
        val -= abs(aux.mu_b) ** 2 * self.den_b
        val -= abs(aux.mu_e) ** 2 * self.den_e
        val += 2.0 * math.sqrt(1.0 + aux.lam_b) * (aux.mu_b.conjugate() * self.s_b).real
        val += 2.0 * math.sqrt(1.0 + aux.lam_e) * (aux.mu_e.conjugate() * self.i_e).real
        return float(val)


class DesignState:
    """A design plus the products of it that every expression shares.

    ``rows`` holds t_b^H and t_e^H (one row each) and depends only on theta;
    ``hv_b`` and ``hv_e`` are H_si v_b and H_si v_e.  Change the design
    through the setters, which refresh the products of the block they
    change, or call ``refresh`` after changing ``d`` in place.  The
    design-independent arrays of the channels are built once, here.
    """

    def __init__(self, ch: ChannelSet, d: Design):
        self.H_si = ch.H_si                                  # (N, M)
        self.h_rows = np.stack([ch.h_b, ch.h_e]).conj()      # (2, M) h_b^H, h_e^H
        self.g_rows = np.stack([ch.g_b, ch.g_e]).conj()      # (2, N) g_b^H, g_e^H
        # (N, 4) columns conj(g_b), conj(g_b), conj(g_e), conj(g_e)
        self.g_cols = self.g_rows[[0, 0, 1, 1]].T.copy()
        self.g_abs2 = np.abs(self.g_rows) ** 2               # (2, N)
        self.eye_m = np.eye(ch.H_si.shape[1])
        self.d = d
        self.refresh()

    def refresh(self) -> None:
        self.set_v_b(self.d.v_b)
        self.set_v_e(self.d.v_e)
        self.set_theta(self.d.theta)

    def set_v_b(self, v_b: np.ndarray) -> None:
        self.d.v_b = v_b
        self.hv_b = self.H_si @ v_b

    def set_v_e(self, v_e: np.ndarray) -> None:
        self.d.v_e = v_e
        self.hv_e = self.H_si @ v_e

    def set_theta(self, theta: np.ndarray) -> None:
        self.d.theta = theta
        self.rows = _effective_rows(self.h_rows, self.g_rows, self.H_si, theta)

    def beam_power(self, bob: bool) -> float:
        """Power one beam costs at the BS and through the IRS:
        ||v||^2 + ||diag(theta) H_si v||^2."""
        v, hv = (self.d.v_b, self.hv_b) if bob else (self.d.v_e, self.hv_e)
        return _sq_norm(v) + _sq_norm(self.d.theta * hv)

    def irs_noise_power(self, noise: NoiseProfile) -> float:
        """Amplified IRS noise power sigma2_irs * ||theta||^2."""
        return noise.sigma2_irs * _sq_norm(self.d.theta)

    def evaluate(self, noise: NoiseProfile) -> Evaluation:
        """The per-receiver gains, received powers and total power of ``d``."""
        d = self.d
        (s_b, i_b), (s_e, i_e) = (self.rows @ np.array([d.v_b, d.v_e]).T).tolist()
        amp_b, amp_e = (noise.sigma2_irs * (self.g_abs2 @ np.abs(d.theta) ** 2)).tolist()
        power = self.beam_power(True) + self.beam_power(False) + self.irs_noise_power(noise)
        return Evaluation(
            s_b=s_b, i_b=i_b, den_b=abs(s_b) ** 2 + abs(i_b) ** 2 + amp_b + noise.sigma2_b,
            s_e=s_e, i_e=i_e, den_e=abs(s_e) ** 2 + abs(i_e) ** 2 + amp_e + noise.sigma2_e,
            power=power)


def _evaluate(ch: ChannelSet, d: Design, noise: NoiseProfile) -> Evaluation:
    """Everything the rates, the surrogate and the power need at one design."""
    return DesignState(ch, d).evaluate(noise)


def snr_pair(ch: ChannelSet, d: Design, noise: NoiseProfile) -> tuple[float, float]:
    """(snr_b, snr_e): Bob's and Eve's SINR on the confidential beam."""
    return _evaluate(ch, d, noise).snr_pair()


def secrecy_rate(ch: ChannelSet, d: Design, noise: NoiseProfile) -> float:
    """Achievable secrecy rate in bits: log2(1+snr_b) - log2(1+snr_e)."""
    return _evaluate(ch, d, noise).secrecy_rate()


def total_power(ch: ChannelSet, d: Design, noise: NoiseProfile) -> float:
    """Average transmit power spent by the BS plus the active IRS.

    BS side: ||v_b||^2 + ||v_e||^2.  IRS side: the reflected-signal power
    ||diag(theta) H_si v_b||^2 + ||diag(theta) H_si v_e||^2 plus the
    amplified IRS noise sigma2_irs * ||theta||^2 (cross terms between the
    two beams vanish under independent unit-power symbols).
    """
    return _evaluate(ch, d, noise).power


def virtual_rate(ch: ChannelSet, d: Design, noise: NoiseProfile,
                 base: float = math.e) -> float:
    """Sum of Bob's rate and Eve's virtual (AN-decoding) rate.

    ``base`` selects the logarithm (e for nats, 2 for bits); the surrogate
    ``ldt_objective`` is tight against the nats version.
    """
    snr_b, snr_ev = _evaluate(ch, d, noise).virtual_snrs()
    return (math.log(1.0 + snr_b) + math.log(1.0 + snr_ev)) / math.log(base)


def ldt_objective(ch: ChannelSet, d: Design, noise: NoiseProfile,
                  aux: AuxVars) -> float:
    """Logarithmic surrogate of the virtual rate (nats).

    Concave in each variable block; equals ``virtual_rate`` (nats) when the
    auxiliaries solve their stationarity conditions at the given design.
    """
    return _evaluate(ch, d, noise).surrogate(aux)
