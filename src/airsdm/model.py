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

import copy
import math
from collections.abc import Sequence
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
    """One candidate transmit design for the monolithic system, or a stack
    of them: each array then has a leading axis with one row per design."""

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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass
class AuxVars:
    """Auxiliary variables of the logarithmic surrogate."""

    lam_b: float
    lam_e: float
    mu_b: complex
    mu_e: complex

    def __post_init__(self) -> None:
        if not (0 <= self.lam_b < math.inf and 0 <= self.lam_e < math.inf):
            raise ValueError(f"lambda auxiliaries must be non-negative and finite, "
                             f"got {self.lam_b}, {self.lam_e}")


def effective_channel(h: np.ndarray, g: np.ndarray, H_si: np.ndarray,
                      theta: np.ndarray) -> np.ndarray:
    """Column vector t with t^H = h^H + g^H diag(theta) H_si."""
    return _effective_rows(h.conj()[None], g.conj()[None], H_si, theta)[0].conj()


def _effective_rows(h_rows: np.ndarray, g_rows: np.ndarray, H_si: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
    """Row channels t^H = h^H + g^H diag(theta) H_si from conjugated h and g
    (one receiver per row when stacked; leading axes index designs)."""
    return h_rows + (g_rows * theta[..., None, :]) @ H_si


def _columns(*vs: np.ndarray) -> np.ndarray:
    """The vectors as the columns of one matrix per design: (..., m, len(vs))."""
    V = np.array(vs)
    return V.transpose(1, 2, 0) if V.ndim == 3 else V.T


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


def _sq_norms(v: np.ndarray) -> list[float]:
    """||v||^2 of each row of v (one row for a 1-D v)."""
    norms = np.vecdot(v, v).real.tolist()
    return norms if isinstance(norms, list) else [norms]


class DesignState:
    """Designs plus the products of them that every expression shares.

    Holds one design (``ch`` a ChannelSet, ``d`` with 1-D arrays) or a stack
    of them (``ch`` a sequence of ChannelSets, one per design, and ``d``
    whose arrays carry a leading axis: row s is design s); ``one`` tells
    them apart.  ``rows`` holds t_b^H and t_e^H (one row each) and depends
    only on theta; ``hv_b`` and ``hv_e`` are H_si v_b and H_si v_e.  Change
    the designs through the setters, which refresh the products of the
    block they change.  The design-independent arrays of the channels are
    built once, here.
    """

    def __init__(self, ch: ChannelSet | Sequence[ChannelSet], d: Design):
        self.one = isinstance(ch, ChannelSet)
        chs = [ch] if self.one else list(ch)

        def stack(arrays):
            return arrays[0] if self.one else np.stack(arrays)

        self.H_si = stack([c.H_si for c in chs])                             # (..., N, M)
        self.h_rows = stack([np.stack([c.h_b, c.h_e]) for c in chs]).conj()  # (..., 2, M) h^H
        self.g_rows = stack([np.stack([c.g_b, c.g_e]) for c in chs]).conj()  # (..., 2, N) g^H
        # (..., N, 4) columns conj(g_b), conj(g_b), conj(g_e), conj(g_e)
        self.g_cols = self.g_rows[..., [0, 0, 1, 1], :].swapaxes(-1, -2).copy()
        self.g_abs2 = np.abs(self.g_rows) ** 2                               # (..., 2, N)
        # (..., 3, N) rows |g_b|^2, |g_e|^2, 1: against |theta|^2 they give the
        # amplified IRS noise at Bob and Eve (over sigma2_irs) and ||theta||^2
        self.g_weights = np.concatenate(
            [self.g_abs2, np.ones(self.g_abs2[..., :1, :].shape)], axis=-2)
        self.eye_m = np.eye(self.H_si.shape[-1])
        self.d = d
        self._refresh()

    def take(self, rows: list[int]) -> DesignState:
        """The stack of the designs at ``rows``, with their products."""
        new = copy.copy(self)
        for name in ("H_si", "h_rows", "g_rows", "g_cols", "g_abs2", "g_weights"):
            setattr(new, name, getattr(self, name)[rows])
        d = self.d
        new.d = Design(d.v_b[rows], d.v_e[rows], d.theta[rows])
        new._refresh()
        return new

    def _refresh(self) -> None:
        self.set_v_b(self.d.v_b)
        self.set_v_e(self.d.v_e)
        self.set_theta(self.d.theta)

    def set_v_b(self, v_b: np.ndarray) -> None:
        self.d.v_b = v_b
        self.hv_b = np.matvec(self.H_si, v_b)

    def set_v_e(self, v_e: np.ndarray) -> None:
        self.d.v_e = v_e
        self.hv_e = np.matvec(self.H_si, v_e)

    def set_theta(self, theta: np.ndarray) -> None:
        self.d.theta = theta
        self.rows = _effective_rows(self.h_rows, self.g_rows, self.H_si, theta)
        self.rows_h = self.rows.conj()                     # t_b, t_e, one row each
        self._theta_terms = np.matvec(self.g_weights, np.abs(theta) ** 2).reshape(-1, 3).tolist()

    def spent(self, noise: NoiseProfile, *parts: str) -> list[float]:
        """Power the named parts spend, one float per design.

        "v_b" and "v_e" name a beam at the BS and through the IRS,
        ||v||^2 + ||diag(theta) H_si v||^2; "bs" both beams at the BS only;
        "irs" the amplified IRS noise sigma2_irs ||theta||^2.  The beam
        parts are summed as one norm.
        """
        d = self.d
        vs = []
        for part in parts:
            if part == "bs":
                vs += [d.v_b, d.v_e]
            elif part != "irs":
                v, hv = (d.v_b, self.hv_b) if part == "v_b" else (d.v_e, self.hv_e)
                vs += [v, d.theta * hv]
        norms = _sq_norms(np.concatenate(vs, axis=-1))
        if "irs" in parts:
            norms = [x + noise.sigma2_irs * t[2] for x, t in zip(norms, self._theta_terms)]
        return norms

    def evaluate(self, noise: NoiseProfile) -> Evaluation | list[Evaluation]:
        """The per-receiver gains, received powers and total power of the
        design, or of each design of a stack (a list, one per row)."""
        d = self.d
        V = _columns(d.v_b, d.v_e)
        gains = (self.rows @ V).reshape(-1, 4).tolist()                    # s_b, i_b, s_e, i_e
        power = self.spent(noise, "v_b", "v_e", "irs")
        s2 = noise.sigma2_irs
        evs = [Evaluation(
            s_b=s_b, i_b=i_b, den_b=abs(s_b) ** 2 + abs(i_b) ** 2 + s2 * g_b + noise.sigma2_b,
            s_e=s_e, i_e=i_e, den_e=abs(s_e) ** 2 + abs(i_e) ** 2 + s2 * g_e + noise.sigma2_e,
            power=p)
            for (s_b, i_b, s_e, i_e), (g_b, g_e, _), p
            in zip(gains, self._theta_terms, power)]
        return evs if V.ndim == 3 else evs[0]


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
