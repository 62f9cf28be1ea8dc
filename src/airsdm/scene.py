"""Scene geometry and line-of-sight channel synthesis.

Builds the deterministic LoS channels of a wiretap link assisted by an
active IRS: a base station (BS) with a uniform linear array, an IRS that
is either one monolithic surface or two blocks serving the legitimate
receiver (Bob) and the eavesdropper (Eve), and single-antenna Bob/Eve.

Conventions
-----------
* All arrays are half-wavelength ULAs whose axis is the global x-axis;
  the steering phase of element k toward a node is pi*k*sin(angle) where
  sin(angle) is the direction cosine along x.
* A point-to-point vector channel is sqrt(path_gain) * steering vector of
  the array, evaluated toward the far node.  The BS->IRS matrix channel is
  the rank-one outer product of the receive and transmit steering vectors.
* Channels are stored as column vectors h (the row channel used in rate
  expressions is h^H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "path_gain",
    "steering_vector",
    "SceneConfig",
    "ChannelSet",
    "BlockedChannelSet",
    "build_channels",
    "benchmark_scene",
]


def db_to_linear(x_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return float(10.0 ** (x_db / 10.0))


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a dBm power level to watts."""
    return float(10.0 ** ((x_dbm - 30.0) / 10.0))


def path_gain(distance_m: float, pl_ref_db: float = -30.0, pl_exponent: float = 2.0) -> float:
    """Large-scale power gain of a link of length ``distance_m`` meters.

    The model is ``g(d) = g0 * d**(-alpha)`` with ``g0`` the gain at the
    1 m reference distance (``pl_ref_db`` in dB, default -30 dB) and
    ``alpha`` the path-loss exponent.  The model is only valid beyond the
    reference distance.

    Raises
    ------
    ValueError
        If ``distance_m`` < 1 (inside the reference distance).
    """
    if distance_m < 1.0:
        raise ValueError(f"distance {distance_m} m is inside the 1 m reference distance")
    return db_to_linear(pl_ref_db) * float(distance_m) ** (-pl_exponent)


def steering_vector(n: int, phase_angle: float) -> np.ndarray:
    """Half-wavelength ULA steering vector of ``n`` elements.

    Entry k (k = 0..n-1) is ``exp(1j * pi * k * sin(phase_angle))``.

    Raises
    ------
    ValueError
        If ``n`` < 1.
    """
    if n < 1:
        raise ValueError(f"array size must be >= 1, got {n}")
    k = np.arange(n)
    return np.exp(1j * np.pi * k * math.sin(phase_angle))


def _integer(v, what: str) -> int:
    """``v`` as an int; ValueError unless it is an integral number."""
    try:
        i = None if isinstance(v, bool) else int(v)
    except (TypeError, ValueError, OverflowError):   # None, lists, NaN, inf
        i = None
    if i is None or i != v:                          # also text: int("4") != "4"
        raise ValueError(f"{what} must be integers, got {v!r}")
    return i


def _finite(v, what: str) -> float:
    """``v`` as a float; ValueError unless it is a finite number."""
    try:
        x = math.nan if isinstance(v, (bool, str)) else float(v)
    except (TypeError, ValueError):                  # None, lists
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite numbers, got {v!r}")
    return x


_Pos = tuple[float, float, float]


@dataclass
class SceneConfig:
    """Geometry and large-scale parameters of one simulation scene."""

    m_bs: int = 8                     # BS antennas
    n_irs: int = 32                   # monolithic IRS elements
    n1: int = 16                      # elements of IRS block 1 (serves Bob)
    n2: int = 16                      # elements of IRS block 2 (serves Eve)
    bs_pos: _Pos = (0.0, 0.0, 0.0)
    irs1_pos: _Pos = (80.0, 20.0, 30.0)
    irs2_pos: _Pos = (80.0, 30.0, 20.0)
    bob_pos: _Pos = (100.0, 15.0, 0.0)
    eve_pos: _Pos = (120.0, 5.0, 0.0)
    pl_ref_db: float = -30.0          # path gain at the 1 m reference distance, dB
    pl_exponent: float = 2.0
    rician_k_db: float | None = None  # None -> pure LoS; otherwise Rician K factor in dB
    seed: int = 0                     # drives the scattered component when rician_k_db is set

    def __post_init__(self) -> None:
        for name in ("m_bs", "n_irs", "n1", "n2", "seed"):
            setattr(self, name, _integer(getattr(self, name), name))
        for name in ("pl_ref_db", "pl_exponent", "rician_k_db"):
            if getattr(self, name) is not None:
                _finite(getattr(self, name), name)
        if self.m_bs < 1:
            raise ValueError(f"m_bs must be >= 1, got {self.m_bs}")
        for name in ("n_irs", "n1", "n2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n1 + self.n2 != self.n_irs:
            raise ValueError(f"n1 + n2 must equal n_irs ({self.n1}+{self.n2} != {self.n_irs})")
        if not self.pl_ref_db < 0:
            raise ValueError(f"pl_ref_db must be negative and finite, got {self.pl_ref_db}")
        if not 0 < self.pl_exponent:
            raise ValueError(f"pl_exponent must be positive and finite, got {self.pl_exponent}")
        for name in ("bs_pos", "irs1_pos", "irs2_pos", "bob_pos", "eve_pos"):
            p = getattr(self, name)
            if not isinstance(p, (list, tuple)) or len(p) != 3:
                raise ValueError(f"{name} must have 3 coordinates, got {p!r}")
            setattr(self, name, tuple(_finite(c, f"{name} coordinates") for c in p))

    # -- serialization (JSON, strict keys) --------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scene keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ChannelSet:
    """Channels of the monolithic-IRS system (columns; rows are their ^H)."""

    h_b: np.ndarray   # (M,)  BS -> Bob direct
    h_e: np.ndarray   # (M,)  BS -> Eve direct
    g_b: np.ndarray   # (N,)  IRS -> Bob
    g_e: np.ndarray   # (N,)  IRS -> Eve
    H_si: np.ndarray  # (N, M) BS -> IRS


@dataclass
class BlockedChannelSet:
    """Channels of the two-block IRS system."""

    h_b: np.ndarray    # (M,)
    h_e: np.ndarray    # (M,)
    H_s1: np.ndarray   # (N1, M) BS -> block 1
    H_s2: np.ndarray   # (N2, M) BS -> block 2
    g_b1: np.ndarray   # (N1,) block 1 -> Bob
    g_e1: np.ndarray   # (N1,) block 1 -> Eve
    g_b2: np.ndarray   # (N2,) block 2 -> Bob
    g_e2: np.ndarray   # (N2,) block 2 -> Eve

    @property
    def n1(self) -> int:
        return self.H_s1.shape[0]

    @property
    def n2(self) -> int:
        return self.H_s2.shape[0]

    def stacked(self) -> ChannelSet:
        """The two blocks as one surface: block 1's elements, then block 2's."""
        return ChannelSet(h_b=self.h_b, h_e=self.h_e,
                          g_b=np.concatenate([self.g_b1, self.g_b2]),
                          g_e=np.concatenate([self.g_e1, self.g_e2]),
                          H_si=np.vstack([self.H_s1, self.H_s2]))


def _direction_sine(src: _Pos, dst: _Pos) -> tuple[float, float]:
    """Direction cosine along the array axis (x) and the link distance."""
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ValueError(f"coincident node positions: {src}")
    return d[0] / dist, dist


def _array_steering(n: int, src: _Pos, dst: _Pos) -> tuple[np.ndarray, float]:
    """Steering of an n-element ULA at ``src`` toward ``dst``, and the distance."""
    sine, dist = _direction_sine(src, dst)
    return np.exp(1j * np.pi * np.arange(n) * sine), dist


class _ChannelFactory:
    """Builds LoS (optionally Rician) channels with one shared RNG."""

    def __init__(self, cfg: SceneConfig):
        self.cfg = cfg
        if cfg.rician_k_db is None:
            self.rng = None
            self.los_w = 1.0
            self.nlos_w = 0.0
        else:
            self.rng = np.random.default_rng(cfg.seed)
            k_lin = db_to_linear(cfg.rician_k_db)
            self.los_w = math.sqrt(k_lin / (k_lin + 1.0))
            self.nlos_w = math.sqrt(1.0 / (k_lin + 1.0))

    def _scatter(self, shape) -> np.ndarray:
        z = self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        return z / math.sqrt(2.0)

    def vector(self, n: int, array_pos: _Pos, node_pos: _Pos) -> np.ndarray:
        a, dist = _array_steering(n, array_pos, node_pos)
        amp = math.sqrt(path_gain(dist, self.cfg.pl_ref_db, self.cfg.pl_exponent))
        h = a
        if self.rng is not None:
            h = self.los_w * a + self.nlos_w * self._scatter(n)
        return amp * h

    def matrix(self, n_rx: int, rx_pos: _Pos, n_tx: int, tx_pos: _Pos) -> np.ndarray:
        # receive steering: array at rx_pos looking back toward tx_pos
        a_rx, dist = _array_steering(n_rx, rx_pos, tx_pos)
        a_tx, _ = _array_steering(n_tx, tx_pos, rx_pos)
        amp = math.sqrt(path_gain(dist, self.cfg.pl_ref_db, self.cfg.pl_exponent))
        H = np.outer(a_rx, a_tx.conj())
        if self.rng is not None:
            H = self.los_w * H + self.nlos_w * self._scatter((n_rx, n_tx))
        return amp * H


def build_channels(cfg: SceneConfig) -> tuple[ChannelSet, BlockedChannelSet]:
    """Synthesize the monolithic and blocked channel sets for one scene.

    Deterministic for a fixed config: pure LoS uses no randomness, a Rician
    scene consumes a seeded generator in a fixed draw order.

    When the two blocks are co-located with the monolithic surface
    (irs2_pos == irs1_pos) they partition the monolithic ULA: block 1 takes
    elements 0..n1-1 and block 2 elements n1..n-1, so stacking the block
    channels reproduces the monolithic ones exactly.  Distinct block
    positions give two independent ULAs.  Every array of both sets is
    read-only, so the runs that share a set cannot change it for each other.
    """
    fac = _ChannelFactory(cfg)
    m, n, n1, n2 = cfg.m_bs, cfg.n_irs, cfg.n1, cfg.n2

    H_si = fac.matrix(n, cfg.irs1_pos, m, cfg.bs_pos)
    h_b = fac.vector(m, cfg.bs_pos, cfg.bob_pos)
    h_e = fac.vector(m, cfg.bs_pos, cfg.eve_pos)
    g_b = fac.vector(n, cfg.irs1_pos, cfg.bob_pos)
    g_e = fac.vector(n, cfg.irs1_pos, cfg.eve_pos)
    mono = ChannelSet(h_b=h_b, h_e=h_e, g_b=g_b, g_e=g_e, H_si=H_si)

    if tuple(cfg.irs2_pos) == tuple(cfg.irs1_pos):
        blocked = BlockedChannelSet(
            h_b=h_b, h_e=h_e,
            H_s1=H_si[:n1], H_s2=H_si[n1:],
            g_b1=g_b[:n1], g_e1=g_e[:n1],
            g_b2=g_b[n1:], g_e2=g_e[n1:],
        )
    else:
        H_s1 = fac.matrix(n1, cfg.irs1_pos, m, cfg.bs_pos)
        H_s2 = fac.matrix(n2, cfg.irs2_pos, m, cfg.bs_pos)
        g_b1 = fac.vector(n1, cfg.irs1_pos, cfg.bob_pos)
        g_e1 = fac.vector(n1, cfg.irs1_pos, cfg.eve_pos)
        g_b2 = fac.vector(n2, cfg.irs2_pos, cfg.bob_pos)
        g_e2 = fac.vector(n2, cfg.irs2_pos, cfg.eve_pos)
        blocked = BlockedChannelSet(
            h_b=h_b, h_e=h_e, H_s1=H_s1, H_s2=H_s2,
            g_b1=g_b1, g_e1=g_e1, g_b2=g_b2, g_e2=g_e2,
        )
    for channels in (mono, blocked):
        for array in vars(channels).values():
            array.setflags(write=False)
    return mono, blocked


def benchmark_scene(m_bs: int = 8, n_irs: int = 32, n1: int | None = None,
                    n2: int | None = None, **overrides) -> SceneConfig:
    """The default benchmark geometry used by the experiment harness.

    BS at the origin, the two IRS blocks elevated near (80, 20-30, 20-30),
    Bob at (100, 15, 0) and Eve farther out at (120, 5, 0); -30 dB reference
    path gain and free-space-like exponent 2.
    """
    if n1 is None and n2 is None:
        n1 = n_irs // 2
        n2 = n_irs - n1
    elif n1 is None:
        n1 = n_irs - n2
    elif n2 is None:
        n2 = n_irs - n1
    return SceneConfig(m_bs=m_bs, n_irs=n_irs, n1=n1, n2=n2, **overrides)
