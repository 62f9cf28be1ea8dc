"""Low-complexity pipeline for the two-block active IRS.

Block 1 serves Bob with the confidential message (CM), block 2 serves Eve
with artificial noise (AN).  Each loop pass computes, in closed form:

* null-space-projected unit beamformers: the AN beam lives in the null
  space of (Bob's direct channel, block-1 forward channel) and points at
  Eve's effective channel; the CM beam lives in the null space of (Eve's
  direct channel, block-2 forward channel) and points at Bob's effective
  channel.  Hence Bob hears no AN except through block 2, and Eve hears no
  CM except through block 1;
* phase-aligned unit reflect vectors: each block's reflection is matched
  to its serving cascade and rotated so the reflected path adds coherently
  with the receiver's direct path;
* amplification gains that spend exactly the IRS power share: block 1 gets
  mu and block 2 (1-mu) of the IRS budget (1-eta) * p_s;
* a power-split (eta, beta) search over a closed-form scalarized secrecy
  rate that is O(1) per candidate after precomputation.

``PaScalarContext`` is a pass's design with its split left free: it scores
candidate splits and moves the design to one (``at``); ``at_split`` and
``amplification_rho`` are calls on a fresh context.

``run_nsp_mrr_pa_seeds`` runs the loop of several seeds, each on its own
channels and power budget, in lockstep: each pass searches all their
splits with one ``search_stack`` call on their stacked contexts, and a
seed leaves the stack in the pass it converges (or after ``MAX_ITERS``
passes, flagged).
``run_nsp_mrr_pa`` is its stack of one.  The null-space projectors depend
only on the channels, so each seed's are computed once per run.

A blocked design is a monolithic design on the stacked blocks
(``BlockDesign.as_design`` on ``BlockedChannelSet.stacked``), and its
reported rate is the monolithic signal model's.  The closed form keeps
only the paths that the projection leaves nonzero, so it equals that rate
once the null-space zeros hold; a run flagged ``nsp-degenerate`` has
leakage on the dropped paths, which the reported rate includes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .scene import BlockedChannelSet
from .model import Design, NoiseProfile, secrecy_rate
from .pa_search import SearchResult, exhaustive_search, search_stack
from .trace import RunTrace

__all__ = [
    "PaFactors",
    "BlockDesign",
    "nsp_projector",
    "nsp_beamformers",
    "mrr_reflect",
    "amplification_rho",
    "at_split",
    "blocked_secrecy_rate",
    "PaScalarContext",
    "run_nsp_mrr_pa",
    "run_nsp_mrr_pa_seeds",
]


@dataclass
class PaFactors:
    """Power-allocation factors, all in the open unit interval."""

    eta: float    # BS share of the total power (IRS gets 1 - eta)
    beta: float   # CM share of the BS power (AN gets 1 - beta)
    mu: float = 0.8  # block-1 share of the IRS power

    def __post_init__(self) -> None:
        for name in ("eta", "beta", "mu"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {v}")


@dataclass
class BlockDesign:
    """One candidate design of the blocked system."""

    v_b: np.ndarray      # (M,) unit CM beamformer
    v_e: np.ndarray      # (M,) unit AN beamformer
    theta1: np.ndarray   # (N1,) unit reflect vector of block 1
    theta2: np.ndarray   # (N2,) unit reflect vector of block 2
    rho1: float          # block-1 amplification gain
    rho2: float          # block-2 amplification gain
    pa: PaFactors
    p_s: float           # total power budget (BS + IRS), watts

    def as_design(self) -> Design:
        """The same transmission as a monolithic design on the stacked blocks.

        The beams carry their power shares; block k's reflect vector becomes
        rho_k * conj(theta_k), since the blocked cascade is
        theta^H diag(g^H) H v and the monolithic one g^H diag(theta) H v.
        """
        eta, beta = self.pa.eta, self.pa.beta
        return Design(
            v_b=math.sqrt(eta * beta * self.p_s) * self.v_b,
            v_e=math.sqrt(eta * (1.0 - beta) * self.p_s) * self.v_e,
            theta=np.concatenate([self.rho1 * self.theta1.conj(),
                                  self.rho2 * self.theta2.conj()]))


def nsp_projector(Q: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of the rows of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=complex))
    m = Q.shape[1]
    gram = Q @ Q.conj().T
    return np.eye(m) - Q.conj().T @ np.linalg.pinv(gram) @ Q


def _null_space_unit(T: np.ndarray) -> np.ndarray:
    """A deterministic unit vector inside the projector's range."""
    w, V = np.linalg.eigh(T)
    return V[:, -1]


def nsp_beamformers(bch: BlockedChannelSet, d: BlockDesign,
                    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Unit CM/AN beamformers by projection onto the protecting null spaces.

    Returns (v_b, v_e, flags).  v_e is orthogonal to Bob's direct channel
    and every row of block 1's forward channel; v_b is orthogonal to Eve's
    direct channel and every row of block 2's forward channel.  Within its
    null space each beam maximizes the gain of a rank-one target (the
    served receiver's direct-plus-reflected channel), so the normalized
    projection of the target is optimal.  A target that falls entirely
    inside the nulled span triggers a deterministic fallback, flagged.
    """
    return _beams(bch, d, _projectors(bch))


def _projectors(bch: BlockedChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """(T1, T2): the null-space projectors of the AN and the CM beam.

    They depend on the channels only, so a run computes them once.
    """
    T1 = nsp_projector(np.vstack([bch.h_b.conj()[None, :], bch.H_s1]))
    T2 = nsp_projector(np.vstack([bch.h_e.conj()[None, :], bch.H_s2]))
    return T1, T2


def _beams(bch: BlockedChannelSet, d: BlockDesign,
           projectors: tuple[np.ndarray, np.ndarray],
           ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``nsp_beamformers`` with the channels' projectors already at hand."""
    T1, T2 = projectors
    flags: list[str] = []
    # the served receiver's direct channel plus its reflected path, as a column
    target_e = bch.h_e + d.rho2 * (bch.H_s2.conj().T @ (d.theta2 * bch.g_e2))
    v_e = _project_or_fallback(T1, target_e, bch.h_e, "v_e", flags)
    target_b = bch.h_b + d.rho1 * (bch.H_s1.conj().T @ (d.theta1 * bch.g_b1))
    v_b = _project_or_fallback(T2, target_b, bch.h_b, "v_b", flags)
    return v_b, v_e, flags


def _project_or_fallback(T: np.ndarray, target: np.ndarray, direct: np.ndarray,
                         name: str, flags: list[str]) -> np.ndarray:
    proj = T @ target
    nrm = float(np.linalg.norm(proj))
    if nrm > 1e-12 * float(np.linalg.norm(target)):
        return proj / nrm
    flags.append(f"nsp-degenerate:{name}")
    proj = T @ direct
    nrm = float(np.linalg.norm(proj))
    if nrm > 1e-12 * float(np.linalg.norm(direct)):
        return proj / nrm
    return _null_space_unit(T)


def mrr_reflect(bch: BlockedChannelSet, d: BlockDesign,
                ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Unit reflect vectors matched to each block's serving cascade.

    Block 1 is matched to (block-1 forward) x (block-1 -> Bob) for the CM
    beam and rotated to the phase of Bob's direct gain; block 2 likewise
    for the AN beam and Eve.  The cascaded gain then equals the cascade
    norm times the direct-path phase, i.e. reflected and direct paths add
    coherently.  A zero cascade falls back to a uniform-phase unit vector.
    """
    flags: list[str] = []
    theta1 = _matched(bch.g_b1.conj() * (bch.H_s1 @ d.v_b), np.vdot(bch.h_b, d.v_b),
                      "theta1", flags)
    theta2 = _matched(bch.g_e2.conj() * (bch.H_s2 @ d.v_e), np.vdot(bch.h_e, d.v_e),
                      "theta2", flags)
    return theta1, theta2, flags


def _matched(cascade: np.ndarray, direct: complex, name: str,
             flags: list[str]) -> np.ndarray:
    """The unit vector along ``cascade``, rotated to the phase of the direct
    gain; a zero cascade gives the uniform-phase unit vector, flagged."""
    n = float(np.linalg.norm(cascade))
    if n < 1e-30:
        flags.append(f"mrr-degenerate:{name}")
        return np.ones(cascade.size, dtype=complex) / math.sqrt(cascade.size)
    return (cascade / n) * np.exp(-1j * float(np.angle(direct)))


def amplification_rho(bch: BlockedChannelSet, d: BlockDesign,
                      noise: NoiseProfile) -> tuple[float, float]:
    """Amplification gains that spend each block's exact IRS power share at
    ``d``'s split (``PaScalarContext.at``)."""
    moved = PaScalarContext(bch, d, noise).at(d.pa.eta, d.pa.beta)
    return moved.rho1, moved.rho2


def at_split(bch: BlockedChannelSet, d: BlockDesign, noise: NoiseProfile,
             eta: float, beta: float) -> BlockDesign:
    """``d`` moved to the split (eta, beta) (``PaScalarContext.at``)."""
    return PaScalarContext(bch, d, noise).at(eta, beta)


def blocked_secrecy_rate(bch: BlockedChannelSet, d: BlockDesign,
                         noise: NoiseProfile) -> float:
    """Secrecy rate of the blocked system in bits: the monolithic model's."""
    return secrecy_rate(bch.stacked(), d.as_design(), noise)


_BOX_ERROR = "eta and beta must lie strictly inside (0, 1)"


_COEFFICIENTS = ("a", "b", "c", "d", "e", "f", "a_hat", "b_hat", "c_hat", "d_hat",
                 "e_hat", "f_hat", "s1", "s2", "p_s", "ps2")
_SHARED = ("mu", "sigma2_irs", "sigma2_b", "sigma2_e")


class PaScalarContext:
    """The blocked design ``d`` with its power split (eta, beta) left free.

    Precomputes every channel/beam scalar at the unit vectors, mu and p_s
    of ``d`` (its split and gains are not read), forming each block's
    incident field once.  ``at(eta, beta)`` is ``d`` moved to that split,
    with the amplification gains that spend it.  Calling the context gives
    the secrecy rate in closed form, with the same gains embedded, so the power-split search can evaluate thousands
    of (eta, beta) candidates (scalars or equal-shape arrays) with plain
    arithmetic.  Only the paths that null-space projection leaves nonzero
    enter, so it equals ``blocked_secrecy_rate`` once the projection's
    zeros hold.
    A pair of Python floats takes a float-only path that evaluates the
    same expression in the same order, so it matches the array path bit
    for bit at a fraction of its per-call cost.

    ``PaScalarContext.stack(rows)`` puts the contexts of several seeds on
    a leading seed axis: its coefficients and p_s are (S, 1) arrays, it
    scores two (S, K) arrays row by row through the same expression, and
    ``ctx[i]`` is row i, that seed's own float context.
    """

    def __init__(self, bch: BlockedChannelSet, d: BlockDesign, noise: NoiseProfile):
        v_b, v_e, theta1, theta2 = d.v_b, d.v_e, d.theta1, d.theta2
        self.design = d
        self.mu = float(d.pa.mu)
        self.p_s = float(d.p_s)
        # Python's pow, once: numpy squares a stacked column, which differs
        # in the last bit on some inputs
        self.ps2 = self.p_s ** 2
        self.sigma2_irs = float(noise.sigma2_irs)
        self.sigma2_b = float(noise.sigma2_b)
        self.sigma2_e = float(noise.sigma2_e)

        # each block's incident field of the beam it reflects
        u1, u2 = bch.H_s1 @ v_b, bch.H_s2 @ v_e
        k_b1 = complex(np.vdot(theta1, bch.g_b1.conj() * u1))   # theta^H diag(g^H) H v
        k_b2 = complex(np.vdot(theta2, bch.g_b2.conj() * u2))
        k_e1 = complex(np.vdot(theta1, bch.g_e1.conj() * u1))
        k_e2 = complex(np.vdot(theta2, bch.g_e2.conj() * u2))
        d_bb = complex(np.vdot(bch.h_b, v_b))
        d_ee = complex(np.vdot(bch.h_e, v_e))

        # Every coefficient is a Python float, so float candidates stay floats.
        self.a = abs(k_b1) ** 2
        self.b = float((np.conj(d_bb) * k_b1).real)
        self.c = abs(d_bb) ** 2
        self.d = abs(k_b2) ** 2
        self.e = self.sigma2_irs * float(np.sum(np.abs(theta1) ** 2 * np.abs(bch.g_b1) ** 2))
        self.f = self.sigma2_irs * float(np.sum(np.abs(theta2) ** 2 * np.abs(bch.g_b2) ** 2))
        self.a_hat = abs(k_e1) ** 2
        self.b_hat = abs(k_e2) ** 2
        self.c_hat = float((np.conj(d_ee) * k_e2).real)
        self.d_hat = abs(d_ee) ** 2
        self.e_hat = self.sigma2_irs * float(np.sum(np.abs(theta1) ** 2 * np.abs(bch.g_e1) ** 2))
        self.f_hat = self.sigma2_irs * float(np.sum(np.abs(theta2) ** 2 * np.abs(bch.g_e2) ** 2))
        self.s1 = float(np.sum(np.abs(theta1) ** 2 * np.abs(u1) ** 2))
        self.s2 = float(np.sum(np.abs(theta2) ** 2 * np.abs(u2) ** 2))

    def at(self, eta: float, beta: float) -> BlockDesign:
        """The design moved to the split (eta, beta): the same beams, reflect
        vectors and mu, with the amplification gains that spend that split.
        Block k re-radiates (incident signal + its own noise) scaled by
        rho_k^2, so block 1 emits mu and block 2 (1 - mu) of the IRS share
        (1 - eta) * p_s on average, and the IRS spends exactly that share."""
        pa = PaFactors(eta, beta, self.design.pa.mu)
        ps, mu, s2_irs = self.p_s, self.mu, self.sigma2_irs
        rho1 = math.sqrt((1.0 - eta) * mu * ps / (eta * beta * ps * self.s1 + s2_irs))
        rho2 = math.sqrt((1.0 - eta) * (1.0 - mu) * ps
                         / (eta * (1.0 - beta) * ps * self.s2 + s2_irs))
        return replace(self.design, pa=pa, rho1=rho1, rho2=rho2)

    @classmethod
    def stack(cls, rows: list["PaScalarContext"]) -> "PaScalarContext":
        """The contexts of several seeds as one, on a leading seed axis.

        The rows must share mu and the noise powers; p_s, like the
        coefficients, is an (S, 1) column.
        """
        first = rows[0]
        if any(getattr(r, k) != getattr(first, k) for r in rows for k in _SHARED):
            raise ValueError("stacked contexts must share mu and the noise powers")
        out = cls.__new__(cls)
        for k in _SHARED:
            setattr(out, k, getattr(first, k))
        for k in _COEFFICIENTS:
            setattr(out, k, np.array([getattr(r, k) for r in rows])[:, None])
        out._rows = list(rows)
        return out

    def __getitem__(self, i: int) -> "PaScalarContext":
        """Row ``i`` of a stacked context: that seed's float context."""
        return self._rows[i]

    def sinrs(self, eta, beta):
        """(gamma_b, gamma_e) after substituting the amplification gains."""
        e, b = np.asarray(eta), np.asarray(beta)
        if np.any((e <= 0.0) | (e >= 1.0) | (b <= 0.0) | (b >= 1.0)):
            raise ValueError(_BOX_ERROR)
        return self._sinrs(eta, beta, np.sqrt)

    def _sinrs(self, eta, beta, sqrt):
        ps, mu, s2_irs = self.p_s, self.mu, self.sigma2_irs
        # Hoisted: only the subexpressions every use groups the same way, so
        # each product keeps its left-to-right order and its bits.
        ie, ib, im, ps2 = 1.0 - eta, 1.0 - beta, 1.0 - mu, self.ps2
        cm_ps = eta * beta * ps          # the BS power of the confidential beam
        an_ps = eta * ib * ps            # the BS power of the AN beam
        # per-block incident power (signal + IRS noise) at unit gain
        A = cm_ps * self.s1 + s2_irs
        B = an_ps * self.s2 + s2_irs
        g_b1 = cm_ps * (self.a * ie * mu * ps * B
                        + 2.0 * self.b * B * sqrt(ie * mu * ps * A)
                        + self.c * A * B)
        g_b2 = (self.d * eta * ie * ib * im * ps2 * A
                + self.e * ie * mu * ps * B
                + self.f * ie * im * ps * A
                + self.sigma2_b * A * B)
        g_e1 = eta * ie * beta * mu * ps2 * self.a_hat * B
        g_e2 = (an_ps * (self.b_hat * ie * im * ps * A
                         + 2.0 * self.c_hat * A * sqrt(ie * im * ps * B)
                         + self.d_hat * A * B)
                + self.e_hat * ie * mu * ps * B
                + self.f_hat * ie * im * ps * A
                + self.sigma2_e * A * B)
        return g_b1 / g_b2, g_e1 / g_e2

    def __call__(self, eta, beta):
        """Secrecy rate in bits at (eta, beta); arrays broadcast elementwise."""
        if isinstance(eta, float) and isinstance(beta, float):
            if eta <= 0.0 or eta >= 1.0 or beta <= 0.0 or beta >= 1.0:
                raise ValueError(_BOX_ERROR)
            try:
                gamma_b, gamma_e = self._sinrs(eta, beta, math.sqrt)
            except (ZeroDivisionError, ValueError):
                # A zero denominator or a negative root: numpy's inf/nan instead.
                gamma_b, gamma_e = self._sinrs(eta, beta, np.sqrt)
        else:
            gamma_b, gamma_e = self.sinrs(eta, beta)
        # np.log2, not math.log2: the two differ in the last bit on some inputs.
        return np.log2(1.0 + gamma_b) - np.log2(1.0 + gamma_e)


EPS = 1e-4        # stop when both unit beamformers move by at most this
MAX_ITERS = 100   # passes before a run stops unconverged (flagged)


def run_nsp_mrr_pa(bch: BlockedChannelSet, noise: NoiseProfile, p_s: float,
                   searcher: Callable[..., SearchResult] = exhaustive_search,
                   seed: int = 0) -> tuple[BlockDesign, RunTrace]:
    """Alternate beamformers, reflect vectors, amplification and PA search.

    Stops once both unit beamformers move by at most ``EPS`` between
    consecutive iterations (or after ``MAX_ITERS``, flagged).  The returned
    design carries amplification gains computed at the searched (eta, beta),
    so its BS + IRS power spend equals p_s exactly.  Deterministic for fixed
    inputs; ``seed`` only feeds stochastic searchers.

    Pass ``it`` calls ``searcher(ctx, seed + it - 1, start=...)`` with no
    start on the first pass and the previous pass's split afterwards, so a
    warm-started searcher (annealing) settles with the beamformers instead
    of jittering around a fresh random start on every pass.  This is the
    stack of one of ``run_nsp_mrr_pa_seeds``.
    """
    return run_nsp_mrr_pa_seeds([bch], noise, p_s, searcher, [seed])[0]


def run_nsp_mrr_pa_seeds(bchs: list[BlockedChannelSet], noise: NoiseProfile,
                         p_s: float | list[float], searcher: Callable[..., SearchResult],
                         seeds: list[int]) -> list[tuple[BlockDesign, RunTrace]]:
    """``run_nsp_mrr_pa`` for each (channels, power, seed) row, run in lockstep.

    ``p_s`` is one power budget per row, or one float that every row
    shares; a row's seed, channels and budget are its own, so a stack can
    hold the cells of several sweep values.  Each pass computes every
    running row's beams, reflect vectors and ``PaScalarContext``, then
    searches all their splits with one ``pa_search.search_stack`` call on
    the stacked contexts (one swarm stack for PSO, one array chain for SA
    on a large stack, row by row otherwise), then moves each row's design
    to its split through its context.  A row leaves the stack in the pass
    its beamformers converge.  Each row's projectors are computed once,
    from its channels.  Each row's design, trace rows, iterations and
    flags are those of its own run.  Its ``wall_time_s`` is the time of
    its own work (projectors, beams, context, its search's ``seconds``,
    gains) plus, in each pass it ran, an even share of the rest of the
    pass, so the rows' times add up to the stack's.
    """
    budgets = [p_s] * len(seeds) if isinstance(p_s, (int, float)) else list(p_s)
    if not seeds or len(bchs) != len(seeds) or len(budgets) != len(seeds):
        raise ValueError(f"need one channel set per seed, one power per seed and at least "
                         f"one seed, got {len(bchs)} and {len(budgets)} for {len(seeds)}")
    mark = time.perf_counter()
    runs = [_SeedRun(bch, budget) for bch, budget in zip(bchs, budgets)]
    live = list(range(len(runs)))
    for it in range(1, MAX_ITERS + 1):
        stack = PaScalarContext.stack([runs[i].beams(noise) for i in live])
        results = search_stack(searcher, stack, [seeds[i] + it - 1 for i in live],
                               [runs[i].start for i in live])
        for i, res in zip(live, results):
            runs[i].split(res)
        now = time.perf_counter()
        rest = now - mark - sum(runs[i].own_s for i in live)
        share, mark = rest / len(live), now
        for i, res in zip(live, results):
            runs[i].record(it, res, share)
        live = [i for i in live if not runs[i].trace.converged]
        if not live:
            break
    for run in runs:
        if not run.trace.converged:
            run.trace.add_flag("iteration-cap")
    return [(run.d, run.trace) for run in runs]


class _SeedRun:
    """One seed's state in ``run_nsp_mrr_pa_seeds``."""

    def __init__(self, bch: BlockedChannelSet, p_s: float):
        t0 = time.perf_counter()
        m = bch.h_b.size
        self.bch = bch
        self.projectors = _projectors(bch)
        self.d = BlockDesign(
            v_b=np.zeros(m, dtype=complex),
            v_e=np.zeros(m, dtype=complex),
            theta1=np.ones(bch.n1, dtype=complex) / math.sqrt(bch.n1),
            theta2=np.ones(bch.n2, dtype=complex) / math.sqrt(bch.n2),
            rho1=0.0, rho2=0.0,
            pa=PaFactors(eta=0.5, beta=0.5),
            p_s=p_s,
        )
        self.trace = RunTrace()
        self.ctx: PaScalarContext | None = None   # this pass's context
        self.start = None                # the next pass's search begins here
        self.deltas = (math.inf, math.inf)   # how far v_b and v_e moved
        self.own_s = time.perf_counter() - t0   # this pass's own work so far

    def beams(self, noise: NoiseProfile) -> PaScalarContext:
        """New beams and reflect vectors; the context of the split search."""
        t0 = time.perf_counter()
        bch, d = self.bch, self.d
        prev_vb, prev_ve = d.v_b, d.v_e
        d.v_b, d.v_e, fl = _beams(bch, d, self.projectors)
        d.theta1, d.theta2, fl2 = mrr_reflect(bch, d)
        for flag in fl + fl2:
            self.trace.add_flag(flag)
        self.deltas = (float(np.linalg.norm(d.v_b - prev_vb)),
                       float(np.linalg.norm(d.v_e - prev_ve)))
        self.ctx = PaScalarContext(bch, d, noise)
        self.own_s += time.perf_counter() - t0
        return self.ctx

    def split(self, res: SearchResult) -> None:
        """Move the design to the searched split, with the gains that spend it."""
        t0 = time.perf_counter()
        self.start = res.point
        self.d = self.ctx.at(*res.point)
        self.own_s += res.seconds + time.perf_counter() - t0

    def record(self, it: int, res: SearchResult, share: float) -> None:
        """The pass's trace row, timed with its own work plus ``share`` of
        the stack's; converged once the beams stopped moving."""
        trace, d = self.trace, self.d
        trace.wall_time_s += self.own_s + share
        self.own_s = 0.0
        trace.rows.append({
            "iteration": it,
            "eta": d.pa.eta,
            "beta": d.pa.beta,
            "rho1": d.rho1,
            "rho2": d.rho2,
            "sr_bits": float(res.value),
            "beamformer_delta": max(self.deltas),
            "search_evals": res.evaluations,
            "wall_time_s": trace.wall_time_s,
        })
        trace.iterations = it
        trace.converged = self.deltas[0] <= EPS and self.deltas[1] <= EPS
