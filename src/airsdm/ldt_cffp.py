"""Alternating optimizer for the monolithic system.

Maximizes the logarithmic surrogate of the virtual rate by cycling
closed-form auxiliary updates with three single-constraint QCQP blocks
(confidential beam, AN beam, IRS reflect vector), each solved exactly
through a KKT multiplier search.  Every block step is a global maximizer
of the surrogate in that block, so the recorded objective never decreases.

The runner advances the runs of several seeds in lockstep: designs, block
problems and their factorizations carry a leading seed axis, and a seed
leaves the stack when it converges.  One seed, one design and one problem
are the same code without that axis.
"""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scene import ChannelSet
from .model import (
    Design,
    DesignState,
    Evaluation,
    NoiseProfile,
    AuxVars,
    _columns,
    # not called here; kept as module globals that traced runs wrap
    secrecy_rate,
    total_power,
    ldt_objective,
)
from .trace import RunTrace

__all__ = [
    "QcqpProblem",
    "QcqpSolution",
    "solve_qcqp",
    "solve_qcqp_stack",
    "kkt_residuals",
    "update_mu",
    "optimal_aux",
    "assemble_vb",
    "assemble_ve",
    "assemble_theta",
    "run_ldt_cffp",
    "run_ldt_cffp_seeds",
    "initial_design",
]


def _diagonal(M: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix of a C-contiguous stack."""
    n = M.shape[-1]
    return M.reshape(*M.shape[:-2], n * n)[..., ::n + 1]


def _finite(name: str, v: np.ndarray) -> np.ndarray:
    """v, after checking that each entry is finite."""
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _hermitian_part(name: str, M: np.ndarray, diagonal: bool) -> np.ndarray:
    """Each matrix of the stack M symmetrized against rounding; raises
    unless each is finite and Hermitian to 1e-8, max|M - M^H| <= 1e-8 max|M|.
    A stack already Hermitian to the last bit, as the assemblers build them,
    is its own Hermitian part and is returned as given: M - M^H is then
    exactly zero, which no non-finite entry gives.

    A ``diagonal`` M costs O(n): M - M^H is 2i Im(diag M) and the Hermitian
    part is diag(Re M); one with a real diagonal is returned as given, and
    the caller checks that diagonal positive and finite.  Otherwise max|M|
    >= max|M_ii|, so every entry is scanned for the scale only when the
    diagonal's does not pass the skew.
    """
    m = M.diagonal(axis1=-2, axis2=-1)
    if diagonal:
        if not m.imag.any():                  # M is diag(Re M) already: kept as is
            return M
        skew = 2.0 * np.abs(_finite(name, m).imag).max(-1)
        H = np.zeros(M.shape, dtype=complex)
        _diagonal(H)[...] = m.real
    else:
        Mh = M.conj().swapaxes(-1, -2)
        with np.errstate(invalid="ignore"):   # inf - inf: rejected by _finite below
            D = M - Mh
        if not D.any():                       # Hermitian to the last bit: kept as is
            return M
        skew = np.abs(D).max((-2, -1))
        H = _finite(name, M) + Mh
        H *= 0.5
    if (skew > 1e-8 * np.abs(m).max(-1)).any():
        scale = np.abs(M).max((-2, -1))
        if (skew > 1e-8 * np.where(scale > 0, scale, 1.0)).any():
            raise ValueError(f"{name} is not Hermitian")
    return H


def _budgets(p_budget: float | list[float] | np.ndarray) -> np.ndarray:
    """The budgets as an array shaped like the stack (() for one problem);
    raises unless each budget is positive and finite."""
    p = np.asarray(p_budget, dtype=float)
    if not (0.0 < np.minimum.reduce(p, None) and np.maximum.reduce(p, None) < math.inf):
        raise ValueError(f"power budget must be positive and finite, got {p_budget}")
    return p


@dataclass
class QcqpProblem:
    """maximize Re{2 a^H x} - x^H A x  subject to  x^H F x <= p_budget.

    A stack of S such problems has a leading axis on every field: ``a`` is
    (S, n), ``A`` and ``F`` are (S, n, n) and ``p_budget`` holds S budgets.
    Each check and each factorization below applies to every problem of
    the stack; numpy's stacked LAPACK calls give each problem the bits of
    its own call.

    Every entry of a, A, F and the budgets must be finite and every budget
    positive.  A must be Hermitian PSD and F Hermitian PD; both are checked
    (and symmetrized against rounding; one already Hermitian to the last
    bit is kept as given) at construction, which also factors the
    problem once for ``solve_qcqp``: with F = L L^H, the whitened matrix
    L^-1 A L^-H = U diag(d) U^H.  A diagonal F (the reflect block's) is
    whitened by an elementwise scale, any other F through its Cholesky
    factor.  Congruence preserves inertia, so the whitened spectrum ``d``
    certifies A >= 0: A is rejected when d_min < -1e-8 * max(d_max, 0),
    relative to the spectrum whatever the scale of A.  ``retarget`` keeps
    the factorization for another linear term and budget.
    """

    a: np.ndarray
    A: np.ndarray
    F: np.ndarray
    p_budget: float | list[float] | np.ndarray

    def __post_init__(self) -> None:
        p = _budgets(self.p_budget)
        lead, self._p = p.shape, p.reshape(-1)
        self.a = _finite("a", np.asarray(self.a, dtype=complex).reshape(*lead, -1))
        n = self.a.shape[-1]
        A = np.asarray(self.A, dtype=complex).reshape(-1, n, n)
        F = np.asarray(self.F, dtype=complex).reshape(-1, n, n)
        diagonal = np.count_nonzero(F) == np.count_nonzero(F.diagonal(axis1=-2, axis2=-1))
        A, F = _hermitian_part("A", A, False), _hermitian_part("F", F, diagonal)
        self.A, self.F = (A, F) if lead else (A[0], F[0])

        # the factorization keeps a leading stack axis, one problem included
        if diagonal:
            f = F.diagonal(axis1=-2, axis2=-1).real
            if not (0.0 < np.minimum.reduce(f, None) and np.maximum.reduce(f, None) < math.inf):
                _finite("F", f)
                raise ValueError("F must be positive definite")
            w = 1.0 / np.sqrt(f)                  # L^-1 = diag(w)
            d, U = np.linalg.eigh(A * (w[:, :, None] * w[:, None, :]))
            U *= w[:, :, None]                    # in place: a stack of N x N can be large
            T = np.conjugate(U, out=U).swapaxes(-1, -2)
        else:
            try:
                Linv = np.linalg.inv(np.linalg.cholesky(F))
            except np.linalg.LinAlgError as exc:
                raise ValueError("F must be positive definite") from exc
            # lower triangle
            d, U = np.linalg.eigh(Linv @ A @ Linv.conj().swapaxes(-1, -2))
            T = U.conj().swapaxes(-1, -2) @ Linv
        top = np.maximum(d[:, -1], 0.0)
        if (d[:, 0] < -1e-8 * top).any():
            raise ValueError("A must be positive semidefinite")
        self._d = np.maximum(d, 0.0)              # ascending
        self._T = T                               # U^H L^-1: b = T a, x = T^H z
        # d[:, :k] are the flat directions of the objective, marked by _flat;
        # _dk is d with them set to inf, so that they drop out of g and z,
        # and _d_kept is d[k], the smallest of the others (inf if none)
        self._flat = d <= 1e-12 * top[:, None]
        self._dk = np.where(self._flat, np.inf, self._d)
        self._d_kept = self._dk.min(-1)

    def retarget(self, a: np.ndarray, p_budget: float | list[float] | np.ndarray) -> QcqpProblem:
        """The same A and F, and their factorization, with a new linear term
        and budget."""
        new = copy.copy(self)
        new._p = _budgets(p_budget).reshape(-1)
        new.a = _finite("a", np.asarray(a, dtype=complex).reshape(self.a.shape))
        new.p_budget = p_budget
        return new


@dataclass
class QcqpSolution:
    """The maximizer of one problem, or of each problem of a stack (then
    ``x`` is (S, n) and ``nu`` and ``bisect_steps`` are arrays)."""

    x: np.ndarray
    nu: float | np.ndarray            # KKT multiplier of the power constraint
    bisect_steps: int | np.ndarray    # multiplier evaluations (Newton or bisection steps)
    prob: QcqpProblem = field(repr=False)

    @functools.cached_property
    def objective(self) -> float | np.ndarray:
        """Re{2 a^H x} - x^H A x, computed on first use."""
        x, prob = self.x, self.prob
        return 2.0 * np.vecdot(prob.a, x).real - np.vecdot(x, np.matvec(prob.A, x)).real

    @functools.cached_property
    def constraint(self) -> float | np.ndarray:
        """x^H F x, computed on first use."""
        return np.vecdot(self.x, np.matvec(self.prob.F, self.x)).real


QCQP_TOL = 1e-10   # the multiplier search stops at |g - p| <= QCQP_TOL * p


def solve_qcqp(prob: QcqpProblem) -> QcqpSolution:
    """Exact solution of one single-constraint concave QCQP.

    Works in the problem's cached whitened eigenbasis: with b = U^H L^-1 a,
    the stationary point is z(nu) = b / (d + nu), x = L^-H U z, whose
    constraint value g(nu) = sum |b|^2 / (d + nu)^2 is strictly decreasing.
    nu = 0 is used when the unconstrained maximizer set contains a feasible
    point (flat directions resolved to the power-minimal optimizer).
    Otherwise nu > 0 is the root of the secular equation 1/sqrt(g(nu)) =
    1/sqrt(p), which is nearly linear in nu: safeguarded Newton steps start
    at the lower end of a bracket, a step that leaves the bracket (or a
    non-finite g) falls back to bisection, and the search stops when
    |g - p| <= QCQP_TOL * p (Moré & Sorensen, SIAM J. Sci. Stat. Comput.
    1983).
    """
    x, nu, steps = _solve(prob)
    return QcqpSolution(x, float(nu), int(steps), prob)


def solve_qcqp_stack(prob: QcqpProblem) -> QcqpSolution:
    """``solve_qcqp`` for every problem of a stack at once; each problem
    gets the bits of its own ``solve_qcqp``."""
    return QcqpSolution(*_solve(prob), prob)


def _solve(prob: QcqpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, nu and the step counts of every problem, shaped like the stack.

    Every problem is classified and bracketed by array expressions over the
    stack; the boundary problems then share one multiplier search.
    """
    lead, n = prob.a.shape[:-1], prob.a.shape[-1]
    d, dk, flat, p = prob._d, prob._dk, prob._flat, prob._p
    b = np.matvec(prob._T, prob.a.reshape(-1, n))
    babs2 = np.abs(b) ** 2
    norm_b = np.sqrt(babs2.sum(-1))
    root = norm_b / np.sqrt(p)
    # in range(A), b has no flat components beyond rounding: they are
    # dropped (dk is inf there), and g(0) is the sum over the others; out of
    # it, they are kept and g(0) is infinite
    out = np.sqrt(babs2.max(-1, where=flat, initial=0.0)) > 1e-9 * norm_b
    edge = out | ((babs2 / (dk * dk)).sum(-1) > p * (1.0 + 1e-9))
    # in range, g lies between ||b||^2/(d_max+nu)^2 and ||b||^2/(d[k]+nu)^2
    lo = np.maximum(root - d[:, -1], 0.0)
    hi = np.maximum(root - prob._d_kept, 1e-300)
    DK = dk
    if out.any():
        # the flat components alone give g >= |b_flat|^2/(d[k-1]+nu)^2, and
        # those clipped to d = 0 give g >= |b_0|^2/nu^2, which keeps lo off
        # nu = 0, where g is infinite, even when the first bound is negative
        b_flat, d_flat = babs2.sum(-1, where=flat), d.max(-1, where=flat, initial=0.0)
        b_zero = babs2.sum(-1, where=d == 0.0)
        bound = np.maximum(np.sqrt(b_flat / p) - d_flat, np.sqrt(b_zero / p))
        lo = np.where(out, np.maximum(lo, bound), lo)
        hi = np.where(out, np.maximum(root - d[:, 0], 1e-300), hi)
        DK = np.where(out[:, None], d, dk)
    nu, steps = _multipliers(DK, babs2, p, lo, hi, edge.nonzero()[0])
    x = np.vecmat(b / (DK + nu[:, None]), prob._T).conj()          # T^H z
    return (x, nu, steps) if lead else (x[0], nu[0], steps[0])


def _multipliers(dk: np.ndarray, wk: np.ndarray, p: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of g(nu) = sum wk / (dk + nu)^2 = p in [lo, hi] for the rows
    ``live``, and the steps each took; the other rows get nu = 0 and no step.

    The rows take their Newton steps together and leave as they converge;
    the last one left finishes in ``_newton_tail``, whose float steps give
    the same bits: a stack of one takes no array step.
    """
    out_nu = np.zeros(p.size)
    out_steps = np.zeros(p.size, dtype=int)
    if live.size < p.size:                    # leave the interior rows out
        dk, wk, p, lo, hi = dk[live], wk[live], p[live], lo[live], hi[live]
    nu = lo
    for step in range(1, 201):
        if live.size < 2:
            if live.size:
                i = live[0]
                out_nu[i], out_steps[i] = _newton_tail(
                    dk[0], wk[0], float(p[0]), float(lo[0]), float(hi[0]), float(nu[0]), step)
            break
        r = 1.0 / (dk + nu[:, None])
        wr2 = wk * r * r
        g = wr2.sum(-1)
        done = np.abs(g - p) <= QCQP_TOL * p
        if done.any():
            out_nu[live[done]] = nu[done]
            out_steps[live[done]] = step
            keep = ~done
            live, dk, wk, p, lo, hi, nu, r, wr2, g = (
                v[keep] for v in (live, dk, wk, p, lo, hi, nu, r, wr2, g))
        over = ~(g <= p)                          # g > p, or g is not finite
        lo = np.where(over, nu, lo)
        hi = np.where(over, hi, nu)
        new = nu + g * (np.sqrt(g / p) - 1.0) / np.vecdot(wr2, r)
        nu = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
    else:
        out_nu[live], out_steps[live] = nu, 200
    return out_nu, out_steps


def _newton_tail(dk: np.ndarray, wk: np.ndarray, p: float, lo: float, hi: float,
                 nu: float, first: int) -> tuple[float, int]:
    """The Newton steps of ``_multipliers`` for one row, from step ``first``.

    Solves the secular equation 1/sqrt(g(nu)) = 1/sqrt(p), which is nearly
    linear in nu: a step that leaves the bracket [lo, hi] (or a non-finite
    g) falls back to bisection.
    """
    for step in range(first, 201):
        r = 1.0 / (dk + nu)
        wr2 = wk * r * r
        g = float(np.add.reduce(wr2))
        if abs(g - p) <= QCQP_TOL * p:
            return nu, step
        if not g <= p:
            lo = nu
        else:
            hi = nu
        new = nu + g * (math.sqrt(g / p) - 1.0) / float(np.dot(wr2, r))
        nu = new if lo < new < hi else 0.5 * (lo + hi)
    return nu, 200


def kkt_residuals(prob: QcqpProblem, sol: QcqpSolution) -> dict:
    """Stationarity / feasibility / complementary-slackness residuals of
    one problem (floats), or of each problem of a stack (arrays)."""
    nu = np.asarray(sol.nu)
    r = np.matvec(prob.A + nu[..., None, None] * prob.F, sol.x) - prob.a
    slack = sol.constraint - prob._p.reshape(nu.shape)
    res = {"stationarity": np.linalg.norm(r, axis=-1), "feasibility": slack,
           "comp_slack": nu * slack}
    return {key: float(v) for key, v in res.items()} if nu.ndim == 0 else res


# -- auxiliary-variable updates ---------------------------------------------

def update_mu(lam: float, tv: complex, denom: float) -> complex:
    """Closed-form maximizer of -|mu|^2 denom + 2 sqrt(1+lam) Re{mu^* tv}."""
    if denom <= 0:
        raise ValueError(f"denominator must be positive, got {denom}")
    return complex(math.sqrt(1.0 + lam) * tv / denom)


def optimal_aux(ch: ChannelSet, d: Design, noise: NoiseProfile) -> AuxVars:
    """Joint solution of the auxiliary stationarity conditions at a design.

    At this point the surrogate is tight: ldt_objective equals the virtual
    rate in nats.  (lam equals the corresponding SINR; mu follows from its
    closed form at that lam; both fixed-point equations hold at once.)
    """
    return _aux_at(DesignState(ch, d).evaluate(noise))


def _aux_at(ev: Evaluation) -> AuxVars:
    """optimal_aux from an evaluation already made."""
    lam_b, lam_e = ev.virtual_snrs()
    return AuxVars(lam_b=lam_b, lam_e=lam_e, mu_b=update_mu(lam_b, ev.s_b, ev.den_b),
                   mu_e=update_mu(lam_e, ev.i_e, ev.den_e))


# -- block subproblem assembly ----------------------------------------------
#
# Each assembler takes an optional ``state``, the DesignState of ``d``; the
# runner passes its own so that the effective channels and H_si v are not
# rebuilt.  Without one, the assembler builds it.  A stacked state (with
# ``aux`` a list, one AuxVars per design) gives a stack of problems.
#
# A block's budget is p_max less what the other blocks spend (one float for
# one design): at least the block's own spend while the iterate spends at
# most p_max.  QcqpProblem rejects a budget that is not positive.

def _state_of(ch: ChannelSet, d: Design, state: DesignState | None) -> DesignState:
    if state is None:
        return DesignState(ch, d)
    if state.d is not d:
        raise ValueError("state belongs to another design")
    return state


class _AuxTerms(NamedTuple):
    """What the assemblers take from the auxiliaries, per design (last axis)."""

    a: np.ndarray        # sqrt(1+lam_b) mu_b, sqrt(1+lam_e) mu_e
    mags: np.ndarray     # |mu_b|, |mu_e|
    cols: np.ndarray     # |mu_b|, |mu_b|, |mu_e|, |mu_e|
    sq: np.ndarray       # |mu_b|^2, |mu_b|^2, |mu_e|^2, |mu_e|^2
    lin: np.ndarray      # conj(sqrt(1+lam_b) mu_b), 0, 0, conj(sqrt(1+lam_e) mu_e)


def _aux_terms(aux: AuxVars | list[AuxVars] | _AuxTerms) -> _AuxTerms:
    """The terms of one AuxVars, or of a list with one per design."""
    if isinstance(aux, _AuxTerms):
        return aux
    rows = []
    for x in [aux] if isinstance(aux, AuxVars) else aux:
        cb = math.sqrt(1.0 + x.lam_b) * x.mu_b
        ce = math.sqrt(1.0 + x.lam_e) * x.mu_e
        mb, me = abs(x.mu_b), abs(x.mu_e)
        mb2, me2 = mb ** 2, me ** 2
        rows.append((cb, ce, mb, me, mb, mb, me, me, mb2, mb2, me2, me2,
                     cb.conjugate(), 0.0, 0.0, ce.conjugate()))
    t = np.array(rows[0] if isinstance(aux, AuxVars) else rows, dtype=complex)
    return _AuxTerms(t[..., 0:2], t[..., 2:4].real, t[..., 4:8].real, t[..., 8:12].real,
                     t[..., 12:16])


def _assemble_beam(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                   p_max: float, bob: bool, shared: QcqpProblem | None,
                   state: DesignState | None) -> QcqpProblem:
    """QCQP over one transmit beam with the other blocks held fixed.

    Both beams see the same A and F, which depend only on the reflect
    vector and the auxiliaries; a ``shared`` problem built at the same ones
    lends them with their factorization.
    """
    state = _state_of(ch, d, state)
    other = "v_e" if bob else "v_b"
    budget = [p_max - x for x in state.spent(noise, other, "irs")]
    budget = budget[0] if state.one else budget
    terms = _aux_terms(aux)
    t = state.rows_h                         # rows t_b, t_e
    x = 0 if bob else 1
    a = terms.a[..., x, None] * t[..., x, :]
    if shared is not None:
        return shared.retarget(a, budget)
    # A = |mu_b|^2 t_b t_b^H + |mu_e|^2 t_e t_e^H
    X = t.swapaxes(-1, -2) * terms.mags[..., None, :]
    W = d.theta[..., :, None] * state.H_si   # diag(theta) H_si
    F = state.eye_m + W.conj().swapaxes(-1, -2) @ W
    return QcqpProblem(a=a, A=X @ X.conj().swapaxes(-1, -2), F=F, p_budget=budget)


def assemble_vb(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                p_max: float, state: DesignState | None = None) -> QcqpProblem:
    """QCQP over the confidential beam with the other blocks held fixed."""
    return _assemble_beam(ch, d, noise, aux, p_max, True, None, state)


def assemble_ve(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                p_max: float, shared: QcqpProblem | None = None,
                state: DesignState | None = None) -> QcqpProblem:
    """QCQP over the AN beam with the other blocks held fixed.

    ``shared``, the v_b problem at the same reflect vector and auxiliaries,
    lends its A, F and factorization; only a and the budget are built.
    """
    return _assemble_beam(ch, d, noise, aux, p_max, False, shared, state)


def assemble_theta(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                   p_max: float, state: DesignState | None = None) -> QcqpProblem:
    """QCQP over the reflect vector with both beams held fixed.

    The QCQP variable is the CONJUGATE of the design's reflect diagonal
    (the natural variable of the vectorized quadratic forms); callers map
    the solution back with ``theta = conj(x)``.  The objective quadratic
    collects every reflect-dependent term of the surrogate, and the
    constraint quadratic is exactly the reflect-dependent part of the
    total-power expression.
    """
    state = _state_of(ch, d, state)
    p_be = [p_max - x for x in state.spent(noise, "bs")]
    p_be = p_be[0] if state.one else p_be
    terms = _aux_terms(aux)
    # columns c_bb, c_be, c_eb, c_ee, where c_xy = conj(g_x) * H_si v_y
    HV = _columns(state.hv_b, state.hv_e, state.hv_b, state.hv_e)
    C = state.g_cols * HV
    # conj(d_bb), conj(d_be), conj(d_eb), conj(d_ee), where d_xy = h_x^H v_y
    D = (state.h_rows @ _columns(d.v_b, d.v_e)).conj().reshape(*C.shape[:-2], 4)
    chi = np.matvec(C, terms.lin - terms.sq * D)

    C *= terms.cols[..., None, :]
    ups = C @ C.conj().swapaxes(-1, -2)
    _diagonal(ups)[...] += noise.sigma2_irs * (terms.sq[..., ::2, None] * state.g_abs2).sum(-2)

    omega = np.zeros(ups.shape, dtype=complex)
    _diagonal(omega)[...] = (np.abs(HV[..., :2]) ** 2).sum(-1) + noise.sigma2_irs
    return QcqpProblem(a=chi, A=ups, F=omega, p_budget=p_be)


# -- runner ------------------------------------------------------------------

EPS = 1e-4         # stop when the surrogate improves by at most this
MAX_ITERS = 500


def initial_design(ch: ChannelSet, noise: NoiseProfile, p_max: float,
                   seed: int) -> Design:
    """Matched-filter beams at a quarter budget each plus a random-phase
    reflect vector scaled so the initial design spends 0.99 * p_max."""
    rng = np.random.default_rng(seed)
    m = ch.h_b.size
    n = ch.g_b.size
    v_b = math.sqrt(p_max / 4.0) * ch.h_b / np.linalg.norm(ch.h_b)
    v_e = math.sqrt(p_max / 4.0) * ch.h_e / np.linalg.norm(ch.h_e)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    theta_hat = np.exp(1j * phases)
    q = float(np.sum(np.abs(theta_hat * (ch.H_si @ v_b)) ** 2)
              + np.sum(np.abs(theta_hat * (ch.H_si @ v_e)) ** 2)
              + noise.sigma2_irs * n)
    scale = math.sqrt(0.49 * p_max / q)
    return Design(v_b=v_b, v_e=v_e, theta=scale * theta_hat)


def run_ldt_cffp(ch: ChannelSet, noise: NoiseProfile, p_max: float,
                 seed: int = 1) -> tuple[Design, RunTrace]:
    """Run the alternating surrogate ascent to convergence.

    Per iteration: joint auxiliary update (tight surrogate), then exact
    QCQP steps over the confidential beam, the AN beam and the reflect
    vector.  Stops when the surrogate improves by at most ``EPS`` or after
    ``MAX_ITERS`` iterations (flagged).  Deterministic for a fixed
    (channels, seed).  This is the one-seed case of ``run_ldt_cffp_seeds``.
    """
    return run_ldt_cffp_seeds([ch], noise, p_max, [seed])[0]


def run_ldt_cffp_seeds(chs: list[ChannelSet], noise: NoiseProfile, p_max: float,
                       seeds: list[int], keep_rows: bool = True
                       ) -> list[tuple[Design, RunTrace]]:
    """``run_ldt_cffp`` for each (channels, seed) pair, run in lockstep.

    The designs of all seeds still running form one stack (see
    ``DesignState``): each iteration makes one stacked evaluation, one
    stacked factorization shared by the two beam blocks, one for the
    reflect block and three stacked multiplier searches.  A seed leaves the
    stack when it converges.  Each seed's design, trace rows, iterations
    and flags are those of its own ``run_ldt_cffp``; its ``wall_time_s`` is
    its share of each lockstep iteration it ran, the iteration's time split
    evenly among the seeds in it.  A block budget that is not positive
    raises QcqpProblem's ValueError for the whole stack, and the caller
    runs each seed on its own.

    Each design is evaluated once: the evaluation that closes an iteration
    gives its trace rows and the next iteration's auxiliaries, and the
    blocks share the effective channels and H_si v kept in the state.
    With ``keep_rows=False`` the traces keep no rows, only iterations,
    convergence, flags and wall time: the rows of twenty 500-iteration runs
    held at once take about 3 MB.
    """
    if not seeds or len(chs) != len(seeds):
        raise ValueError(f"need one channel set per seed and at least one seed, "
                         f"got {len(chs)} for {len(seeds)}")
    t0 = time.perf_counter()
    traces = [RunTrace() for _ in seeds]
    starts = [initial_design(ch, noise, p_max, seed) for ch, seed in zip(chs, seeds)]
    state = DesignState(chs, Design(*(np.stack([getattr(x, f) for x in starts])
                                      for f in ("v_b", "v_e", "theta"))))
    evs = state.evaluate(noise)
    live = list(range(len(seeds)))            # the seed of each design in the stack
    designs: list[Design | None] = [None] * len(seeds)
    prev = [-math.inf] * len(seeds)
    mark = time.perf_counter()
    spent = [(mark - t0) / len(seeds)] * len(seeds)
    for it in range(1, MAX_ITERS + 1):
        aux = [_aux_at(ev) for ev in evs]
        terms = _aux_terms(aux)

        # the assemblers read the channels from the state, so they are given none
        prob = assemble_vb(None, state.d, noise, terms, p_max, state=state)
        state.set_v_b(solve_qcqp_stack(prob).x)
        # theta is unchanged since the v_b problem, so v_e shares its A and F
        prob = assemble_ve(None, state.d, noise, terms, p_max, shared=prob, state=state)
        state.set_v_e(solve_qcqp_stack(prob).x)
        prob = assemble_theta(None, state.d, noise, terms, p_max, state=state)
        state.set_theta(solve_qcqp_stack(prob).x.conj())

        evs = state.evaluate(noise)
        now = time.perf_counter()
        share, mark = (now - mark) / len(live), now
        keep = []
        for row, (i, ev, a) in enumerate(zip(live, evs, aux)):
            spent[i] += share
            vr = ev.surrogate(a)
            trace = traces[i]
            if keep_rows:
                trace.rows.append({
                    "iteration": it,
                    "vr_prime": vr,
                    "sr_bits": ev.secrecy_rate(),
                    "power_slack": p_max - ev.power,
                    "wall_time_s": spent[i],
                })
            trace.iterations = it
            if abs(vr - prev[i]) <= EPS:
                trace.converged = True
                designs[i] = _design_at(state, row)
            else:
                prev[i] = vr
                keep.append(row)
        if len(keep) < len(live):
            if not keep:
                break
            state = state.take(keep)
            evs = [evs[row] for row in keep]
            live = [live[row] for row in keep]
    for row, i in enumerate(live):
        if not traces[i].converged:
            traces[i].add_flag("iteration-cap")
            designs[i] = _design_at(state, row)
    for i, trace in enumerate(traces):
        trace.wall_time_s = spent[i]
    return list(zip(designs, traces))


def _design_at(state: DesignState, row: int) -> Design:
    d = state.d
    return Design(d.v_b[row].copy(), d.v_e[row].copy(), d.theta[row].copy())
