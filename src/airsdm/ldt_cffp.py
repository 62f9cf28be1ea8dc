"""Alternating optimizer for the monolithic system.

Maximizes the logarithmic surrogate of the virtual rate by cycling
closed-form auxiliary updates with three single-constraint QCQP blocks
(confidential beam, AN beam, IRS reflect vector), each solved exactly
through a KKT multiplier search.  Every block step is a global maximizer
of the surrogate in that block, so the recorded objective never decreases.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from .scene import ChannelSet
from .model import (
    Design,
    NoiseProfile,
    AuxVars,
    effective_channel,
    _receiver_terms,
    secrecy_rate,
    total_power,
    ldt_objective,
)
from .trace import RunTrace

__all__ = [
    "QcqpProblem",
    "QcqpSolution",
    "solve_qcqp",
    "kkt_residuals",
    "update_mu",
    "optimal_aux",
    "assemble_vb",
    "assemble_ve",
    "assemble_theta",
    "BudgetExhausted",
    "LdtOptions",
    "run_ldt_cffp",
    "initial_design",
]


class BudgetExhausted(RuntimeError):
    """Raised when a block subproblem is left with a non-positive power budget."""


def _hermitian_part(name: str, M: np.ndarray) -> np.ndarray:
    """M symmetrized against rounding; raises unless M is Hermitian to 1e-8."""
    Mh = M.conj().T
    if np.abs(M - Mh).max() > 1e-8 * (float(np.abs(M).max()) or 1.0):
        raise ValueError(f"{name} is not Hermitian")
    return 0.5 * (M + Mh)


@dataclass
class QcqpProblem:
    """maximize Re{2 a^H x} - x^H A x  subject to  x^H F x <= p_budget.

    A must be Hermitian PSD and F Hermitian PD; both are checked (and
    symmetrized against rounding) at construction, which also factors the
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
    p_budget: float

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=complex).ravel()
        n = self.a.size
        if self.p_budget <= 0:
            raise ValueError(f"power budget must be positive, got {self.p_budget}")
        self.A = _hermitian_part("A", np.asarray(self.A, dtype=complex).reshape(n, n))
        self.F = _hermitian_part("F", np.asarray(self.F, dtype=complex).reshape(n, n))

        f = self.F.diagonal().real
        if np.count_nonzero(self.F) == np.count_nonzero(f):      # F is diagonal
            if not np.all(f > 0.0):
                raise ValueError("F must be positive definite")
            w = 1.0 / np.sqrt(f)                  # L^-1 = diag(w)
            d, U = np.linalg.eigh(w[:, None] * self.A * w)
            T = U.conj().T * w
        else:
            try:
                Linv = np.linalg.inv(np.linalg.cholesky(self.F))
            except np.linalg.LinAlgError as exc:
                raise ValueError("F must be positive definite") from exc
            d, U = np.linalg.eigh(Linv @ self.A @ Linv.conj().T)   # lower triangle
            T = U.conj().T @ Linv
        if d[0] < -1e-8 * max(float(d[-1]), 0.0):
            raise ValueError("A must be positive semidefinite")
        self._d = np.maximum(d, 0.0)              # ascending
        self._T = T                               # U^H L^-1: b = T a, x = T^H z
        # d[:k] are the flat directions of the objective
        flat = 1e-12 * (float(d[-1]) if d[-1] > 0 else 1.0)
        self._k = int(np.searchsorted(self._d, flat, side="right"))

    def retarget(self, a: np.ndarray, p_budget: float) -> QcqpProblem:
        """The same A and F, and their factorization, with a new linear term
        and budget."""
        if p_budget <= 0:
            raise ValueError(f"power budget must be positive, got {p_budget}")
        new = copy.copy(self)
        new.a = np.asarray(a, dtype=complex).reshape(self.a.shape)
        new.p_budget = p_budget
        return new


@dataclass
class QcqpSolution:
    x: np.ndarray
    nu: float            # KKT multiplier of the power constraint
    objective: float
    constraint: float    # x^H F x
    bisect_steps: int    # multiplier evaluations (Newton or bisection steps)


def solve_qcqp(prob: QcqpProblem, tol: float = 1e-10) -> QcqpSolution:
    """Exact solution of the single-constraint concave QCQP.

    Works in the problem's cached whitened eigenbasis: with b = U^H L^-1 a,
    the stationary point is z(nu) = b / (d + nu), x = L^-H U z, whose
    constraint value g(nu) = sum |b|^2 / (d + nu)^2 is strictly decreasing.
    nu = 0 is used when the unconstrained maximizer set contains a feasible
    point (flat directions resolved to the power-minimal optimizer).
    Otherwise nu > 0 is the root of the secular equation 1/sqrt(g(nu)) =
    1/sqrt(p), which is nearly linear in nu: safeguarded Newton steps start
    at the lower end of a bracket, a step that leaves the bracket (or a
    non-finite g) falls back to bisection, and the search stops when
    |g - p| <= tol * p (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983).
    """
    n = prob.a.size
    p = prob.p_budget

    if not prob.a.any():
        return QcqpSolution(np.zeros(n, dtype=complex), 0.0, 0.0, 0.0, 0)

    d, k = prob._d, prob._k
    b = prob._T @ prob.a
    babs2 = np.abs(b) ** 2
    norm_b = math.sqrt(float(babs2.sum()))
    # in range(A), b has no flat components beyond rounding
    in_range = k == 0 or float(np.abs(b[:k]).max()) <= 1e-9 * norm_b

    nu = 0.0
    steps = 0
    if in_range:
        z = np.zeros(n, dtype=complex)
        z[k:] = b[k:] / d[k:]
        interior = float(np.vdot(z, z).real) <= p * (1.0 + 1e-9)
    else:
        interior = False

    if not interior:
        # sandwich g between ||b||^2/(d_max+nu)^2 and ||b||^2/(d_min+nu)^2
        root = norm_b / math.sqrt(p)
        if in_range:
            # the flat components are rounding: drop them
            dk, wk = d[k:], babs2[k:]
            lo = max(0.0, root - float(dk[-1]))
        else:
            # the flat components alone give g >= |b_flat|^2/(d[k-1]+nu)^2
            dk, wk = d, babs2
            lo = max(root - float(dk[-1]),
                     math.sqrt(float(babs2[:k].sum()) / p) - float(d[k - 1]))
        hi = max(root - float(dk[0]), 1e-300)
        nu = lo
        for steps in range(1, 201):
            r = 1.0 / (dk + nu)
            wr2 = wk * r * r
            g = float(wr2.sum())
            if abs(g - p) <= tol * p:
                break
            if g > p or not math.isfinite(g):
                lo = nu
            else:
                hi = nu
            step = nu + g * (math.sqrt(g / p) - 1.0) / float(np.dot(wr2, r))
            nu = step if lo < step < hi else 0.5 * (lo + hi)
        z = b / (d + nu)
        if in_range:
            z[:k] = 0.0

    x = (z.conj() @ prob._T).conj()
    obj = float(2.0 * np.vdot(prob.a, x).real - np.vdot(x, prob.A @ x).real)
    cons = float(np.vdot(x, prob.F @ x).real)
    return QcqpSolution(x, float(nu), obj, cons, steps)


def kkt_residuals(prob: QcqpProblem, sol: QcqpSolution) -> dict:
    """Stationarity / feasibility / complementary-slackness residuals."""
    r = (prob.A + sol.nu * prob.F) @ sol.x - prob.a
    return {
        "stationarity": float(np.linalg.norm(r)),
        "feasibility": sol.constraint - prob.p_budget,
        "comp_slack": sol.nu * (sol.constraint - prob.p_budget),
    }


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
    s_b, i_b, den_b, s_e, i_e, den_e = _receiver_terms(ch, d, noise)
    lam_b = abs(s_b) ** 2 / (den_b - abs(s_b) ** 2)
    lam_e = abs(i_e) ** 2 / (den_e - abs(i_e) ** 2)
    mu_b = update_mu(lam_b, s_b, den_b)
    mu_e = update_mu(lam_e, i_e, den_e)
    return AuxVars(lam_b=float(lam_b), lam_e=float(lam_e), mu_b=mu_b, mu_e=mu_e)


# -- block subproblem assembly ----------------------------------------------

def _sq_norm(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def _assemble_beam(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                   p_max: float, bob: bool, shared: QcqpProblem | None) -> QcqpProblem:
    """QCQP over one transmit beam with the other blocks held fixed.

    Both beams see the same A and F, which depend only on the reflect
    vector and the auxiliaries; a ``shared`` problem built at the same ones
    lends them with their factorization.
    """
    rx = [(ch.h_b, ch.g_b, aux.lam_b, aux.mu_b), (ch.h_e, ch.g_e, aux.lam_e, aux.mu_e)]
    (h, g, lam, mu), (h2, g2, _, mu2) = rx if bob else rx[::-1]
    other = d.v_e if bob else d.v_b
    budget = p_max - (_sq_norm(other) + _sq_norm(d.theta * (ch.H_si @ other))
                      + noise.sigma2_irs * _sq_norm(d.theta))
    if budget <= 0:
        raise BudgetExhausted(f"{'confidential' if bob else 'AN'}-beam budget {budget} <= 0")
    t = effective_channel(h, g, ch.H_si, d.theta)
    a = math.sqrt(1.0 + lam) * mu * t
    if shared is not None:
        return shared.retarget(a, budget)
    # A = |mu_b|^2 t_b t_b^H + |mu_e|^2 t_e t_e^H
    X = np.stack([abs(mu) * t, abs(mu2) * effective_channel(h2, g2, ch.H_si, d.theta)], axis=1)
    W = d.theta[:, None] * ch.H_si          # diag(theta) H_si
    F = np.eye(ch.H_si.shape[1]) + W.conj().T @ W
    return QcqpProblem(a=a, A=X @ X.conj().T, F=F, p_budget=budget)


def assemble_vb(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                p_max: float) -> QcqpProblem:
    """QCQP over the confidential beam with the other blocks held fixed."""
    return _assemble_beam(ch, d, noise, aux, p_max, True, None)


def assemble_ve(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                p_max: float, shared: QcqpProblem | None = None) -> QcqpProblem:
    """QCQP over the AN beam with the other blocks held fixed.

    ``shared``, the v_b problem at the same reflect vector and auxiliaries,
    lends its A, F and factorization; only a and the budget are built.
    """
    return _assemble_beam(ch, d, noise, aux, p_max, False, shared)


def assemble_theta(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                   p_max: float) -> QcqpProblem:
    """QCQP over the reflect vector with both beams held fixed.

    The QCQP variable is the CONJUGATE of the design's reflect diagonal
    (the natural variable of the vectorized quadratic forms); callers map
    the solution back with ``theta = conj(x)``.  The objective quadratic
    collects every reflect-dependent term of the surrogate, and the
    constraint quadratic is exactly the reflect-dependent part of the
    total-power expression.
    """
    V = np.stack([d.v_b, d.v_e], axis=1)
    p_be = p_max - _sq_norm(V)
    if p_be <= 0:
        raise BudgetExhausted(f"reflect budget {p_be} <= 0")
    HV = ch.H_si @ V
    # columns c_bb, c_be, c_ee, c_eb, where c_xy = conj(g_x) * H_si v_y
    C = np.concatenate([ch.g_b.conj()[:, None] * HV,
                        ch.g_e.conj()[:, None] * HV[:, ::-1]], axis=1)
    # d_xy = h_x^H v_y
    (d_bb, d_be), (d_eb, d_ee) = (np.stack([ch.h_b, ch.h_e]).conj() @ V).tolist()

    mb2 = abs(aux.mu_b) ** 2
    me2 = abs(aux.mu_e) ** 2
    chi = C @ np.array([
        math.sqrt(1.0 + aux.lam_b) * aux.mu_b.conjugate() - mb2 * d_bb.conjugate(),
        -mb2 * d_be.conjugate(),
        math.sqrt(1.0 + aux.lam_e) * aux.mu_e.conjugate() - me2 * d_ee.conjugate(),
        -me2 * d_eb.conjugate(),
    ])

    C *= [abs(aux.mu_b), abs(aux.mu_b), abs(aux.mu_e), abs(aux.mu_e)]
    ups = C @ C.conj().T
    ups += np.diag(noise.sigma2_irs * (mb2 * np.abs(ch.g_b) ** 2 + me2 * np.abs(ch.g_e) ** 2))

    omega = np.diag((np.abs(HV) ** 2).sum(axis=1) + noise.sigma2_irs)
    return QcqpProblem(a=chi, A=ups, F=omega, p_budget=p_be)


# -- runner ------------------------------------------------------------------

@dataclass
class LdtOptions:
    eps: float = 1e-4          # stop when the surrogate improves by less than this
    max_iters: int = 500


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


def _assemble_block(assemble, ch, d, noise, aux, p_max, trace: RunTrace,
                    block: str, rescale: tuple[str, ...], **reuse) -> QcqpProblem | None:
    """Assemble one block; on an exhausted budget, shrink the other blocks
    by 5% once and retry, flagging the event.  The retry assembles afresh
    and drops ``reuse``: the rescue may have rescaled what it was built at."""
    try:
        return assemble(ch, d, noise, aux, p_max, **reuse)
    except BudgetExhausted:
        trace.add_flag(f"budget-rescue:{block}")
        for name in rescale:
            setattr(d, name, getattr(d, name) * 0.95)
        try:
            return assemble(ch, d, noise, aux, p_max)
        except BudgetExhausted:
            trace.add_flag(f"budget-skip:{block}")
            return None


def run_ldt_cffp(ch: ChannelSet, noise: NoiseProfile, p_max: float,
                 seed: int = 1, options: LdtOptions | None = None,
                 ) -> tuple[Design, RunTrace]:
    """Run the alternating surrogate ascent to convergence.

    Per iteration: joint auxiliary update (tight surrogate), then exact
    QCQP steps over the confidential beam, the AN beam and the reflect
    vector.  Stops when the surrogate improves by at most ``eps`` or at the
    iteration cap (flagged).  Deterministic for a fixed (channels, seed).
    """
    opt = options or LdtOptions()
    trace = RunTrace()
    t0 = time.perf_counter()
    d = initial_design(ch, noise, p_max, seed)
    prev = -math.inf
    for it in range(1, opt.max_iters + 1):
        aux = optimal_aux(ch, d, noise)

        prob = _assemble_block(assemble_vb, ch, d, noise, aux, p_max, trace,
                               "v_b", ("v_e", "theta"))
        if prob is not None:
            d.v_b = solve_qcqp(prob).x
        # theta is unchanged since the v_b problem, so v_e shares its A and F
        prob = _assemble_block(assemble_ve, ch, d, noise, aux, p_max, trace,
                               "v_e", ("v_b", "theta"), shared=prob)
        if prob is not None:
            d.v_e = solve_qcqp(prob).x
        prob = _assemble_block(assemble_theta, ch, d, noise, aux, p_max, trace,
                               "theta", ("v_b", "v_e"))
        if prob is not None:
            d.theta = solve_qcqp(prob).x.conj()

        vr = ldt_objective(ch, d, noise, aux)
        trace.rows.append({
            "iteration": it,
            "vr_prime": vr,
            "sr_bits": secrecy_rate(ch, d, noise),
            "power_slack": p_max - total_power(ch, d, noise),
            "wall_time_s": time.perf_counter() - t0,
        })
        trace.iterations = it
        if abs(vr - prev) <= opt.eps:
            trace.converged = True
            break
        prev = vr
    if not trace.converged:
        trace.add_flag("iteration-cap")
    trace.wall_time_s = time.perf_counter() - t0
    return d, trace
