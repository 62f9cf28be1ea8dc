"""Alternating optimizer for the monolithic system.

Maximizes the logarithmic surrogate of the virtual rate by cycling
closed-form auxiliary updates with three single-constraint QCQP blocks
(confidential beam, AN beam, IRS reflect vector), each solved exactly
through a KKT multiplier search.  Every block step is a global maximizer
of the surrogate in that block, so the recorded objective never decreases.
"""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .scene import ChannelSet
from .model import (
    Design,
    DesignState,
    Evaluation,
    NoiseProfile,
    AuxVars,
    _sq_norm,
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
    "kkt_residuals",
    "update_mu",
    "optimal_aux",
    "assemble_vb",
    "assemble_ve",
    "assemble_theta",
    "BudgetExhausted",
    "run_ldt_cffp",
    "initial_design",
]


class BudgetExhausted(RuntimeError):
    """Raised when a block subproblem is left with a non-positive power budget."""


def _hermitian_part(name: str, M: np.ndarray) -> tuple[np.ndarray, bool]:
    """M symmetrized against rounding, and whether it is diagonal; raises
    unless M is Hermitian to 1e-8, max|M - M^H| <= 1e-8 max|M|.

    A diagonal M costs O(n): M - M^H is 2i Im(diag M) and the Hermitian
    part is diag(Re M).  Otherwise max|M| >= max|M_ii|, so every entry is
    scanned for the scale only when the diagonal's does not pass the skew.
    """
    m = M.diagonal()
    diagonal = np.count_nonzero(M) == np.count_nonzero(m)
    if diagonal:
        skew = 2.0 * float(np.abs(m.imag).max())
        scale = float(np.abs(m).max())
        H = np.zeros(M.shape, dtype=M.dtype)
        H.flat[::M.shape[0] + 1] = m.real
    else:
        Mh = M.conj().T
        skew = float(np.abs(M - Mh).max())
        scale = float(np.abs(m).max())
        if skew > 1e-8 * scale:
            scale = float(np.abs(M).max())
        H = M + Mh
        H *= 0.5
    if skew > 1e-8 * (scale or 1.0):
        raise ValueError(f"{name} is not Hermitian")
    return H, diagonal


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
        self.A, _ = _hermitian_part("A", np.asarray(self.A, dtype=complex).reshape(n, n))
        self.F, diagonal = _hermitian_part("F", np.asarray(self.F, dtype=complex).reshape(n, n))

        if diagonal:
            f = self.F.diagonal().real
            if not (f > 0.0).all():
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
        self._k = int(self._d.searchsorted(flat, side="right"))

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
    bisect_steps: int    # multiplier evaluations (Newton or bisection steps)
    prob: QcqpProblem = field(repr=False)

    @functools.cached_property
    def objective(self) -> float:
        """Re{2 a^H x} - x^H A x, computed on first use."""
        x = self.x
        return float(2.0 * np.vdot(self.prob.a, x).real - np.vdot(x, self.prob.A @ x).real)

    @functools.cached_property
    def constraint(self) -> float:
        """x^H F x, computed on first use."""
        return float(np.vdot(self.x, self.prob.F @ self.x).real)


QCQP_TOL = 1e-10   # the multiplier search stops at |g - p| <= QCQP_TOL * p


def solve_qcqp(prob: QcqpProblem) -> QcqpSolution:
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
    |g - p| <= QCQP_TOL * p (Moré & Sorensen, SIAM J. Sci. Stat. Comput.
    1983).
    """
    n = prob.a.size
    p = prob.p_budget

    if not prob.a.any():
        return QcqpSolution(np.zeros(n, dtype=complex), 0.0, 0, prob)

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
            if abs(g - p) <= QCQP_TOL * p:
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
    return QcqpSolution(x, float(nu), steps, prob)


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
# rebuilt.  Without one, the assembler builds it.

def _state_of(ch: ChannelSet, d: Design, state: DesignState | None) -> DesignState:
    if state is None:
        return DesignState(ch, d)
    if state.d is not d:
        raise ValueError("state belongs to another design")
    return state


def _assemble_beam(ch: ChannelSet, d: Design, noise: NoiseProfile, aux: AuxVars,
                   p_max: float, bob: bool, shared: QcqpProblem | None,
                   state: DesignState | None) -> QcqpProblem:
    """QCQP over one transmit beam with the other blocks held fixed.

    Both beams see the same A and F, which depend only on the reflect
    vector and the auxiliaries; a ``shared`` problem built at the same ones
    lends them with their factorization.
    """
    state = _state_of(ch, d, state)
    budget = p_max - (state.beam_power(not bob) + state.irs_noise_power(noise))
    if budget <= 0:
        raise BudgetExhausted(f"{'confidential' if bob else 'AN'}-beam budget {budget} <= 0")
    t = state.rows.conj()                    # rows t_b, t_e
    if bob:
        a = math.sqrt(1.0 + aux.lam_b) * aux.mu_b * t[0]
    else:
        a = math.sqrt(1.0 + aux.lam_e) * aux.mu_e * t[1]
    if shared is not None:
        return shared.retarget(a, budget)
    # A = |mu_b|^2 t_b t_b^H + |mu_e|^2 t_e t_e^H
    X = t.T * [abs(aux.mu_b), abs(aux.mu_e)]
    W = d.theta[:, None] * ch.H_si          # diag(theta) H_si
    F = state.eye_m + W.conj().T @ W
    return QcqpProblem(a=a, A=X @ X.conj().T, F=F, p_budget=budget)


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
    V = np.array([d.v_b, d.v_e]).T
    p_be = p_max - _sq_norm(V)
    if p_be <= 0:
        raise BudgetExhausted(f"reflect budget {p_be} <= 0")
    # columns c_bb, c_be, c_ee, c_eb, where c_xy = conj(g_x) * H_si v_y
    HV = np.array([state.hv_b, state.hv_e, state.hv_e, state.hv_b]).T
    C = state.g_cols * HV
    # d_xy = h_x^H v_y
    (d_bb, d_be), (d_eb, d_ee) = (state.h_rows @ V).tolist()

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
    n = ups.shape[0]
    ups.flat[::n + 1] += noise.sigma2_irs * (mb2 * state.g_abs2[0] + me2 * state.g_abs2[1])

    omega = np.zeros((n, n), dtype=complex)
    omega.flat[::n + 1] = (np.abs(HV[:, :2]) ** 2).sum(axis=1) + noise.sigma2_irs
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


def _assemble_block(assemble, ch, state: DesignState, noise, aux, p_max,
                    trace: RunTrace, block: str, rescale: tuple[str, ...],
                    **reuse) -> QcqpProblem | None:
    """Assemble one block; on an exhausted budget, shrink the other blocks
    by 5% once and retry, flagging the event.  The retry refreshes ``state``
    and drops ``reuse``: the rescue rescaled what they were built at."""
    d = state.d
    try:
        return assemble(ch, d, noise, aux, p_max, state=state, **reuse)
    except BudgetExhausted:
        trace.add_flag(f"budget-rescue:{block}")
        for name in rescale:
            setattr(d, name, getattr(d, name) * 0.95)
        state.refresh()
        try:
            return assemble(ch, d, noise, aux, p_max, state=state)
        except BudgetExhausted:
            trace.add_flag(f"budget-skip:{block}")
            return None


def run_ldt_cffp(ch: ChannelSet, noise: NoiseProfile, p_max: float,
                 seed: int = 1) -> tuple[Design, RunTrace]:
    """Run the alternating surrogate ascent to convergence.

    Per iteration: joint auxiliary update (tight surrogate), then exact
    QCQP steps over the confidential beam, the AN beam and the reflect
    vector.  Stops when the surrogate improves by at most ``EPS`` or after
    ``MAX_ITERS`` iterations (flagged).  Deterministic for a fixed
    (channels, seed).

    Each design is evaluated once: the evaluation that closes an iteration
    gives its trace row and the next iteration's auxiliaries, and the
    blocks share the effective channels and H_si v kept in the state.
    """
    trace = RunTrace()
    t0 = time.perf_counter()
    state = DesignState(ch, initial_design(ch, noise, p_max, seed))
    ev = state.evaluate(noise)
    prev = -math.inf
    for it in range(1, MAX_ITERS + 1):
        aux = _aux_at(ev)

        prob = _assemble_block(assemble_vb, ch, state, noise, aux, p_max, trace,
                               "v_b", ("v_e", "theta"))
        if prob is not None:
            state.set_v_b(solve_qcqp(prob).x)
        # theta is unchanged since the v_b problem, so v_e shares its A and F
        prob = _assemble_block(assemble_ve, ch, state, noise, aux, p_max, trace,
                               "v_e", ("v_b", "theta"), shared=prob)
        if prob is not None:
            state.set_v_e(solve_qcqp(prob).x)
        prob = _assemble_block(assemble_theta, ch, state, noise, aux, p_max, trace,
                               "theta", ("v_b", "v_e"))
        if prob is not None:
            state.set_theta(solve_qcqp(prob).x.conj())

        ev = state.evaluate(noise)
        vr = ev.surrogate(aux)
        trace.rows.append({
            "iteration": it,
            "vr_prime": vr,
            "sr_bits": ev.secrecy_rate(),
            "power_slack": p_max - ev.power,
            "wall_time_s": time.perf_counter() - t0,
        })
        trace.iterations = it
        if abs(vr - prev) <= EPS:
            trace.converged = True
            break
        prev = vr
    if not trace.converged:
        trace.add_flag("iteration-cap")
    trace.wall_time_s = time.perf_counter() - t0
    return state.d, trace
