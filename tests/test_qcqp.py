"""Exact QCQP solver and the closed-form auxiliary updates.

The solver's oracle is a dense grid over the feasible set (only sound for
n in {1, 2}); the auxiliary updates are checked against grid argmaxes of
their scalar objectives, with the closed-form values frozen on a few
hand-solvable points.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import crandn

from airsdm.ldt_cffp import (
    QcqpProblem,
    QcqpSolution,
    kkt_residuals,
    solve_qcqp,
    solve_qcqp_stack,
    update_mu,
)


def qcqp_objective(prob: QcqpProblem, x: np.ndarray) -> float:
    return float(2.0 * np.vdot(prob.a, x).real - np.vdot(x, prob.A @ x).real)


def random_problem(rng: np.random.Generator, n: int,
                   singular_a: bool = False, aligned_a: bool = False) -> QcqpProblem:
    m = int(rng.integers(1, n + 1))
    G = crandn(rng, m, n)
    A = G.conj().T @ G
    if singular_a:
        A = np.zeros((n, n), dtype=complex)
    Lf = crandn(rng, n, n)
    F = Lf @ Lf.conj().T + np.eye(n)
    if aligned_a and not singular_a:
        a = A @ crandn(rng, n)
    else:
        a = crandn(rng, n)
    p = float(rng.uniform(0.05, 20.0))
    return QcqpProblem(a=a, A=A, F=F, p_budget=p)


def grid_oracle(prob: QcqpProblem, n_mag: int = 24, n_phase: int = 40) -> float:
    """Best objective over a dense grid of the feasible set (n <= 2).

    Feasibility via whitening: x = L^-H (sqrt(p) u) with ||u|| <= 1, so the
    grid never exceeds the budget and its best value lower-bounds the true
    maximum.
    """
    n = prob.a.size
    L = np.linalg.cholesky(prob.F)
    root_p = math.sqrt(prob.p_budget)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_phase, endpoint=False))
    mags = np.linspace(0.0, 1.0, n_mag)
    if n == 1:
        U = (mags[:, None] * phases[None, :]).reshape(1, -1)
    else:
        # split the unit disc of radii by an angle alpha between the entries
        alphas = np.linspace(0.0, np.pi / 2.0, 9)
        u1 = (mags[:, None] * np.cos(alphas)[None, :]).ravel()
        u2 = (mags[:, None] * np.sin(alphas)[None, :]).ravel()
        U = np.stack([
            (u1[:, None, None] * phases[None, :, None] * np.ones_like(phases)[None, None, :]).ravel(),
            (u2[:, None, None] * np.ones_like(phases)[None, :, None] * phases[None, None, :]).ravel(),
        ])
    X = np.linalg.solve(L.conj().T, root_p * U)
    vals = 2.0 * (prob.a.conj() @ X).real - np.einsum("in,in->n", X.conj(), prob.A @ X).real
    return float(vals.max())


# -- analytic cases -----------------------------------------------------------

def test_interior_solution():
    prob = QcqpProblem(a=np.array([1.0 + 0j]), A=np.array([[1.0 + 0j]]),
                       F=np.eye(1), p_budget=4.0)
    sol = solve_qcqp(prob)
    assert_allclose(sol.x, [1.0 + 0j], atol=1e-10)
    assert sol.nu == 0.0
    assert_allclose(sol.objective, 1.0, rtol=1e-10)
    assert sol.bisect_steps == 0


def test_boundary_solution_with_known_multiplier():
    prob = QcqpProblem(a=np.array([2.0 + 0j]), A=np.array([[1.0 + 0j]]),
                       F=np.eye(1), p_budget=1.0)
    sol = solve_qcqp(prob)
    # stationarity (1 + nu) x = 2 with |x| = 1 gives x = 1, nu = 1
    assert_allclose(sol.x, [1.0 + 0j], atol=1e-9)
    assert_allclose(sol.nu, 1.0, atol=1e-8)
    assert_allclose(sol.objective, 3.0, rtol=1e-9)
    assert sol.bisect_steps >= 1


def test_linear_objective_spends_full_budget():
    prob = QcqpProblem(a=np.array([1.0 + 0j]), A=np.zeros((1, 1), dtype=complex),
                       F=np.eye(1), p_budget=9.0)
    sol = solve_qcqp(prob)
    assert_allclose(sol.x, [3.0 + 0j], atol=1e-8)
    assert_allclose(sol.nu, 1.0 / 3.0, atol=1e-9)
    assert_allclose(sol.objective, 6.0, rtol=1e-9)
    assert_allclose(sol.constraint, 9.0, rtol=1e-9)


def test_phase_alignment_with_complex_target():
    prob = QcqpProblem(a=np.array([2.0j]), A=np.array([[1.0 + 0j]]),
                       F=np.eye(1), p_budget=1.0)
    sol = solve_qcqp(prob)
    assert_allclose(sol.x, [1.0j], atol=1e-9)


def test_zero_target_returns_zero():
    prob = QcqpProblem(a=np.zeros(3, dtype=complex), A=np.eye(3),
                       F=np.eye(3), p_budget=1.0)
    sol = solve_qcqp(prob)
    assert_allclose(sol.x, np.zeros(3), atol=0)
    assert sol.objective == 0.0 and sol.nu == 0.0


def test_flat_directions_resolve_to_power_minimal_optimizer():
    # A singular with a in range(A): the null component stays at zero
    prob = QcqpProblem(a=np.array([1.0 + 0j, 0.0]),
                       A=np.diag([1.0 + 0j, 0.0]), F=np.eye(2), p_budget=10.0)
    sol = solve_qcqp(prob)
    assert_allclose(sol.x, [1.0 + 0j, 0.0], atol=1e-10)
    assert sol.nu == 0.0


# -- validation ----------------------------------------------------------------

def test_problem_validation():
    eye = np.eye(2, dtype=complex)
    a = np.ones(2, dtype=complex)
    with pytest.raises(ValueError, match="budget"):
        QcqpProblem(a=a, A=eye, F=eye, p_budget=0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        QcqpProblem(a=a, A=np.array([[0, 1.0], [0, 0]]), F=eye, p_budget=1.0)
    with pytest.raises(ValueError, match="semidefinite"):
        QcqpProblem(a=a, A=-eye, F=eye, p_budget=1.0)
    with pytest.raises(ValueError, match="definite"):
        QcqpProblem(a=a, A=eye, F=np.zeros((2, 2), dtype=complex), p_budget=1.0)


def test_psd_check_is_relative_to_the_whitened_spectrum():
    # an indefinite A far below unit scale, as the reflect block's A is
    a = np.ones(2, dtype=complex)
    A = 1e-6 * np.diag([1.0, -1e-3]).astype(complex)
    with pytest.raises(ValueError, match="semidefinite"):
        QcqpProblem(a=a, A=A, F=np.eye(2), p_budget=1.0)
    with pytest.raises(ValueError, match="semidefinite"):
        QcqpProblem(a=a, A=A, F=np.array([[2.0, 0.5], [0.5, 1.0]]), p_budget=1.0)
    # a PSD A of the same scale, singular up to rounding, passes
    t = np.array([1e-3, 2e-3j])
    QcqpProblem(a=a, A=np.outer(t, t.conj()), F=np.eye(2), p_budget=1.0)


def test_singular_f_is_rejected_on_both_whitening_paths():
    a = np.ones(2, dtype=complex)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="definite"):
        QcqpProblem(a=a, A=eye, F=np.diag([1.0, 0.0]), p_budget=1.0)
    with pytest.raises(ValueError, match="definite"):
        QcqpProblem(a=a, A=eye, F=np.diag([1.0, -1.0]), p_budget=1.0)
    with pytest.raises(ValueError, match="definite"):
        QcqpProblem(a=a, A=eye, F=np.ones((2, 2)), p_budget=1.0)


def test_diagonal_and_cholesky_whitening_agree(monkeypatch):
    # one problem posed with a diagonal F and in rotated coordinates x' = Q x,
    # where F' = Q F Q^H is dense
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: factored.append(M) or cholesky(M))
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = 6
        G = crandn(rng, 3, n)
        A = G.conj().T @ G + 0.1 * np.eye(n)
        f = rng.uniform(0.5, 3.0, n)
        a = crandn(rng, n)
        Q, _ = np.linalg.qr(crandn(rng, n, n))
        diag = QcqpProblem(a=a, A=A, F=np.diag(f), p_budget=0.05)
        assert not factored                   # whitened by a scale
        dense = QcqpProblem(a=Q @ a, A=Q @ A @ Q.conj().T,
                            F=Q @ np.diag(f) @ Q.conj().T, p_budget=0.05)
        assert len(factored) == 1
        factored.clear()
        s1, s2 = solve_qcqp(diag), solve_qcqp(dense)
        assert s1.nu > 0.0
        assert_allclose(s2.nu, s1.nu, rtol=1e-12)
        assert_allclose(s2.x, Q @ s1.x, rtol=0, atol=1e-12 * np.linalg.norm(s1.x))


def test_problem_symmetrizes_rounding_noise():
    A = np.array([[1.0, 0.1 + 1e-12j], [0.1 - 2e-12j, 2.0]], dtype=complex)
    prob = QcqpProblem(a=np.ones(2, dtype=complex), A=A, F=np.eye(2), p_budget=1.0)
    assert_allclose(prob.A, prob.A.conj().T, atol=0)


# -- grid-oracle properties -----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_solver_meets_grid_oracle(n):
    rng = np.random.default_rng(100 + n)
    for k in range(25):
        prob = random_problem(rng, n, singular_a=(k % 5 == 0),
                              aligned_a=(k % 7 == 0))
        sol = solve_qcqp(prob)
        oracle = grid_oracle(prob)
        scale = max(1.0, abs(oracle))
        assert sol.objective >= oracle - 1e-3 * scale
        assert sol.constraint <= prob.p_budget * (1.0 + 1e-6)


def test_kkt_residuals_within_tolerance():
    rng = np.random.default_rng(42)
    for k in range(60):
        n = int(rng.integers(1, 9))
        prob = random_problem(rng, n, singular_a=(k % 6 == 0),
                              aligned_a=(k % 5 == 0))
        sol = solve_qcqp(prob)
        res = kkt_residuals(prob, sol)
        assert set(res) == {"stationarity", "feasibility", "comp_slack"}
        assert res["stationarity"] <= 1e-6 * np.linalg.norm(prob.a)
        assert res["feasibility"] <= 1e-6 * prob.p_budget
        assert abs(res["comp_slack"]) <= 1e-6 * prob.p_budget
        assert sol.nu >= 0.0


@pytest.mark.parametrize("kind", ["generic", "zero_a", "aligned"])
def test_newton_multiplier_meets_oracle_and_kkt_in_few_steps(kind):
    # zero_a: A = 0, so a lies outside range(A) and g(0) is infinite; generic
    # draws are rank deficient whenever the random rank is below n
    rng = np.random.default_rng({"generic": 31, "zero_a": 32, "aligned": 33}[kind])
    for k in range(40):
        n = 1 + k % 2 if k < 20 else int(rng.integers(3, 9))
        prob = random_problem(rng, n, singular_a=kind == "zero_a",
                              aligned_a=kind == "aligned")
        sol = solve_qcqp(prob)
        assert sol.bisect_steps <= 20
        res = kkt_residuals(prob, sol)
        assert res["stationarity"] <= 1e-6 * np.linalg.norm(prob.a)
        assert res["feasibility"] <= 1e-6 * prob.p_budget
        assert abs(res["comp_slack"]) <= 1e-6 * prob.p_budget
        if n <= 2:
            oracle = grid_oracle(prob)
            assert sol.objective >= oracle - 1e-3 * max(1.0, abs(oracle))


def test_newton_multiplier_with_a_orthogonal_to_a_stiff_range():
    # b lies wholly in flat directions whose rounding-level eigenvalues are
    # not negligible next to the multiplier; the bracket must still hold it
    rng = np.random.default_rng(34)
    for _ in range(10):
        v = crandn(rng, 4)
        a = crandn(rng, 4)
        a -= v * np.vdot(v, a) / np.vdot(v, v)
        p = float(rng.uniform(0.05, 20.0))
        prob = QcqpProblem(a=a, A=1e12 * np.outer(v, v.conj()), F=np.eye(4), p_budget=p)
        sol = solve_qcqp(prob)
        assert sol.bisect_steps <= 20
        assert_allclose(sol.constraint, p, rtol=1e-9)


def test_solver_is_deterministic():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, 5)
    s1, s2 = solve_qcqp(prob), solve_qcqp(prob)
    assert np.array_equal(s1.x, s2.x)
    assert s1.nu == s2.nu and s1.bisect_steps == s2.bisect_steps


def test_solution_record_fields():
    sol = solve_qcqp(QcqpProblem(a=np.array([1.0 + 0j]), A=np.eye(1),
                                 F=np.eye(1), p_budget=0.01))
    assert isinstance(sol, QcqpSolution)
    assert_allclose(sol.constraint, float(np.vdot(sol.x, sol.x).real), rtol=1e-12)


# -- stacks of problems -----------------------------------------------------------

def _family(rng, n, diagonal_f=False):
    """Problems of size n from every branch of the solver: interior and
    boundary, rank-deficient A with a in and out of its range, A = 0 and a = 0.

    In a stack whose F are not all diagonal, every F is whitened through its
    Cholesky factor, so an identity F agrees with its own solve to rounding.
    """
    probs = [random_problem(rng, n, singular_a=(k % 5 == 0), aligned_a=(k % 3 == 0))
             for k in range(12)]
    probs.append(QcqpProblem(a=np.zeros(n, dtype=complex), A=np.eye(n), F=np.eye(n),
                             p_budget=1.0))
    # rank one and stiff, with a orthogonal to it: outside range(A)
    v, a = crandn(rng, n), crandn(rng, n)
    if n > 1:
        a -= v * np.vdot(v, a) / np.vdot(v, v)
    probs.append(QcqpProblem(a=a, A=1e12 * np.outer(v, v.conj()), F=np.eye(n), p_budget=2.0))
    # a large budget: the unconstrained maximizer is feasible
    G = crandn(rng, n, n)
    probs.append(QcqpProblem(a=crandn(rng, n), A=G.conj().T @ G + np.eye(n), F=np.eye(n),
                             p_budget=1e6))
    if diagonal_f:
        probs = [QcqpProblem(a=q.a, A=q.A, F=np.diag(rng.uniform(0.5, 3.0, n)),
                             p_budget=q.p_budget) for q in probs]
    return probs


@pytest.mark.parametrize("n, diagonal_f", [(1, False), (2, False), (5, False), (8, False),
                                           (8, True)])
def test_a_stack_solves_each_problem_as_alone(n, diagonal_f):
    rng = np.random.default_rng(200 + n + diagonal_f)
    probs = _family(rng, n, diagonal_f)
    stack = QcqpProblem(a=np.stack([q.a for q in probs]), A=np.stack([q.A for q in probs]),
                        F=np.stack([q.F for q in probs]),
                        p_budget=np.array([q.p_budget for q in probs]))
    sols = solve_qcqp_stack(stack)
    assert sols.x.shape == (len(probs), n) and sols.nu.shape == (len(probs),)
    alone = [solve_qcqp(q) for q in probs]
    assert {s.nu == 0.0 for s in alone} == {True, False}        # interior and boundary
    if n > 1:                       # the boundary rows leave the search at different steps
        assert len({s.bisect_steps for s in alone if s.nu > 0.0}) > 1
    for i, (q, s) in enumerate(zip(probs, alone)):
        scale = max(float(np.linalg.norm(s.x)), 1e-300)
        assert_allclose(sols.x[i], s.x, rtol=0, atol=1e-12 * scale)
        assert_allclose(sols.nu[i], s.nu, rtol=1e-12, atol=0)
        assert sols.bisect_steps[i] == s.bisect_steps
        assert_allclose(sols.constraint[i], s.constraint, rtol=1e-12, atol=1e-12 * q.p_budget)


def test_stack_checks_name_the_failing_matrix():
    eye = np.stack([np.eye(2, dtype=complex)] * 3)
    a = np.ones((3, 2), dtype=complex)
    p = np.ones(3)
    bad = eye.copy()
    bad[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="A is not Hermitian"):
        QcqpProblem(a=a, A=bad, F=eye, p_budget=p)
    with pytest.raises(ValueError, match="F is not Hermitian"):
        QcqpProblem(a=a, A=eye, F=bad, p_budget=p)
    with pytest.raises(ValueError, match="budget"):
        QcqpProblem(a=a, A=eye, F=eye, p_budget=np.array([1.0, 0.0, 1.0]))
    neg = eye.copy()
    neg[2] = -neg[2]
    with pytest.raises(ValueError, match="semidefinite"):
        QcqpProblem(a=a, A=neg, F=eye, p_budget=p)


# -- auxiliary updates -----------------------------------------------------------

def test_update_mu_frozen_value_and_grid():
    assert update_mu(3.0, 1.0 + 1.0j, 2.0) == 1.0 + 1.0j
    rng = np.random.default_rng(11)
    re, im = np.meshgrid(np.linspace(-3, 3, 301), np.linspace(-3, 3, 301))
    mu_grid = re + 1j * im
    for _ in range(5):
        lam = float(rng.uniform(0.0, 5.0))
        tv = complex(crandn(rng))
        den = float(rng.uniform(0.5, 3.0))
        mu = update_mu(lam, tv, den)
        def f(m):
            return (-np.abs(m) ** 2 * den
                    + 2.0 * math.sqrt(1.0 + lam) * (np.conj(m) * tv).real)
        assert f(mu) >= float(f(mu_grid).max()) - 1e-9


def test_update_mu_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        update_mu(1.0, 1.0 + 0j, 0.0)
