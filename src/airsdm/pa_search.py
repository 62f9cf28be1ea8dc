"""Power-allocation search over the (eta, beta) box.

eta splits total power between the BS and the active IRS; beta splits the
BS share between the confidential beam and artificial noise.  The
searchers maximize a scalar objective f(eta, beta) over a closed box
strictly inside (0,1)^2 and report a cumulative-best trace:

* exhaustive_search - full grid scan (one trace entry per grid row),
* pso_search        - particle swarm (inertia + cognitive/social pulls),
* annealing_search  - simulated annealing with Gaussian proposals
                      reflected at the box boundary and geometric cooling,
* fixed_*           - pinned-factor baselines.

All searchers are deterministic for a fixed SearchSpec (including seed)
and never exceed the evaluation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SearchSpec",
    "SearchResult",
    "exhaustive_search",
    "pso_search",
    "annealing_search",
    "fixed_point_search",
    "fixed_eta_search",
    "fixed_beta_search",
]


@dataclass
class SearchSpec:
    """One search request: objective, box, seed, budget and method knobs."""

    objective: Callable          # f(eta, beta) -> float (arrays ok when vectorized)
    lo: float = 0.01             # box lower edge (both dimensions)
    hi: float = 0.99             # box upper edge
    seed: int = 0
    vectorized: bool = False     # objective accepts equal-shape ndarrays
    budget: int | None = None    # evaluation cap; None -> method default
    # grid scan
    grid_step: float = 0.01
    # particle swarm
    swarm: int = 30
    iterations: int = 100
    inertia: float = 0.7
    c1: float = 1.5              # cognitive pull
    c2: float = 1.5              # social pull
    velocity_clamp: float = 0.2  # max |velocity| as a fraction of the box width
    # annealing
    t0: float = 1.0
    cooling: float = 0.95
    levels: int = 100
    proposals_per_level: int = 20
    proposal_step: float = 0.05  # Gaussian proposal std

    def __post_init__(self) -> None:
        if not (0.0 < self.lo < self.hi < 1.0):
            raise ValueError(f"box must satisfy 0 < lo < hi < 1, got [{self.lo}, {self.hi}]")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class SearchResult:
    point: tuple[float, float]   # (eta, beta) of the best value found
    value: float
    evaluations: int
    trace: list[float] = field(default_factory=list)  # cumulative best


def _grid_axis(spec: SearchSpec) -> np.ndarray:
    ratio = (spec.hi - spec.lo) / spec.grid_step
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError(
            f"grid step {spec.grid_step} does not divide the box [{spec.lo}, {spec.hi}]")
    return np.linspace(spec.lo, spec.hi, int(round(ratio)) + 1)


def _eval_points(spec: SearchSpec, etas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Objective at each (etas[i], betas[i]): one call when vectorized."""
    if spec.vectorized:
        return np.asarray(spec.objective(etas, betas), dtype=float)
    return np.array([spec.objective(float(e), float(b)) for e, b in zip(etas, betas)],
                    dtype=float)


def exhaustive_search(spec: SearchSpec) -> SearchResult:
    """Full scan of the (eta, beta) grid; ties go to the smallest (eta, beta).

    The first ``min(budget, n^2)`` grid points are evaluated row-major in
    one objective call, then reduced row by row (one trace entry per row).
    """
    axis = _grid_axis(spec)
    n = axis.size
    cap = spec.budget if spec.budget is not None else n * n
    evals = min(cap, n * n)
    values = _eval_points(spec, np.repeat(axis, n)[:evals], np.tile(axis, n)[:evals])
    best_val = -math.inf
    best_pt = (float(axis[0]), float(axis[0]))
    trace: list[float] = []
    for i in range(0, evals, n):
        row = values[i:i + n]
        j = int(np.argmax(row))          # first index wins -> smallest beta
        if row[j] > best_val:            # strict -> smallest eta on ties
            best_val = float(row[j])
            best_pt = (float(axis[i // n]), float(axis[j]))
        trace.append(best_val)
    return SearchResult(best_pt, best_val, evals, trace)


def pso_search(spec: SearchSpec) -> SearchResult:
    """Particle swarm with per-dimension uniform pull factors.

    Velocity: q <- w q + c1 r1 (p_best - p) + c2 r2 (g_best - p), clamped to
    +-velocity_clamp * box width; positions are clipped to the box.
    """
    rng = np.random.default_rng(spec.seed)
    cap = spec.budget if spec.budget is not None else spec.swarm * (spec.iterations + 1)
    swarm = min(spec.swarm, cap)         # a budget below one sweep shrinks the swarm
    width = spec.hi - spec.lo
    vmax = spec.velocity_clamp * width

    pos = rng.uniform(spec.lo, spec.hi, size=(swarm, 2))
    vel = np.zeros((swarm, 2))

    vals = _eval_points(spec, pos[:, 0], pos[:, 1])
    evals = pos.shape[0]
    pbest = pos.copy()
    pbest_val = vals.copy()
    g = int(np.argmax(vals))
    gbest = pos[g].copy()
    gbest_val = float(vals[g])
    trace = [gbest_val]

    for _ in range(spec.iterations):
        if evals + swarm > cap:
            break
        r1 = rng.uniform(size=(swarm, 2))
        r2 = rng.uniform(size=(swarm, 2))
        vel = (spec.inertia * vel
               + spec.c1 * r1 * (pbest - pos)
               + spec.c2 * r2 * (gbest[None, :] - pos))
        np.clip(vel, -vmax, vmax, out=vel)
        pos = np.clip(pos + vel, spec.lo, spec.hi)
        vals = _eval_points(spec, pos[:, 0], pos[:, 1])
        evals += swarm
        better = vals > pbest_val
        pbest[better] = pos[better]
        pbest_val[better] = vals[better]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest = pbest[g].copy()
        trace.append(gbest_val)
    return SearchResult((float(gbest[0]), float(gbest[1])), gbest_val, evals, trace)


def _reflect(x: float, lo: float, hi: float) -> float:
    """Fold a scalar back into [lo, hi] by reflection at the edges."""
    width = hi - lo
    y = (x - lo) % (2.0 * width)
    if y > width:
        y = 2.0 * width - y
    return lo + y


def annealing_search(spec: SearchSpec) -> SearchResult:
    """Simulated annealing; worse moves accepted with prob exp(-loss/T).

    The Metropolis test runs on the negated objective (maximization), with
    Gaussian proposals reflected at the box boundary and T shrunk by the
    cooling factor after each temperature level.
    """
    rng = np.random.default_rng(spec.seed)
    cap = spec.budget if spec.budget is not None else spec.levels * spec.proposals_per_level + 1
    lo, hi = spec.lo, spec.hi
    z_eta, z_beta = rng.uniform(lo, hi, size=2).tolist()
    fz = float(spec.objective(z_eta, z_beta))
    evals = 1
    best = (z_eta, z_beta)
    best_val = fz
    trace: list[float] = []
    temp = spec.t0

    for _ in range(spec.levels):
        for _ in range(spec.proposals_per_level):
            if evals >= cap:
                break
            step_eta, step_beta = rng.normal(0.0, spec.proposal_step, size=2).tolist()
            eta = _reflect(z_eta + step_eta, lo, hi)
            beta = _reflect(z_beta + step_beta, lo, hi)
            fc = float(spec.objective(eta, beta))
            evals += 1
            loss = fz - fc               # energy increase of the move
            if loss <= 0.0 or rng.uniform() < math.exp(-loss / temp):
                z_eta, z_beta, fz = eta, beta, fc
            if fc > best_val:
                best_val = fc
                best = (eta, beta)
        trace.append(best_val)
        temp *= spec.cooling
        if evals >= cap:
            break
    return SearchResult(best, best_val, evals, trace)


def fixed_point_search(spec: SearchSpec, eta: float = 0.5, beta: float = 0.5) -> SearchResult:
    """Baseline: no search, evaluate the pinned (eta, beta) only."""
    val = float(spec.objective(eta, beta))
    return SearchResult((eta, beta), val, 1, [val])


def fixed_eta_search(spec: SearchSpec, eta: float = 0.5) -> SearchResult:
    """Baseline: eta pinned, beta scanned on the grid (first ``budget`` points)."""
    axis = _grid_axis(spec)[:spec.budget]
    row = _eval_points(spec, np.full(axis.size, eta), axis)
    j = int(np.argmax(row))
    return SearchResult((eta, float(axis[j])), float(row[j]), axis.size,
                        list(np.maximum.accumulate(row)))


def fixed_beta_search(spec: SearchSpec, beta: float = 0.5) -> SearchResult:
    """Baseline: beta pinned, eta scanned on the grid (first ``budget`` points)."""
    axis = _grid_axis(spec)[:spec.budget]
    col = _eval_points(spec, axis, np.full(axis.size, beta))
    j = int(np.argmax(col))
    return SearchResult((float(axis[j]), beta), float(col[j]), axis.size,
                        list(np.maximum.accumulate(col)))
