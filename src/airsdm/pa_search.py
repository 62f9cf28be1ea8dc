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

Every searcher is called as ``searcher(objective, seed, start=None)``.  The
objective takes two equal-shape float arrays and returns the values
elementwise, or two Python floats and returns one value, as
``PaScalarContext`` does.  ``start`` is an optional warm-start point, a
finite (eta, beta) pair inside the box; only annealing uses it (its chain
begins there instead of at a uniform draw), the others check it and
ignore it.  The box, grid, swarm and annealing settings are the module
constants below; all searchers are deterministic for a fixed objective,
seed and start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SearchResult",
    "exhaustive_search",
    "pso_search",
    "annealing_search",
    "fixed_point_search",
    "fixed_eta_search",
    "fixed_beta_search",
]

LO, HI = 0.01, 0.99                 # box edges (both dimensions)
GRID = np.linspace(LO, HI, 99)      # grid axis, step 0.01
PIN = 0.5                           # pinned factor of the fixed_* baselines
# particle swarm
SWARM = 30
SWEEPS = 100
INERTIA = 0.7
C1 = 1.5                            # cognitive pull
C2 = 1.5                            # social pull
VMAX = 0.2 * (HI - LO)              # max |velocity| per dimension
# annealing
T0 = 1.0
COOLING = 0.95
LEVELS = 100
PROPOSALS = 20                      # proposals per temperature level
STEP = 0.05                         # Gaussian proposal std


@dataclass
class SearchResult:
    point: tuple[float, float]   # (eta, beta) of the best value found
    value: float
    evaluations: int
    trace: list[float] = field(default_factory=list)  # cumulative best


def _check_start(start: tuple[float, float] | None) -> tuple[float, float] | None:
    """The warm-start point as two floats; ValueError unless inside the box."""
    if start is None:
        return None
    try:
        eta, beta = (float(x) for x in start)
    except (TypeError, ValueError):
        raise ValueError(f"start must be an (eta, beta) pair, got {start!r}") from None
    if not (LO <= eta <= HI and LO <= beta <= HI):   # also rejects NaN
        raise ValueError(f"start must lie in [{LO}, {HI}]^2, got {start!r}")
    return eta, beta


def _values(objective: Callable, etas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    return np.asarray(objective(etas, betas), dtype=float)


def exhaustive_search(objective: Callable, seed: int = 0,
                      start: tuple[float, float] | None = None) -> SearchResult:
    """Full scan of the (eta, beta) grid; ties go to the smallest (eta, beta).

    All grid points are evaluated row-major in one objective call, then
    reduced row by row (one trace entry per row).  ``seed`` and ``start``
    are unused.
    """
    _check_start(start)
    n = GRID.size
    values = _values(objective, np.repeat(GRID, n), np.tile(GRID, n))
    best_val = -math.inf
    best_pt = (float(GRID[0]), float(GRID[0]))
    trace: list[float] = []
    for i, row in enumerate(values.reshape(n, n)):
        j = int(np.argmax(row))          # first index wins -> smallest beta
        if row[j] > best_val:            # strict -> smallest eta on ties
            best_val = float(row[j])
            best_pt = (float(GRID[i]), float(GRID[j]))
        trace.append(best_val)
    return SearchResult(best_pt, best_val, n * n, trace)


def pso_search(objective: Callable, seed: int = 0,
               start: tuple[float, float] | None = None) -> SearchResult:
    """Particle swarm with per-dimension uniform pull factors.

    Velocity: q <- w q + c1 r1 (p_best - p) + c2 r2 (g_best - p), clamped to
    +-VMAX; positions are clipped to the box.  ``start`` is unused.
    """
    _check_start(start)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(LO, HI, size=(SWARM, 2))
    vel = np.zeros((SWARM, 2))

    vals = _values(objective, pos[:, 0], pos[:, 1])
    pbest = pos.copy()
    pbest_val = vals.copy()
    g = int(np.argmax(vals))
    gbest = pos[g].copy()
    gbest_val = float(vals[g])
    trace = [gbest_val]

    for _ in range(SWEEPS):
        r1 = rng.uniform(size=(SWARM, 2))
        r2 = rng.uniform(size=(SWARM, 2))
        vel = (INERTIA * vel
               + C1 * r1 * (pbest - pos)
               + C2 * r2 * (gbest[None, :] - pos))
        np.clip(vel, -VMAX, VMAX, out=vel)
        pos = np.clip(pos + vel, LO, HI)
        vals = _values(objective, pos[:, 0], pos[:, 1])
        better = vals > pbest_val
        pbest[better] = pos[better]
        pbest_val[better] = vals[better]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest = pbest[g].copy()
        trace.append(gbest_val)
    return SearchResult((float(gbest[0]), float(gbest[1])), gbest_val,
                        SWARM * (SWEEPS + 1), trace)


def _reflect(x: float) -> float:
    """Fold a scalar back into [LO, HI] by reflection at the edges."""
    width = HI - LO
    y = (x - LO) % (2.0 * width)
    if y > width:
        y = 2.0 * width - y
    return LO + y


def annealing_search(objective: Callable, seed: int = 0,
                     start: tuple[float, float] | None = None) -> SearchResult:
    """Simulated annealing; worse moves accepted with prob exp(-loss/T).

    The Metropolis test runs on the negated objective (maximization), with
    Gaussian proposals reflected at the box boundary and T shrunk by the
    cooling factor after each temperature level.  The chain and the best
    so far begin at ``start``, scored under ``objective``, or at a uniform
    draw from the box when ``start`` is None.
    """
    rng = np.random.default_rng(seed)
    z = _check_start(start)
    z_eta, z_beta = rng.uniform(LO, HI, size=2).tolist() if z is None else z
    fz = float(objective(z_eta, z_beta))
    best = (z_eta, z_beta)
    best_val = fz
    trace: list[float] = []
    temp = T0

    for _ in range(LEVELS):
        for _ in range(PROPOSALS):
            step_eta, step_beta = rng.normal(0.0, STEP, size=2).tolist()
            eta = _reflect(z_eta + step_eta)
            beta = _reflect(z_beta + step_beta)
            fc = float(objective(eta, beta))
            loss = fz - fc               # energy increase of the move
            if loss <= 0.0 or rng.uniform() < math.exp(-loss / temp):
                z_eta, z_beta, fz = eta, beta, fc
            if fc > best_val:
                best_val = fc
                best = (eta, beta)
        trace.append(best_val)
        temp *= COOLING
    return SearchResult(best, best_val, LEVELS * PROPOSALS + 1, trace)


def fixed_point_search(objective: Callable, seed: int = 0,
                       start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: no search, evaluate the pinned (eta, beta) only."""
    _check_start(start)
    val = float(objective(PIN, PIN))
    return SearchResult((PIN, PIN), val, 1, [val])


def fixed_eta_search(objective: Callable, seed: int = 0,
                     start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: eta pinned, beta scanned on the grid axis."""
    _check_start(start)
    row = _values(objective, np.full(GRID.size, PIN), GRID)
    j = int(np.argmax(row))
    return SearchResult((PIN, float(GRID[j])), float(row[j]), GRID.size,
                        list(np.maximum.accumulate(row)))


def fixed_beta_search(objective: Callable, seed: int = 0,
                      start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: beta pinned, eta scanned on the grid axis."""
    _check_start(start)
    col = _values(objective, GRID, np.full(GRID.size, PIN))
    j = int(np.argmax(col))
    return SearchResult((float(GRID[j]), PIN), float(col[j]), GRID.size,
                        list(np.maximum.accumulate(col)))
