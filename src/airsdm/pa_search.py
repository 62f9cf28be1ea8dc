"""Power-allocation search over the (eta, beta) box.

eta splits total power between the BS and the active IRS; beta splits the
BS share between the confidential beam and artificial noise.  The
searchers maximize a scalar objective f(eta, beta) over a closed box
strictly inside (0,1)^2 and report the best point, its value and the
number of evaluations:

* exhaustive_search - full grid scan,
* pso_search        - particle swarm (inertia + cognitive/social pulls),
* annealing_search  - simulated annealing with Gaussian proposals
                      reflected at the box boundary and geometric cooling,
                      its random numbers drawn up front by ``_stream`` (one
                      call each for the cold start, the steps and the
                      Metropolis uniforms), which the array chain reads too,
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

``search_stack(searcher, objective, seeds, starts)`` searches every row
of a stacked objective (``PaScalarContext.stack``: one seed per row) and
returns what the row-by-row calls return, bit for bit.  PSO runs its
swarms as one stack, one objective call per sweep for all rows; SA runs
a stack of at least ``ARRAY_CHAINS`` rows as one array chain, one
objective call per proposal for all rows; the other searchers, and SA on
a smaller stack, run one row at a time.  Each result's ``seconds`` is its
row's own search time, or its even share of the stacked search's.

One pick rule holds everywhere: a NaN value counts as -inf, so it never
wins a comparison (a best, a personal or global best, a Metropolis test).
A result's value is -inf only when every candidate scored NaN.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SearchResult",
    "exhaustive_search",
    "pso_search",
    "annealing_search",
    "search_stack",
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
# Rows from which search_stack runs SA as one array chain.  An array chain
# step costs about the same at any S, the float chains S float steps; they
# cross at 28 rows (see README), where both read each row's draws from
# _stream and the array chain holds them, 48 KB per row, for its search.
ARRAY_CHAINS = 28


@dataclass
class SearchResult:
    point: tuple[float, float]   # (eta, beta) of the best value found
    value: float                 # -inf when every candidate scored NaN
    evaluations: int
    # the search's wall time when search_stack ran it: a row's own search,
    # or its even share of a stacked swarm (0.0 from a direct call)
    seconds: float = field(default=0.0, compare=False)


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
    """Objective values at the candidate arrays, NaN counted as -inf."""
    values = np.asarray(objective(etas, betas), dtype=float)
    return np.where(np.isnan(values), -np.inf, values)


def _value(objective: Callable, eta: float, beta: float) -> float:
    """Objective value at one float candidate, NaN counted as -inf."""
    value = float(objective(eta, beta))
    return -math.inf if math.isnan(value) else value


def _scan(objective: Callable, etas: np.ndarray, betas: np.ndarray) -> SearchResult:
    """Evaluate every candidate in one objective call; the first best one wins."""
    values = _values(objective, etas, betas)
    j = int(np.argmax(values))
    return SearchResult((float(etas[j]), float(betas[j])), float(values[j]), values.size)


def exhaustive_search(objective: Callable, seed: int = 0,
                      start: tuple[float, float] | None = None) -> SearchResult:
    """Full scan of the (eta, beta) grid; ties go to the smallest (eta, beta).

    The grid is evaluated row-major (eta outer) in one objective call.
    ``seed`` and ``start`` are unused.
    """
    _check_start(start)
    return _scan(objective, np.repeat(GRID, GRID.size), np.tile(GRID, GRID.size))


def pso_search(objective: Callable, seed: int = 0,
               start: tuple[float, float] | None = None) -> SearchResult:
    """Particle swarm with per-dimension uniform pull factors.

    Velocity: q <- w q + c1 r1 (p_best - p) + c2 r2 (g_best - p), clamped to
    +-VMAX; positions are clipped to the box.  ``start`` is unused.
    """
    _check_start(start)
    return _swarms(lambda etas, betas: _values(objective, etas[0], betas[0])[None], [seed])[0]


def _swarms(values: Callable, seeds: list[int]) -> list[SearchResult]:
    """One particle swarm per seed, stacked on a leading axis.

    ``values(etas, betas)`` scores two (S, SWARM) position arrays, NaN
    already counted as -inf, so every sweep makes one call for all swarms.
    Each swarm draws its start, then r1 and r2 per sweep, from its own
    generator, and all updates are elementwise or per row, so swarm i
    follows the same path as a swarm searched alone with ``seeds[i]``.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(len(rngs))
    pos = np.stack([rng.uniform(LO, HI, size=(SWARM, 2)) for rng in rngs])
    vel = np.zeros_like(pos)

    vals = values(pos[..., 0], pos[..., 1])
    pbest = pos.copy()
    pbest_val = vals.copy()
    g = np.argmax(vals, axis=1)
    gbest = pos[rows, g]
    gbest_val = vals[rows, g]

    for _ in range(SWEEPS):
        # r1 then r2 in one draw: the same stream words as two draws
        r = np.stack([rng.random((2, SWARM, 2)) for rng in rngs])
        vel = (INERTIA * vel
               + C1 * r[:, 0] * (pbest - pos)
               + C2 * r[:, 1] * (gbest[:, None, :] - pos))
        np.clip(vel, -VMAX, VMAX, out=vel)
        pos = np.clip(pos + vel, LO, HI)
        vals = values(pos[..., 0], pos[..., 1])
        better = vals > pbest_val
        pbest[better] = pos[better]
        pbest_val[better] = vals[better]
        g = np.argmax(pbest_val, axis=1)
        won = pbest_val[rows, g] > gbest_val
        gbest_val[won] = pbest_val[rows, g][won]
        gbest[won] = pbest[rows, g][won]
    return [SearchResult((float(eta), float(beta)), float(val), SWARM * (SWEEPS + 1))
            for (eta, beta), val in zip(gbest, gbest_val)]


def search_stack(searcher: Callable, objective, seeds: list[int],
                 starts: list) -> list[SearchResult]:
    """Run ``searcher`` on every row of a stacked objective.

    ``objective`` scores two (S, K) arrays row by row and ``objective[i]``
    is its row i, a one-row objective (``PaScalarContext.stack`` gives
    both).  Result i is bit for bit ``searcher(objective[i], seeds[i],
    start=starts[i])``.  PSO runs its swarms as one stack, one objective
    call per sweep for all rows.  SA runs as one array chain, one
    objective call per proposal for all rows, once S >= ``ARRAY_CHAINS``;
    on fewer rows its float chains are cheaper.  Every other searcher runs
    row by row, as a stacked grid scan holds S times the grid in memory.
    Each result's ``seconds`` is its row's own search time, or for a
    stacked search an even share of the stack's.
    """
    if len(starts) != len(seeds):
        raise ValueError(f"need one start per seed, got {len(starts)} for {len(seeds)}")
    if searcher is pso_search or (searcher is annealing_search
                                  and len(seeds) >= ARRAY_CHAINS):
        starts = [_check_start(start) for start in starts]
        t0 = time.perf_counter()
        if searcher is pso_search:
            results = _swarms(lambda etas, betas: _values(objective, etas, betas), seeds)
        else:
            results = _chains(objective, seeds, starts)
        share = (time.perf_counter() - t0) / len(seeds)
        for res in results:
            res.seconds = share
        return results
    results = []
    for i, (seed, start) in enumerate(zip(seeds, starts)):
        t0 = time.perf_counter()
        res = searcher(objective[i], seed, start=start)
        res.seconds = time.perf_counter() - t0
        results.append(res)
    return results


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

    ``_stream`` reads ``default_rng(seed)`` in this order: the uniform
    start (cold start only), every Gaussian step as one
    ``(LEVELS, PROPOSALS, 2)`` normal draw, then every Metropolis uniform
    as one ``(LEVELS, PROPOSALS)`` draw.  Proposal k's uniform is used only
    when move k is worse, so each search draws the same amount whatever
    the objective.
    """
    (z_eta, z_beta), steps, draws = _stream(seed, _check_start(start))
    fz = _value(objective, z_eta, z_beta)
    best = (z_eta, z_beta)
    best_val = fz
    temp = T0

    for level_steps, level_draws in zip(steps.tolist(), draws.tolist()):
        for (step_eta, step_beta), draw in zip(level_steps, level_draws):
            eta = _reflect(z_eta + step_eta)
            beta = _reflect(z_beta + step_beta)
            fc = _value(objective, eta, beta)
            loss = fz - fc               # energy increase; NaN (rejected) if both -inf
            if loss <= 0.0 or draw < math.exp(-loss / temp):
                z_eta, z_beta, fz = eta, beta, fc
            if fc > best_val:
                best_val = fc
                best = (eta, beta)
        temp *= COOLING
    return SearchResult(best, best_val, LEVELS * PROPOSALS + 1)


def _stream(seed: int, start: tuple[float, float] | None
            ) -> tuple[tuple[float, float], np.ndarray, np.ndarray]:
    """An SA search's start point, its ``(LEVELS, PROPOSALS, 2)`` Gaussian
    steps and its ``(LEVELS, PROPOSALS)`` Metropolis uniforms, read from
    ``default_rng(seed)`` in that order; the start is a uniform draw from
    the box when ``start`` is None, else ``start`` itself (no draw)."""
    rng = np.random.default_rng(seed)
    point = tuple(rng.uniform(LO, HI, size=2).tolist()) if start is None else start
    return point, rng.normal(0.0, STEP, (LEVELS, PROPOSALS, 2)), rng.random((LEVELS, PROPOSALS))


def _chains(objective, seeds: list[int],
            starts: list[tuple[float, float] | None]) -> list[SearchResult]:
    """One annealing chain per row, advanced together as arrays.

    Row i is ``annealing_search(objective[i], seeds[i], start=starts[i])``
    bit for bit: ``_stream`` gives its start, steps and uniforms, stored
    on a trailing row axis, so the chain holds 48 KB of draws per row.
    Start values are scored on each row's float path, proposals with one
    stacked call per proposal on contiguous (S, 1) columns of eta and beta.
    """
    points = np.empty((len(seeds), 2))
    steps = np.empty((LEVELS, PROPOSALS, 2, len(seeds)))
    draws = np.empty((LEVELS, PROPOSALS, len(seeds)))
    for i, (seed, start) in enumerate(zip(seeds, starts)):
        points[i], steps[..., i], draws[..., i] = _stream(seed, start)
    fz = np.array([[_value(objective[i], *point)] for i, point in enumerate(points.tolist())])
    z = np.ascontiguousarray(points.T[..., None])   # (2, S, 1): eta and beta columns
    best, best_val = z.copy(), fz.copy()
    temp = T0
    for level_steps, level_draws in zip(steps[..., None], draws[..., None]):
        for step, draw in zip(level_steps, level_draws):
            cand = _reflect_array(z + step)
            fc = _values(objective, cand[0], cand[1])
            take = _metropolis(fz, fc, draw, temp)
            np.copyto(z, cand, where=take)
            np.copyto(fz, fc, where=take)
            better = fc > best_val
            np.copyto(best, cand, where=better)
            np.copyto(best_val, fc, where=better)
        temp *= COOLING
    return [SearchResult((eta, beta), val, LEVELS * PROPOSALS + 1)
            for eta, beta, val in zip(best[0, :, 0].tolist(), best[1, :, 0].tolist(),
                                      best_val[:, 0].tolist())]


def _reflect_array(x: np.ndarray) -> np.ndarray:
    """``_reflect`` elementwise: np.remainder is Python's float %, and the
    smaller of y and 2 * width - y is y reflected at width."""
    width = HI - LO
    y = np.remainder(x - LO, 2.0 * width)
    return LO + np.minimum(y, 2.0 * width - y)


def _metropolis(fz: np.ndarray, fc: np.ndarray, draw: np.ndarray,
                temp: float) -> np.ndarray:
    """Where the float chain moves from value ``fz`` to ``fc``: its
    ``loss <= 0.0 or draw < math.exp(-loss / temp)`` with ``loss = fz - fc``
    (NaN, and so rejected, when both are -inf); ``fc - fz`` is ``-loss``
    bit for bit.  ``np.exp`` can differ from ``math.exp`` in the last bit,
    so a row whose draw lies within 2 ulps of ``np.exp`` is decided with
    ``math.exp``."""
    with np.errstate(invalid="ignore", over="ignore"):
        gain = fc - fz
        p = np.exp(gain / temp)
        below = draw - p
        take = (gain >= 0.0) | (below < 0.0)
        close = np.abs(below) <= 2.0 * np.spacing(p)
    for i in close.ravel().nonzero()[0]:
        loss = float(fz.flat[i] - fc.flat[i])
        take.flat[i] = loss <= 0.0 or float(draw.flat[i]) < math.exp(-loss / temp)
    return take


def fixed_point_search(objective: Callable, seed: int = 0,
                       start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: no search, evaluate the pinned (eta, beta) only."""
    _check_start(start)
    # one candidate: the float path is an order of magnitude cheaper than _scan
    return SearchResult((PIN, PIN), _value(objective, PIN, PIN), 1)


def fixed_eta_search(objective: Callable, seed: int = 0,
                     start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: eta pinned, beta scanned on the grid axis."""
    _check_start(start)
    return _scan(objective, np.full(GRID.size, PIN), GRID)


def fixed_beta_search(objective: Callable, seed: int = 0,
                      start: tuple[float, float] | None = None) -> SearchResult:
    """Baseline: beta pinned, eta scanned on the grid axis."""
    _check_start(start)
    return _scan(objective, GRID, np.full(GRID.size, PIN))
