"""Batch experiment driver: sweeps, method dispatch, result tables.

An :class:`ExperimentSpec` names a scene, one sweep axis, a set of methods
and a seed list; :func:`run_experiment` runs every (sweep value, method,
seed) cell and returns sorted :class:`ResultRow` records.  Each method is
one record of a table: the channels it runs on, its stacked runner and
whether it reads the run seed.  Every cell of a method runs in one call
to that runner, which computes each distinct input once: one channel set
per distinct scene, and for a method that reads no seed one run per
distinct (channels, power).  If the call fails, each of its runs reruns
alone, and the cells of a run that still fails become flagged rows
instead of aborting the batch.  Tables are emitted
as CSV (schema versioned in a header comment) and/or JSON, both of which
round-trip losslessly through the matching readers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .scene import SceneConfig, _finite, _integer, build_channels, dbm_to_watts
from .model import Design, NoiseProfile, secrecy_rate
# run_ldt_cffp, run_nsp_mrr_pa: not called here; kept as module globals that traced runs wrap
from .ldt_cffp import run_ldt_cffp, run_ldt_cffp_seeds
from .nsp_mrr import (
    PaScalarContext,
    blocked_secrecy_rate,
    run_nsp_mrr_pa,
    run_nsp_mrr_pa_seeds,
)
from .pa_search import (
    annealing_search,
    exhaustive_search,
    fixed_beta_search,
    fixed_eta_search,
    fixed_point_search,
    pso_search,
)
from .trace import RunTrace

__all__ = [
    "METHODS",
    "SWEEP_KINDS",
    "SweepSpec",
    "ExperimentSpec",
    "ResultRow",
    "run_point",
    "run_experiment",
    "emit_results",
    "read_results_csv",
    "read_results_json",
]

SWEEP_KINDS = ("n_elements", "total_power_dbm", "n1", "n2", "pa_grid")
_FORMATS = ("csv", "json")


# --- methods: one record each ----------------------------------------------

class _Method(NamedTuple):
    """The channels a method runs on, its stacked runner, which calls the
    optimizers through this module's globals (traced runs and tests patch
    them), and whether its result depends on the run seed."""

    blocked: bool                   # the blocked channels, else the monolithic ones
    run: Callable[..., list]        # (chs, noise, powers, seeds, keep_rows) -> [(design, trace)]
    reads_seed: bool = True         # else one run per distinct (channels, power)


def _run_ldt_cffp(chs, noise, powers, seeds, keep_rows):
    """An ``ldt-cffp`` stack shares N and the power: one stack per run of
    consecutive cells that share both."""
    runs = []
    cells = zip(chs, powers, seeds)
    for (_, p_max), part in itertools.groupby(cells, key=lambda c: (c[0].g_b.size, c[1])):
        part_chs, _, part_seeds = zip(*part)
        runs += run_ldt_cffp_seeds(list(part_chs), noise, p_max, list(part_seeds), keep_rows)
    return runs


def _run_blocked(searcher, bchs, noise, powers, seeds, keep_rows):
    """A blocked stack may hold any cells, each at its own power."""
    return run_nsp_mrr_pa_seeds(bchs, noise, powers, searcher, seeds)


def _zero_reflection_design(ch, p_watts: float) -> tuple[Design, list[str]]:
    """No-IRS baseline: matched CM beam, AN beam nulled at Bob, half power each."""
    flags: list[str] = []
    h_b, h_e = ch.h_b, ch.h_e
    v_b = math.sqrt(p_watts / 2.0) * h_b / np.linalg.norm(h_b)
    resid = h_e - (np.vdot(h_b, h_e) / np.vdot(h_b, h_b)) * h_b
    nrm = float(np.linalg.norm(resid))
    if nrm > 1e-12 * float(np.linalg.norm(h_e)):
        v_e = math.sqrt(p_watts / 2.0) * resid / nrm
    else:
        v_e = np.zeros_like(h_e)
        flags.append("zero-reflection-degenerate")
    theta = np.zeros(ch.H_si.shape[0], dtype=complex)
    return Design(v_b=v_b, v_e=v_e, theta=theta), flags


def _run_zero_reflection(chs, noise, powers, seeds, keep_rows):
    """The closed-form baseline, one design per (channels, power) it is
    given: no iterations, no trace rows."""
    t0 = time.perf_counter()
    designs = [_zero_reflection_design(ch, p_watts) for ch, p_watts in zip(chs, powers)]
    share = max((time.perf_counter() - t0) / len(designs), 1e-9)
    return [(d, RunTrace(iterations=0, flags=flags, wall_time_s=share)) for d, flags in designs]


_TABLE = {
    # monolithic-IRS surrogate ascent from a random start
    "ldt-cffp": _Method(False, _run_ldt_cffp, reads_seed=True),
    # the blocked pipeline per split searcher; fixed-* pin eta, beta or both at
    # 0.5; only the stochastic searchers (PSO, SA) read the seed
    "nsp-mrr-pa/ES": _Method(True, partial(_run_blocked, exhaustive_search), reads_seed=False),
    "nsp-mrr-pa/PSO": _Method(True, partial(_run_blocked, pso_search), reads_seed=True),
    "nsp-mrr-pa/SA": _Method(True, partial(_run_blocked, annealing_search), reads_seed=True),
    "fixed-eta": _Method(True, partial(_run_blocked, fixed_eta_search), reads_seed=False),
    "fixed-beta": _Method(True, partial(_run_blocked, fixed_beta_search), reads_seed=False),
    "fixed-both": _Method(True, partial(_run_blocked, fixed_point_search), reads_seed=False),
    # no IRS; AN nulled at Bob
    "zero-reflection": _Method(False, _run_zero_reflection, reads_seed=False),
}

METHODS = tuple(_TABLE)


def _names(names, what: str, known: tuple) -> list[str]:
    """``names`` as a list; ValueError unless it is a non-empty list of
    distinct names from ``known``."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"{what}s must be a non-empty list, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in known:
            raise ValueError(f"unknown {what} {name!r}; expected one of {known}")
    if len(set(names)) != len(names):
        raise ValueError(f"{what}s must be distinct, got {names!r}")
    return list(names)


@dataclass
class SweepSpec:
    """One sweep axis: what varies between experiment points.

    ``n_elements`` varies the monolithic element count N (blocked methods
    get N1 = N2 = N/2); ``n1``/``n2`` vary one block; ``total_power_dbm``
    varies the power budget; ``pa_grid`` scores the converged design moved
    to each of explicit (eta, beta) pairs.
    """

    kind: str
    values: list

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; expected one of {SWEEP_KINDS}")
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise ValueError(f"sweep values must be a non-empty list, got {self.values!r}")
        if self.kind in ("n_elements", "n1", "n2"):
            values = [_integer(v, f"{self.kind} values") for v in self.values]
            if any(v < 1 for v in values):
                raise ValueError(f"{self.kind} values must be positive integers, got {self.values!r}")
            if self.kind == "n_elements" and any(v % 2 for v in values):
                raise ValueError("n_elements values must be even (blocked methods split N in half)")
            self.values = values
        elif self.kind == "pa_grid":
            pairs = []
            for v in self.values:
                try:
                    e, b = (float(x) for x in v)
                except (TypeError, ValueError):
                    raise ValueError(f"pa_grid values must be (eta, beta) pairs, got {v!r}") from None
                if not (0.0 < e < 1.0 and 0.0 < b < 1.0):   # also rejects NaN
                    raise ValueError(f"pa_grid pairs must lie in (0, 1)^2, got {v!r}")
                pairs.append((e, b))
            self.values = pairs
        else:
            self.values = [_finite(v, f"{self.kind} values") for v in self.values]
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"{self.kind} values must be distinct, got {self.values!r}")

    def to_dict(self) -> dict:
        values = [list(v) if isinstance(v, tuple) else v for v in self.values]
        return {"kind": self.kind, "values": values}


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one batch of runs."""

    sweep: SweepSpec
    methods: list[str]
    scene: SceneConfig = field(default_factory=SceneConfig)
    power_dbm: float = 20.0      # operating power when the sweep is not over power
    noise_dbm: float = -70.0     # per-receiver and per-element noise power
    seeds: list[int] = field(default_factory=lambda: list(range(1, 21)))
    out: str | None = None       # output path stem for emit_results
    formats: list[str] = field(default_factory=lambda: ["csv"])

    def __post_init__(self) -> None:
        if isinstance(self.sweep, dict):
            if set(self.sweep) != {"kind", "values"}:
                raise ValueError(f"sweep needs exactly 'kind' and 'values', got {sorted(self.sweep)}")
            self.sweep = SweepSpec(**self.sweep)
        if not isinstance(self.sweep, SweepSpec):
            raise ValueError(f"sweep must be an object of 'kind' and 'values', got {self.sweep!r}")
        if isinstance(self.scene, dict):
            self.scene = SceneConfig.from_dict(self.scene)
        if not isinstance(self.scene, SceneConfig):
            raise ValueError(f"scene must be an object of scene keys, got {self.scene!r}")
        self.methods = _names(self.methods, "method", tuple(_TABLE))
        self.power_dbm = _finite(self.power_dbm, "power_dbm")
        self.noise_dbm = _finite(self.noise_dbm, "noise_dbm")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ValueError(f"seeds must be a non-empty list, got {self.seeds!r}")
        self.seeds = [_integer(s, "seeds") for s in self.seeds]
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        # run seeds seed the optimizers' generators; a Rician scene draws its
        # channels with scene.seed + run seed (see _scene_at)
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.scene.rician_k_db is not None and self.scene.seed + min(self.seeds) < 0:
            raise ValueError(f"scene.seed + run seed must be non-negative on a Rician "
                             f"scene, got {self.scene.seed} + {min(self.seeds)}")
        self.formats = _names(self.formats, "format", _FORMATS)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path stem, got {self.out!r}")
        if self.sweep.kind == "pa_grid":
            bad = [m for m in self.methods if not _TABLE[m].blocked]
            if bad:
                raise ValueError(f"pa_grid sweeps need power-split methods, not {bad}")

    def to_dict(self) -> dict:
        return {
            "sweep": self.sweep.to_dict(),
            "methods": list(self.methods),
            "scene": self.scene.to_dict(),
            "power_dbm": self.power_dbm,
            "noise_dbm": self.noise_dbm,
            "seeds": list(self.seeds),
            "out": self.out,
            "formats": list(self.formats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        # "workers" named a thread pool that no longer exists; old spec files still load
        data = {k: v for k, v in data.items() if k != "workers"}
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment fields: {sorted(unknown)}")
        if "sweep" not in data or "methods" not in data:
            raise ValueError("experiment spec needs 'sweep' and 'methods'")
        return cls(**data)

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read experiment spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in experiment spec {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class ResultRow:
    """One completed (or failed, flagged) run."""

    method: str
    sweep_name: str
    sweep_value: int | float | tuple[float, float]   # a pair for pa_grid
    seed: int
    sr_bits: float
    iterations: int
    wall_time_s: float
    flags: list[str] = field(default_factory=list)
    eta: float | None = None
    beta: float | None = None


def _noise_profile(spec: ExperimentSpec) -> NoiseProfile:
    w = dbm_to_watts(spec.noise_dbm)
    return NoiseProfile(sigma2_irs=w, sigma2_b=w, sigma2_e=w)


def _scene_at(spec: ExperimentSpec, value, seed: int) -> tuple[SceneConfig, float]:
    """Scene and power (watts) for one sweep point.

    The run seed is folded into the channel seed so Rician scenes draw a
    fresh realization per seed; pure-LoS scenes ignore it.
    """
    cfg = spec.scene
    power_dbm = spec.power_dbm
    kind = spec.sweep.kind
    if kind == "n_elements":
        cfg = replace(cfg, n_irs=value, n1=value // 2, n2=value - value // 2)
    elif kind == "n1":
        cfg = replace(cfg, n1=value, n_irs=value + cfg.n2)
    elif kind == "n2":
        cfg = replace(cfg, n2=value, n_irs=cfg.n1 + value)
    elif kind == "total_power_dbm":
        power_dbm = value
    cfg = replace(cfg, seed=cfg.seed + seed)
    return cfg, dbm_to_watts(power_dbm)


def run_point(spec: ExperimentSpec, value, method: str, seed: int,
              ) -> tuple[ResultRow, RunTrace]:
    """Run one (sweep value, method, seed) cell of a non-pa_grid spec.

    Returns its row and its runner's trace with the per-iteration rows
    (none, and 0 iterations, for the closed-form ``zero-reflection``).
    Errors propagate to the caller.
    """
    rows, traces = _run_seeds(spec, method, [(value, seed)], keep_rows=True)
    return rows[0], traces[0]


def _channel_key(cfg: SceneConfig) -> str:
    """What the channels of ``cfg`` depend on: ``build_channels`` reads the
    seed only on a Rician scene."""
    if cfg.rician_k_db is None:
        cfg = replace(cfg, seed=0)
    return repr(cfg)


def _cell_input(spec: ExperimentSpec, method: str, i: int, cell: tuple,
                ) -> tuple[SceneConfig, str, float, object]:
    """Cell i's scene, channel key, power (watts) and run key: the cell's
    index for a method that reads the seed, else its (channels, power)."""
    cfg, p = _scene_at(spec, *cell)
    key = _channel_key(cfg)
    return cfg, key, p, (i if _TABLE[method].reads_seed else (key, p))


def _run_seeds(spec: ExperimentSpec, method: str, cells: list[tuple],
               keep_rows: bool = False) -> tuple[list[ResultRow], list[RunTrace]]:
    """Run the (sweep value, seed) cells of one method through its runner.

    Builds the channels of the method's kind once per distinct scene (a
    pure-LoS scene is one scene for every seed), calls the runner once
    and returns each cell's row and trace; ``keep_rows`` keeps the
    per-iteration rows of ``ldt-cffp`` traces.  The runner gets one row
    per cell, or for a method that reads no seed one row per distinct
    (channels, power), whose design every cell of it shares; each such
    cell gets its own copy of the run's trace with an even share of its
    ``wall_time_s``.  Each run's design is scored once: a blocked row
    with ``blocked_secrecy_rate``, carrying its design's (eta, beta), a
    monolithic row with ``secrecy_rate``.  Under ``pa_grid`` (value None)
    each run's converged design is moved to every pair through its
    context (``PaScalarContext.at``) and scored there, one row per pair.
    Errors propagate to the caller.
    """
    blocked, run, _ = _TABLE[method]
    noise = _noise_profile(spec)
    kind = spec.sweep.kind
    channels = {}              # channel key -> channel set
    slots = {}                 # run key -> index of the run
    inputs, of_cell = [], []   # (channels, power, seed) of each run; each cell's run
    for i, cell in enumerate(cells):
        cfg, key, p, run_key = _cell_input(spec, method, i, cell)
        if key not in channels:
            channels[key] = build_channels(cfg)[1 if blocked else 0]
        slot = slots.setdefault(run_key, len(slots))
        if slot == len(inputs):
            inputs.append((channels[key], p, cell[1]))
        of_cell.append(slot)
    chs, powers, seeds = (list(x) for x in zip(*inputs))
    runs = run(chs, noise, powers, seeds, keep_rows)
    rate = blocked_secrecy_rate if blocked else secrecy_rate
    scored = []       # per run: (pa_grid pair or None, rate, split) of each of its rows
    for ch, (design, _) in zip(chs, runs):
        if kind == "pa_grid":
            ctx = PaScalarContext(ch, design, noise)
            moved = [(pair, ctx.at(*pair)) for pair in spec.sweep.values]
        else:
            moved = [(None, design)]
        scored.append([(pair, rate(ch, d, noise), (d.pa.eta, d.pa.beta) if blocked else ())
                       for pair, d in moved])
    shares = Counter(of_cell)     # cells per run
    rows, traces = [], []
    for (value, seed), slot in zip(cells, of_cell):
        run_trace = runs[slot][1]
        trace = replace(run_trace, flags=list(run_trace.flags),
                        wall_time_s=run_trace.wall_time_s / shares[slot])
        rows.extend(ResultRow(method, kind, value if pair is None else pair, seed, sr,
                              trace.iterations, trace.wall_time_s, list(trace.flags), *split)
                    for pair, sr, split in scored[slot])
        traces.append(trace)
    return rows, traces


def _run_alone(spec: ExperimentSpec, method: str, cells: list[tuple]) -> list[ResultRow]:
    """The rows of the (sweep value, seed) cells of one run, run on their
    own.  A failure gives each cell one flagged NaN row, with its own
    flags list and an even share of the time, for each sweep value the
    cell stands for: every pair under ``pa_grid``, else the cell's value."""
    t0 = time.perf_counter()
    try:
        return _run_seeds(spec, method, cells)[0]
    except Exception as exc:  # noqa: BLE001 - contract: never abort the batch
        flag = f"error:{type(exc).__name__}: {exc}"
        wall = max((time.perf_counter() - t0) / len(cells), 1e-9)
        return [ResultRow(method, spec.sweep.kind, v, seed, float("nan"), 0, wall, [flag])
                for value, seed in cells
                for v in (spec.sweep.values if value is None else [value])]


def _row_key(row: ResultRow) -> tuple:
    value = row.sweep_value
    value = tuple(float(v) for v in value) if isinstance(value, tuple) else (float(value),)
    return (row.method, row.sweep_name, value, row.seed)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every (sweep value, method, seed) cell; failures become flagged rows.

    Each method runs all its cells in one ``_run_seeds`` call: every
    (sweep value, seed) pair of a batch (every seed of a ``pa_grid``
    sweep, whose one run per seed scores all pairs); the method's runner
    decides the stacks.  A method that reads no seed runs once per
    distinct (channels, power), and the cells of that run share it.  A
    stacked row's ``wall_time_s`` is its own work plus its share of the
    stack's, so in a blocked stack it mixes the work of every sweep
    value; a shared run's is split evenly among its cells.  If the call
    raises, each run reruns alone with its cells, so a failure stays the
    rows of the cells of the run that fails, and a shared run is computed
    once more, not once per cell.  Rows come back sorted by (method,
    sweep, value, seed), so the table is independent of execution order.
    """
    values = [None] if spec.sweep.kind == "pa_grid" else spec.sweep.values
    rows: list[ResultRow] = []
    for method in spec.methods:
        cells = [(value, seed) for value in values for seed in spec.seeds]
        try:
            rows.extend(_run_seeds(spec, method, cells)[0])
        except Exception:  # noqa: BLE001 - each run's own rerun reports it
            runs: dict = {}
            for i, cell in enumerate(cells):
                runs.setdefault(_cell_input(spec, method, i, cell)[3], []).append(cell)
            for run_cells in runs.values():
                rows.extend(_run_alone(spec, method, run_cells))
    rows.sort(key=_row_key)
    return rows


# --- emission / parsing ---------------------------------------------------
#
# A row becomes one record, {column: value}, that JSON writes as it is and
# CSV writes cell by cell.  Both readers build rows from such records (CSV
# after decoding its text cells) and reject a value of the wrong type.  How a
# column is encoded, decoded and checked follows from its ResultRow field type.

_SCHEMA = "airsdm-results v1"
CSV_SCHEMA = "# " + _SCHEMA
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _typed(v, kind, what: str):
    """``v`` if it is a ``kind`` and not a bool; else ValueError."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError(f"expected {what}, got {v!r}")
    return v


def _number(v) -> float:
    return float(_typed(v, (int, float), "a number"))


def _value_cell(v) -> str:
    if isinstance(v, tuple):
        return "|".join(repr(float(x)) for x in v)
    return str(v) if isinstance(v, int) else repr(float(v))


def _value_of_cell(text: str):
    if "|" in text:
        return [float(x) for x in text.split("|")]
    try:
        return int(text)
    except ValueError:
        return float(text)


def _sweep_value(v):
    """A sweep value as rows hold it: an int, a float or an (eta, beta) pair."""
    if isinstance(v, list):
        if len(v) != 2:
            raise ValueError(f"expected an (eta, beta) pair, got {v!r}")
        return (_number(v[0]), _number(v[1]))
    _typed(v, (int, float), "a number or an (eta, beta) pair")
    return v if isinstance(v, int) else float(v)


# ResultRow field type, as annotation text -> (CSV cell of a record value,
# record value of a CSV cell, row value of a record value).  A ';' inside a
# flag is written as ','.
_CODECS = {
    "str": (str, str, lambda v: _typed(v, str, "text")),
    "int": (str, int, lambda v: _typed(v, int, "an integer")),
    "float": (lambda v: repr(float(v)), float, _number),
    "float | None": (lambda v: "" if v is None else repr(float(v)),
                     lambda text: None if text == "" else float(text),
                     lambda v: None if v is None else _number(v)),
    "list[str]": (lambda flags: ";".join(f.replace(";", ",") for f in flags),
                  lambda text: text.split(";") if text else [],
                  lambda v: [_typed(f, str, "text") for f in _typed(v, list, "a list")]),
    "int | float | tuple[float, float]": (_value_cell, _value_of_cell, _sweep_value),
}
_ENCODE, _DECODE, _CHECK = zip(*(_CODECS[f.type] for f in fields(ResultRow)))


def _row_to_record(row: ResultRow) -> dict:
    return {name: getattr(row, name) for name in CSV_COLUMNS}


def _record_to_row(rec: dict) -> ResultRow:
    values = []
    for name, check in zip(CSV_COLUMNS, _CHECK):
        try:
            values.append(check(rec[name]))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return ResultRow(*values)


def emit_results(rows: list[ResultRow], out: str | Path,
                 formats: tuple[str, ...] = ("csv",)) -> list[Path]:
    """Write the table as ``<out>.csv`` / ``<out>.json``; returns the paths.

    Every format is checked before any file is written.
    """
    if not rows:
        raise ValueError("refusing to emit an empty result table")
    _names(formats, "format", _FORMATS)
    records = [_row_to_record(r) for r in rows]
    paths = [Path(f"{out}.{fmt}") for fmt in formats]
    for fmt, path in zip(formats, paths):
        try:
            with open(path, "w", newline="") as fh:
                if fmt == "json":
                    fh.write(json.dumps({"schema": _SCHEMA, "rows": records}, indent=2) + "\n")
                else:
                    fh.write(CSV_SCHEMA + "\n")
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(CSV_COLUMNS)
                    writer.writerows([enc(v) for enc, v in zip(_ENCODE, rec.values())]
                                     for rec in records)
        except OSError as exc:
            raise OSError(f"cannot write results to {path}: {exc}") from exc
    return paths


def read_results_csv(path: str | Path) -> list[ResultRow]:
    rows: list[ResultRow] = []
    try:
        with open(path, newline="") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValueError(f"unexpected results header in {path}: {header}")
    try:
        for cells in reader:
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
            rows.append(_record_to_row(
                {name: dec(cell) for name, dec, cell in zip(CSV_COLUMNS, _DECODE, cells)}))
    except ValueError as exc:
        raise ValueError(f"malformed results row {len(rows) + 1} in {path}: {exc}") from exc
    return rows


def read_results_json(path: str | Path) -> list[ResultRow]:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in results {path}: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != _SCHEMA:
        raise ValueError(f"unexpected results schema in {path}: {schema!r}")
    try:
        return [_record_to_row(rec) for rec in payload["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed results table in {path}: {exc!r}") from exc
