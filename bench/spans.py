"""In-memory span recording and the wrappers that trace airsdm's layers.

A :class:`Tracer` keeps one record per span (name, parent, start, end) and
aggregates *leaf* calls, which are too many to store one by one, as a count
and a time on the span that was open when they ran.  :func:`summarize`
turns the records into per-name totals where a span's self time is its
duration minus its child spans and the leaf time charged to it, so the self
times of all names add up to the duration of the root spans.

:func:`instrument` swaps the module globals that airsdm's callers look up at
call time for timed wrappers and puts the originals back on exit; the
library source is not modified.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

_NAME, _END, _LEAF_S = 0, 3, 4   # fields of a span record used by name


class Tracer:
    """Spans kept in memory, plus named counters filled by the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []           # [name, parent, start, end, leaf_s]
        self.leaves: dict[str, list] = {}     # name -> [calls, seconds, points]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), math.nan, 0.0])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][_NAME]!r} closed out of order")
        self._open.pop()
        self.spans[idx][_END] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def leaf(self, name: str, seconds: float, points: int = 1) -> None:
        """Charge one leaf call to the open span instead of storing a span."""
        if self._open:
            self.spans[self._open[-1]][_LEAF_S] += seconds
        agg = self.leaves.get(name)
        if agg is None:
            agg = self.leaves[name] = [0, 0.0, 0]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += points


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per-name ``calls``, total ``s`` and ``self_s`` (leaves have s == self_s)."""
    child_s = [0.0] * len(tracer.spans)
    for name, parent, start, end, _ in tracer.spans:
        if math.isnan(end):
            raise RuntimeError(f"span {name!r} was never closed")
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _, start, end, leaf_s) in enumerate(tracer.spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += dur - child_s[i] - leaf_s
    for name, (calls, seconds, points) in tracer.leaves.items():
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += calls
        rec["s"] += seconds
        rec["self_s"] += seconds
        rec["points"] = rec.get("points", 0) + points
    return out


def root_seconds(tracer: Tracer) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, start, end, _ in tracer.spans if parent < 0)


def tail_iterations(sr_trace: list[float], tol: float = 1e-3) -> int:
    """Iterations run after the rate came, and stayed, within ``tol`` of its final value."""
    if not sr_trace:
        return 0
    final = sr_trace[-1]
    first = len(sr_trace) - 1
    while first > 0 and abs(sr_trace[first - 1] - final) <= tol:
        first -= 1
    return len(sr_trace) - 1 - first


# -- airsdm instrumentation ----------------------------------------------------

def _timed(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    return wrapper


def _record_run(tracer: Tracer, layer: str):
    """Iteration, cap and tail counters of one optimizer run."""
    def after(args, kwargs, out):
        _, run_trace = out
        c = tracer.counters
        c[f"{layer}.iterations_sum"] += run_trace.iterations
        c[f"{layer}.capped"] += "iteration-cap" in run_trace.flags
        c[f"{layer}.tail_iterations"] += tail_iterations(run_trace.objective_values("sr_bits"))
        tracer.samples[f"{layer}.iterations"].append(run_trace.iterations)
    return after


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace airsdm's layers for the duration of the block.

    Spans: ``scene.build_channels``; ``ldt_cffp.{run_ldt_cffp, assemble_*,
    QcqpProblem, solve_qcqp, optimal_aux}``; ``model.{secrecy_rate,
    total_power, ldt_objective}``; ``nsp_mrr.{run_nsp_mrr_pa,
    nsp_beamformers, nsp_projector, mrr_reflect, amplification_rho,
    blocked_secrecy_rate, PaScalarContext.init}``; ``pa_search.<searcher>``
    and ``bench.kkt``, the benchmark's own KKT check of every QCQP solution.
    ``nsp_mrr.PaScalarContext.call`` is a leaf.
    """
    import numpy as np
    from airsdm import harness, ldt_cffp, nsp_mrr

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(owner, attr: str, name: str, after=None) -> None:
        patch(owner, attr, _timed(tracer, getattr(owner, attr), name, after))

    def after_qcqp(args, kwargs, sol):
        prob = args[0] if args else kwargs["prob"]
        c = tracer.counters
        c["ldt_cffp.solve_qcqp.bisect_steps"] += sol.bisect_steps
        c["ldt_cffp.solve_qcqp.interior"] += sol.nu == 0.0
        norm_a = float(np.linalg.norm(prob.a))
        if norm_a > 0.0:
            with tracer.span("bench.kkt"):
                rel = ldt_cffp.kkt_residuals(prob, sol)["stationarity"] / norm_a
            key = "ldt_cffp.solve_qcqp.kkt_stationarity_rel_max"
            c[key] = max(c[key], rel)

    searchers: dict = {}

    def traced_searcher(searcher):
        if searcher not in searchers:
            name = f"pa_search.{searcher.__name__}"

            def after(args, kwargs, res, name=name):
                tracer.counters[f"{name}.evaluations"] += res.evaluations
            searchers[searcher] = _timed(tracer, searcher, name, after)
        return searchers[searcher]

    run_nsp = _timed(tracer, nsp_mrr.run_nsp_mrr_pa, "nsp_mrr.run_nsp_mrr_pa",
                     _record_run(tracer, "nsp_mrr.run_nsp_mrr_pa"))

    def run_nsp_traced(*args, **kwargs):
        if "searcher" in kwargs:
            kwargs["searcher"] = traced_searcher(kwargs["searcher"])
        return run_nsp(*args, **kwargs)

    ctx_cls = nsp_mrr.PaScalarContext
    ctx_call = ctx_cls.__call__
    clock = tracer.clock

    def call_traced(self, eta, beta):
        t0 = clock()
        out = ctx_call(self, eta, beta)
        dt = clock() - t0
        tracer.leaf("nsp_mrr.PaScalarContext.call", dt, np.size(out))
        return out

    try:
        wrap(harness, "build_channels", "scene.build_channels")
        wrap(harness, "run_ldt_cffp", "ldt_cffp.run_ldt_cffp",
             _record_run(tracer, "ldt_cffp.run_ldt_cffp"))
        patch(harness, "run_nsp_mrr_pa", run_nsp_traced)
        wrap(harness, "secrecy_rate", "model.secrecy_rate")
        wrap(harness, "blocked_secrecy_rate", "nsp_mrr.blocked_secrecy_rate")
        for attr in ("assemble_vb", "assemble_ve", "assemble_theta",
                     "QcqpProblem", "optimal_aux"):
            wrap(ldt_cffp, attr, f"ldt_cffp.{attr}")
        wrap(ldt_cffp, "solve_qcqp", "ldt_cffp.solve_qcqp", after_qcqp)
        for attr in ("secrecy_rate", "total_power", "ldt_objective"):
            wrap(ldt_cffp, attr, f"model.{attr}")
        for attr in ("nsp_beamformers", "nsp_projector", "mrr_reflect",
                     "amplification_rho"):
            wrap(nsp_mrr, attr, f"nsp_mrr.{attr}")
        wrap(ctx_cls, "__init__", "nsp_mrr.PaScalarContext.init")
        patch(ctx_cls, "__call__", call_traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
