#!/usr/bin/env python3
"""airsdm benchmark: the acceptance batches, end to end and per layer.

    python3 bench/run_bench.py --workload ldt-n32 --seed 1 --seconds 15 --trace 0

Each workload is one ``ExperimentSpec`` run through ``run_experiment`` and
written with ``emit_results`` to CSV and JSON, repeated in a closed loop
(one process, ``workers=1``) for ``--seconds`` and at least twice.  Every
repeat is checked; a failed check fails the run with exit code 1.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh processes), median batch time, rows/s, rate quality and peak
memory.  ``--trace 1`` alternates untraced and traced batches and prints
the per-layer metrics of ``BENCHMARK.json`` from spans recorded around
airsdm's module functions (see ``spans.py``).  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The workload seed shifts each spec's seed list, so ``--seed 1`` runs the
acceptance seeds; see ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import es_beats_fixed, failed, round_trip, row_count, same_table
from spans import Tracer, instrument, root_seconds, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("ldt-n32", "pa-compare", "rician-n8")
SETUP_PROBES = 5        # fresh processes timed for setup_s
MIN_BATCHES = 2         # repeats compared by the determinism check
BATCH_DEADLINE_S = 120  # no new batch starts after this, whatever --seconds says


class BenchError(Exception):
    """The benchmark cannot run here (missing source, bad declaration)."""


def build_spec(workload: str, seed: int):
    """The workload's ExperimentSpec; ``seed`` 1 gives the acceptance spec.

    The seed list is shifted by ``seed - 1``.  On the scattered-channel
    workload the channel draw seed is ``scene.seed + run seed``; the scene
    seed moves back by the same shift so every seed runs the criterion-10
    channel draws and the shift varies only the optimizers' random starts.
    """
    from airsdm import ExperimentSpec, SweepSpec, benchmark_scene

    shift = seed - 1
    if workload == "ldt-n32":
        return ExperimentSpec(
            sweep=SweepSpec("n_elements", [32]), methods=["ldt-cffp"],
            scene=benchmark_scene(), power_dbm=20.0,
            seeds=list(range(1 + shift, 21 + shift)))
    if workload == "pa-compare":
        return ExperimentSpec(
            sweep=SweepSpec("total_power_dbm", [10.0, 20.0, 30.0]),
            methods=["nsp-mrr-pa/ES", "nsp-mrr-pa/PSO", "nsp-mrr-pa/SA",
                     "fixed-eta", "fixed-beta", "fixed-both"],
            scene=benchmark_scene(), seeds=list(range(1 + shift, 21 + shift)))
    if workload == "rician-n8":
        return ExperimentSpec(
            sweep=SweepSpec("n_elements", [8]),
            methods=["ldt-cffp", "nsp-mrr-pa/ES", "nsp-mrr-pa/PSO",
                     "nsp-mrr-pa/SA", "zero-reflection"],
            scene=benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                  pl_ref_db=-60.0, seed=-shift),
            power_dbm=20.0, seeds=[1 + shift, 2 + shift])
    raise BenchError(f"unknown workload {workload!r}")


def cell_count(spec) -> int:
    return len(spec.sweep.values) * len(spec.methods) * len(spec.seeds)


def load_library():
    """Pin BLAS to one thread, then import airsdm from this checkout's source."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "airsdm" / "__init__.py").is_file():
        raise BenchError(f"airsdm source not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import airsdm
    return airsdm


def setup(workload: str, seed: int):
    """Import, spec build and one warm-up cell; returns the spec.

    The warm-up cell is the first cell of the acceptance spec whatever the
    seed, so set-up time does not depend on which start that seed draws.
    """
    from dataclasses import replace

    load_library()
    from airsdm import SweepSpec, run_experiment

    spec = build_spec(workload, seed)
    first = build_spec(workload, 1)
    run_experiment(replace(first, sweep=SweepSpec(first.sweep.kind, first.sweep.values[:1]),
                           methods=first.methods[:1], seeds=first.seeds[:1]))
    return spec


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
    }


class Runner:
    """Runs and checks the batches of one workload."""

    def __init__(self, spec, out_dir: Path):
        import airsdm

        self.lib = airsdm
        self.spec = spec
        self.out_dir = out_dir
        self.tables: list[list] = []
        self.problems: list[str] = []

    def batch(self, tracer: Tracer | None = None) -> float:
        """One run_experiment + emit_results; returns its wall time."""
        lib = self.lib
        stem = self.out_dir / f"batch{len(self.tables)}"
        formats = ("csv", "json")
        if tracer is None:
            t0 = time.perf_counter()
            rows = lib.run_experiment(self.spec)
            paths = lib.emit_results(rows, stem, formats)
            elapsed = time.perf_counter() - t0
        else:
            with instrument(tracer):
                t0 = time.perf_counter()
                with tracer.span("harness.run_experiment"):
                    rows = lib.run_experiment(self.spec)
                with tracer.span("harness.emit_results"):
                    paths = lib.emit_results(rows, stem, formats)
                elapsed = time.perf_counter() - t0
            tracer.counters["harness.emit_results.bytes"] += sum(p.stat().st_size for p in paths)
        self.check(rows, paths)
        self.tables.append(rows)
        return elapsed

    def check(self, rows: list, paths: list[Path]) -> None:
        lib = self.lib
        n = len(self.tables)
        p = self.problems
        p += row_count(rows, cell_count(self.spec))
        p += round_trip(rows, lib.read_results_csv(paths[0]), f"batch {n} csv")
        p += round_trip(rows, lib.read_results_json(paths[1]), f"batch {n} json")
        p += es_beats_fixed(rows)
        if not self.tables:
            if all(failed(r) for r in rows):
                p.append("every row failed")
        else:
            p += same_table(self.tables[0], rows, f"batch {n} against batch 0")

    def repeat(self, seconds: float, traced: bool) -> tuple[list[float], list[float], list]:
        """Untraced (and, if ``traced``, traced) batches until ``seconds`` pass."""
        plain, timed, tracers = [], [], []
        start = time.perf_counter()
        while True:
            plain.append(self.batch())
            if traced:
                tracer = Tracer()
                timed.append(self.batch(tracer))
                tracers.append(tracer)
            elapsed = time.perf_counter() - start
            done = len(plain) >= (1 if traced else MIN_BATCHES) and elapsed >= seconds
            if done or elapsed >= BATCH_DEADLINE_S or self.problems:
                return plain, timed, tracers

    def attempted(self) -> int:
        return sum(len(t) for t in self.tables)

    def failed_rows(self) -> int:
        return sum(failed(r) for t in self.tables for r in t)


def end_to_end(rows: list, batch_s: list[float], setup_s: list[float]) -> dict:
    ok = [r.sr_bits for r in rows if not failed(r)]
    med = statistics.median(batch_s)
    return {
        "setup_s": statistics.median(setup_s),
        "batch_s": med,
        "rows_per_s": len(rows) / med,
        "sr_bits_mean": statistics.fmean(ok),
        "sr_bits_min": min(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median_fields(summaries: list[dict]) -> dict:
    """Per span name and field, the median over the traced batches."""
    out: dict = {}
    for name in summaries[0]:
        out[name] = {k: statistics.median(s[name][k] for s in summaries)
                     for k in summaries[0][name]}
    return out


SPAN_FIELDS = {
    "ldt_cffp.solve_qcqp": ("calls", "s", "self_s"),
    "ldt_cffp.QcqpProblem": ("s",),
    "ldt_cffp.assemble_vb": ("self_s",),
    "ldt_cffp.assemble_ve": ("self_s",),
    "ldt_cffp.assemble_theta": ("self_s",),
    "ldt_cffp.optimal_aux": ("s",),
    "ldt_cffp.run_ldt_cffp": ("self_s",),
    "model.secrecy_rate": ("calls", "s"),
    "model.total_power": ("calls", "s"),
    "model.ldt_objective": ("calls", "s"),
    "nsp_mrr.PaScalarContext.init": ("s",),
    "nsp_mrr.PaScalarContext.call": ("calls", "s", "points"),
    **{f"pa_search.{f}": ("calls", "self_s")
       for f in ("exhaustive_search", "pso_search", "annealing_search",
                 "fixed_eta_search", "fixed_beta_search", "fixed_point_search")},
    "nsp_mrr.run_nsp_mrr_pa": ("self_s",),
    **{f"nsp_mrr.{f}": ("calls", "s")
       for f in ("nsp_beamformers", "nsp_projector", "mrr_reflect",
                 "amplification_rho", "blocked_secrecy_rate")},
    "scene.build_channels": ("calls", "s"),
    "harness.run_experiment": ("self_s",),
    "harness.emit_results": ("s",),
}


def near_es_frac(rows: list, tol: float = 0.05) -> float:
    """Share of PSO and SA rows within ``tol`` bits of ES at the same cell."""
    es = {(r.sweep_value, r.seed): r.sr_bits for r in rows if r.method == "nsp-mrr-pa/ES"}
    searched = [r for r in rows if r.method in ("nsp-mrr-pa/PSO", "nsp-mrr-pa/SA")]
    if not searched:
        return 0.0
    return sum(es[(r.sweep_value, r.seed)] - r.sr_bits <= tol for r in searched) / len(searched)


def per_layer(spans: dict, tracer: Tracer, rows: list, overhead_frac: float) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    out = {}
    for name, fields in SPAN_FIELDS.items():
        rec = spans.get(name, {})
        for field in fields:
            out[f"{name}.{field}"] = rec.get(field, 0)
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    qcqp_calls = out["ldt_cffp.solve_qcqp.calls"]
    out["ldt_cffp.solve_qcqp.bisect_steps_per_call"] = ratio(
        c["ldt_cffp.solve_qcqp.bisect_steps"], qcqp_calls)
    out["ldt_cffp.solve_qcqp.interior_frac"] = ratio(c["ldt_cffp.solve_qcqp.interior"], qcqp_calls)
    out["ldt_cffp.solve_qcqp.kkt_stationarity_rel_max"] = c["ldt_cffp.solve_qcqp.kkt_stationarity_rel_max"]
    for layer in ("ldt_cffp.run_ldt_cffp", "nsp_mrr.run_nsp_mrr_pa"):
        out[f"{layer}.iterations_sum"] = c[f"{layer}.iterations_sum"]
        out[f"{layer}.capped"] = c[f"{layer}.capped"]
        out[f"{layer}.tail_iter_frac"] = ratio(c[f"{layer}.tail_iterations"],
                                               c[f"{layer}.iterations_sum"])
    iters = tracer.samples["ldt_cffp.run_ldt_cffp.iterations"]
    out["ldt_cffp.run_ldt_cffp.iterations_p50"] = statistics.median(iters) if iters else 0
    out["nsp_mrr.PaScalarContext.call.points_per_call"] = ratio(
        out["nsp_mrr.PaScalarContext.call.points"], out["nsp_mrr.PaScalarContext.call.calls"])
    for name in SPAN_FIELDS:
        if name.startswith("pa_search."):
            out[f"{name}.evaluations"] = c[f"{name}.evaluations"]
    out["pa_search.near_es_frac"] = near_es_frac(rows)
    out["harness.emit_results.bytes"] = c["harness.emit_results.bytes"]
    out["trace.overhead_frac"] = overhead_frac
    return out


def print_layer_table(spans: dict, traced_s: float) -> None:
    print(f"{'span':<36} {'unit':>4} {'calls':>9} {'s':>10} {'self_s':>10}")
    for name in sorted(spans, key=lambda n: -spans[n]["self_s"]):
        rec = spans[name]
        print(f"{name:<36} {'s':>4} {rec['calls']:>9} {rec['s']:>10.4f} {rec['self_s']:>10.4f}")
    total = sum(rec["self_s"] for rec in spans.values())
    print(f"self times sum to {total:.4f} s; traced batch {traced_s:.4f} s")


def declared_metrics(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def print_metrics(metrics: dict, declared: list[dict]) -> dict:
    """Print each declared metric with unit and direction; return the JSON form."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']:<9} ({m['better']} is better)")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run(args) -> int:
    spec = setup(args.workload, args.seed)
    print("environment: " + json.dumps(environment()))
    setup_s = [] if args.trace else measure_setup(args.workload, args.seed)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(spec, out_dir)
        plain, traced, tracers = runner.repeat(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rows = runner.tables[0]
    print(f"workload {args.workload} seed {args.seed}: {len(rows)} rows, "
          f"{len(plain)} untraced and {len(traced)} traced batches")
    print("untraced batch s: " + " ".join(f"{t:.4f}" for t in plain))
    if traced:
        print("traced batch s: " + " ".join(f"{t:.4f}" for t in traced))
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not runner.problems

    if args.trace:
        summaries = [summarize(t) for t in tracers]
        spans = _median_fields(summaries)
        for summary, tracer, batch_s in zip(summaries, tracers, traced):
            total = sum(rec["self_s"] for rec in summary.values())
            if not (abs(total - root_seconds(tracer)) <= 1e-9 * batch_s
                    and abs(total - batch_s) <= 1e-3 * batch_s):
                print(f"CHECK FAILED: span self times sum to {total} s, "
                      f"traced batch took {batch_s} s")
                correct = False
        print_layer_table(spans, statistics.median(traced))
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        print(f"trace.overhead_frac {overhead:+.4f} (traced {statistics.median(traced):.3f} s, "
              f"untraced {statistics.median(plain):.3f} s)")
        values = per_layer(spans, tracers[len(tracers) // 2], rows, overhead)
        metrics = print_metrics(values, declared_metrics("per_layer"))
    else:
        capped = sum("iteration-cap" in r.flags for r in rows) / len(rows)
        print(f"{'capped_frac':<48} {capped:>14.6g} {'fraction':<9} (lower is better; not gated)")
        print(f"{'failed_frac':<48} {runner.failed_rows() / runner.attempted():>14.6g} "
              f"{'fraction':<9} (lower is better; reported as 'failed')")
        metrics = print_metrics(end_to_end(rows, plain, setup_s),
                                declared_metrics("end_to_end"))
    print(json.dumps({"correct": correct, "attempted": runner.attempted(),
                      "failed": runner.failed_rows(), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once and print the monotonic clock (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print(repr(time.monotonic()))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
