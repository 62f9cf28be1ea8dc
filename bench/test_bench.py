"""Tests of the benchmark's own logic: span accounting and table checks.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
from dataclasses import replace

import pytest

import run_bench
from checks import es_beats_fixed, failed, round_trip, row_count, same_table
from spans import Tracer, instrument, root_seconds, summarize, tail_iterations


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    with tracer.span("c"):
        pass
    tracer.end(root)
    s = summarize(tracer)
    assert {k: v["self_s"] for k, v in s.items()} == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert {k: v["s"] for k, v in s.items()} == {"root": 10, "a": 3, "b": 1, "c": 4}
    assert sum(v["self_s"] for v in s.values()) == root_seconds(tracer) == 10


def test_same_name_spans_add_up():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 6, 10))
    root = tracer.begin("root")
    for _ in range(2):
        with tracer.span("solve"):
            pass
    tracer.end(root)
    s = summarize(tracer)
    assert s["solve"] == {"calls": 2, "s": 4, "self_s": 4}
    assert s["root"]["self_s"] == 6


def test_leaf_calls_aggregate_on_parent_span():
    tracer = Tracer(clock=FakeClock(0, 10))
    parent = tracer.begin("search")
    for _ in range(1000):
        tracer.leaf("objective", 0.002, points=3)
    tracer.end(parent)
    assert len(tracer.spans) == 1
    s = summarize(tracer)
    assert s["objective"]["calls"] == 1000
    assert s["objective"]["points"] == 3000
    assert s["objective"]["s"] == pytest.approx(2.0)
    assert s["objective"]["self_s"] == pytest.approx(2.0)
    assert s["search"]["self_s"] == pytest.approx(8.0)
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(root_seconds(tracer))


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)
    with pytest.raises(RuntimeError):
        summarize(tracer)


def test_tail_iterations():
    assert tail_iterations([]) == 0
    assert tail_iterations([1.0]) == 0
    assert tail_iterations([0.0, 1.0, 1.0004, 1.0]) == 2
    assert tail_iterations([1.0, 2.0, 1.0]) == 0


# -- table checks --------------------------------------------------------------

@pytest.fixture(scope="module")
def lib():
    return run_bench.load_library()


def _row(lib, method, seed, sr, **kw):
    return lib.ResultRow(method, "total_power_dbm", 20.0, seed, sr, 2, 0.01, **kw)


def test_checks_accept_a_good_table(lib, tmp_path):
    rows = [_row(lib, "fixed-eta", 1, 0.5, eta=0.5, beta=0.3),
            _row(lib, "nsp-mrr-pa/ES", 1, 0.7, eta=0.4, beta=0.3),
            _row(lib, "zero-reflection", 1, math.nan, flags=["error:ValueError: x"])]
    csv_path, json_path = lib.emit_results(rows, tmp_path / "t", ("csv", "json"))
    assert round_trip(rows, lib.read_results_csv(csv_path), "csv") == []
    assert round_trip(rows, lib.read_results_json(json_path), "json") == []
    assert same_table(rows, [replace(r, wall_time_s=9.0) for r in rows], "repeat") == []
    assert es_beats_fixed(rows) == []
    assert row_count(rows, 3) == []
    assert [failed(r) for r in rows] == [False, False, True]


def test_checks_reject_a_fabricated_bad_table(lib):
    good = [_row(lib, "nsp-mrr-pa/ES", 1, 0.7), _row(lib, "fixed-both", 1, 0.2)]
    changed_rate = [good[0], replace(good[1], sr_bits=0.2000001)]
    assert same_table(good, changed_rate, "repeat")
    assert same_table(good, [replace(good[0], flags=["iteration-cap"]), good[1]], "repeat")
    assert same_table(good, good[:1], "repeat")
    assert round_trip(good, [good[0], replace(good[1], wall_time_s=1.0)], "csv")
    assert row_count(good, 3)
    assert es_beats_fixed([good[0], replace(good[1], sr_bits=0.8)])
    assert es_beats_fixed([good[1]])


# -- instrumentation -----------------------------------------------------------

def test_instrument_traces_layers_and_restores_globals(lib):
    from airsdm import harness, ldt_cffp, nsp_mrr

    spec = lib.ExperimentSpec(
        sweep=lib.SweepSpec("n_elements", [4]),
        methods=["ldt-cffp", "nsp-mrr-pa/ES", "fixed-both"],
        scene=lib.benchmark_scene(m_bs=4, n_irs=4, pl_ref_db=-60.0), seeds=[1])
    originals = (harness.build_channels, ldt_cffp.solve_qcqp,
                 nsp_mrr.PaScalarContext.__init__, nsp_mrr.PaScalarContext.__call__)
    plain = lib.run_experiment(spec)
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("harness.run_experiment"):
            rows = lib.run_experiment(spec)
    assert (harness.build_channels, ldt_cffp.solve_qcqp,
            nsp_mrr.PaScalarContext.__init__, nsp_mrr.PaScalarContext.__call__) == originals
    assert same_table(plain, rows, "traced") == []

    s = summarize(tracer)
    assert s["scene.build_channels"]["calls"] == 3
    assert s["ldt_cffp.run_ldt_cffp"]["calls"] == 1
    assert s["pa_search.exhaustive_search"]["calls"] >= 1
    assert s["pa_search.fixed_point_search"]["calls"] >= 1
    assert s["ldt_cffp.solve_qcqp"]["calls"] == s["ldt_cffp.QcqpProblem"]["calls"]
    assert s["bench.kkt"]["calls"] > 0
    assert s["nsp_mrr.PaScalarContext.call"]["points"] > s["nsp_mrr.PaScalarContext.call"]["calls"]
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(root_seconds(tracer))
    assert tracer.counters["ldt_cffp.solve_qcqp.kkt_stationarity_rel_max"] < 1e-6

    metrics = run_bench.per_layer(s, tracer, rows, 0.0)
    ldt_row = next(r for r in rows if r.method == "ldt-cffp")
    assert metrics["ldt_cffp.run_ldt_cffp.iterations_sum"] == ldt_row.iterations
    assert metrics["pa_search.exhaustive_search.evaluations"] > 0


def test_per_layer_metrics_match_the_declaration():
    declared = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert set(run_bench.per_layer({}, Tracer(), [], 0.0)) == names


def test_workload_seed_shifts_the_seed_list(lib):
    for workload in run_bench.WORKLOADS:
        spec = run_bench.build_spec(workload, 1)
        shifted = run_bench.build_spec(workload, 5)
        assert shifted.seeds == [s + 4 for s in spec.seeds]
    acceptance = run_bench.build_spec("rician-n8", 1)
    assert acceptance.seeds == [1, 2] and acceptance.scene.seed == 0
    # the channel draw seed (scene seed + run seed) stays that of criterion 10
    shifted = run_bench.build_spec("rician-n8", 5)
    assert [shifted.scene.seed + s for s in shifted.seeds] == [1, 2]
