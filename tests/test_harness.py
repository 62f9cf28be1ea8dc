"""Experiment driver: specs, sweeps, method dispatch, result tables."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import overspend_seed, random_channelset

from airsdm.harness import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    METHODS,
    ExperimentSpec,
    ResultRow,
    SweepSpec,
    _noise_profile,
    _scene_at,
    _zero_reflection_design,
    emit_results,
    read_results_csv,
    read_results_json,
    run_experiment,
)
from airsdm.nsp_mrr import PaScalarContext, blocked_secrecy_rate, run_nsp_mrr_pa
from airsdm.pa_search import fixed_beta_search
from airsdm.scene import benchmark_scene, build_channels, dbm_to_watts


def _fast_scene(**overrides):
    return benchmark_scene(m_bs=4, n_irs=8, pl_ref_db=-55.0, **overrides)


def _spec(**kw):
    defaults = dict(
        sweep=SweepSpec("n_elements", [4, 8]),
        methods=["zero-reflection"],
        scene=_fast_scene(),
        power_dbm=30.0,
        seeds=[1, 2, 3],
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


# -- spec validation -----------------------------------------------------------

def test_sweep_kinds_are_validated():
    with pytest.raises(ValueError):
        SweepSpec("bandwidth", [1.0])
    with pytest.raises(ValueError):
        SweepSpec("n_elements", [])
    with pytest.raises(ValueError):
        SweepSpec("n_elements", [7, 8])       # odd N cannot split into blocks
    with pytest.raises(ValueError):
        SweepSpec("n1", [2.5])
    with pytest.raises(ValueError):
        SweepSpec("n2", [0])
    with pytest.raises(ValueError):
        SweepSpec("pa_grid", [(0.5, 1.5)])
    with pytest.raises(ValueError):
        SweepSpec("pa_grid", [(0.0, 0.5)])


def test_sweep_values_are_normalized():
    assert SweepSpec("n_elements", [4, 8.0]).values == [4, 8]
    assert SweepSpec("total_power_dbm", [10, 20]).values == [10.0, 20.0]
    assert SweepSpec("pa_grid", [[0.2, 0.4]]).values == [(0.2, 0.4)]


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        _spec(methods=[])
    with pytest.raises(ValueError):
        _spec(methods=["simplex"])
    with pytest.raises(ValueError, match="distinct"):
        _spec(methods=["zero-reflection", "zero-reflection"])
    for methods in (5, "nsp-mrr-pa/ES", [["x"]]):
        with pytest.raises(ValueError, match="method"):
            _spec(methods=methods)
    with pytest.raises(ValueError):
        _spec(seeds=[])
    with pytest.raises(ValueError):
        _spec(seeds=[1, 1, 2])
    with pytest.raises(ValueError):
        _spec(formats=["yaml"])
    # the PA-surface sweep only makes sense for power-split methods
    with pytest.raises(ValueError):
        _spec(sweep=SweepSpec("pa_grid", [(0.5, 0.5)]), methods=["ldt-cffp"])
    _spec(sweep=SweepSpec("pa_grid", [(0.5, 0.5)]), methods=["nsp-mrr-pa/ES"])



def test_experiment_spec_rejects_non_integral_and_colliding_seeds():
    for seeds in ([1, 1.5], [2.5], [1, None], [1, "2"], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="seeds"):
            _spec(seeds=seeds)
    # distinct before the int conversion, equal after it
    with pytest.raises(ValueError, match="distinct"):
        _spec(seeds=[1, 1.0])
    assert _spec(seeds=[3.0, 1]).seeds == [3, 1]


def test_experiment_spec_rejects_negative_run_seeds():
    for seeds in ([-1], [3, -2]):
        with pytest.raises(ValueError, match="non-negative"):
            _spec(seeds=seeds)
    assert _spec(seeds=[0, 4]).seeds == [0, 4]


def test_rician_spec_rejects_negative_channel_draw_seeds():
    rician = benchmark_scene(m_bs=4, n_irs=4, rician_k_db=5.0, seed=-3)
    with pytest.raises(ValueError, match="Rician"):
        _spec(scene=rician, seeds=[2, 3])       # draws with seed -1 and 0
    # a negative scene seed is legal while every draw seed stays non-negative
    spec = _spec(scene=rician, seeds=[3, 4])
    rows = run_experiment(spec)
    assert [r.flags for r in rows] == [[]] * len(rows)
    # a pure-LoS scene draws nothing, so its scene seed is unconstrained
    assert _spec(scene=benchmark_scene(m_bs=4, n_irs=4, seed=-3), seeds=[1]).seeds == [1]


def test_malformed_sweep_values_raise_value_errors():
    bad = [("pa_grid", [0.5]), ("pa_grid", [None]), ("pa_grid", [(0.5,)]),
           ("pa_grid", [(0.2, 0.3, 0.4)]), ("pa_grid", [("a", 0.5)]),
           ("pa_grid", [(math.nan, 0.5)]), ("n_elements", [None]),
           ("n_elements", [math.nan]), ("n_elements", [math.inf]), ("n1", ["4"]),
           ("total_power_dbm", [None]), ("total_power_dbm", [math.nan]),
           ("total_power_dbm", [20.0, math.inf]), ("total_power_dbm", [-math.inf]),
           ("total_power_dbm", 20.0), ("total_power_dbm", None),
           ("n_elements", [8, 8]), ("n_elements", [8, 8.0]), ("n1", [4, 6, 4]),
           ("total_power_dbm", [20, 20.0]), ("pa_grid", [(0.2, 0.4), [0.2, 0.4]])]
    for kind, values in bad:
        with pytest.raises(ValueError):
            SweepSpec(kind, values)
    with pytest.raises(ValueError, match="kind"):
        _spec(sweep={"kind": "n_elements"})
    with pytest.raises(ValueError, match="kind"):
        _spec(sweep={"kind": "n_elements", "values": [8], "step": 2})


def test_experiment_spec_rejects_non_finite_powers():
    for bad in (math.nan, math.inf, -math.inf, None, "loud"):
        with pytest.raises(ValueError, match="power_dbm"):
            _spec(power_dbm=bad)
        with pytest.raises(ValueError, match="noise_dbm"):
            _spec(noise_dbm=bad)
    spec = _spec(power_dbm=25, noise_dbm=-80)
    assert (spec.power_dbm, spec.noise_dbm) == (25.0, -80.0)


def test_experiment_spec_rejects_empty_and_repeated_formats():
    with pytest.raises(ValueError, match="non-empty"):
        _spec(formats=[])
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec.from_dict({**_spec().to_dict(), "formats": []})
    with pytest.raises(ValueError, match="distinct"):
        _spec(formats=["csv", "csv"])

def test_experiment_spec_round_trips_through_json(tmp_path):
    spec = _spec(methods=["ldt-cffp", "nsp-mrr-pa/ES"],
                 formats=["csv", "json"], out="results/run7")
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec

    path = tmp_path / "spec.json"
    spec.to_file(path)
    assert ExperimentSpec.from_file(path) == spec


def test_experiment_spec_ignores_the_legacy_workers_key():
    data = _spec().to_dict()
    assert "workers" not in data
    assert ExperimentSpec.from_dict({**data, "workers": 4}) == ExperimentSpec.from_dict(data)


@pytest.mark.parametrize("key", ["sweep", "methods"])
def test_experiment_spec_needs_a_sweep_and_methods(key):
    data = _spec().to_dict()
    del data[key]
    with pytest.raises(ValueError, match="needs 'sweep' and 'methods'"):
        ExperimentSpec.from_dict(data)


def test_experiment_spec_rejects_unknown_fields(tmp_path):
    data = _spec().to_dict()
    data["bandwidth_mhz"] = 10
    with pytest.raises(ValueError, match="bandwidth_mhz"):
        ExperimentSpec.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        ExperimentSpec.from_file(path)
    with pytest.raises(ValueError, match="cannot read"):
        ExperimentSpec.from_file(tmp_path / "missing.json")


# -- sweep-point resolution -------------------------------------------------------

def test_scene_at_maps_the_element_count():
    spec = _spec(sweep=SweepSpec("n_elements", [4, 6]))
    cfg, p = _scene_at(spec, 6, seed=3)
    assert (cfg.n_irs, cfg.n1, cfg.n2) == (6, 3, 3)
    assert cfg.seed == spec.scene.seed + 3          # per-seed channel fold
    assert p == dbm_to_watts(30.0)

    cfg, _ = _scene_at(spec, 4, seed=1)
    assert (cfg.n_irs, cfg.n1, cfg.n2) == (4, 2, 2)


def test_scene_at_maps_single_block_counts():
    spec = _spec(sweep=SweepSpec("n1", [6]))
    cfg, _ = _scene_at(spec, 6, seed=1)
    assert (cfg.n1, cfg.n2, cfg.n_irs) == (6, spec.scene.n2, 6 + spec.scene.n2)

    spec = _spec(sweep=SweepSpec("n2", [10]))
    cfg, _ = _scene_at(spec, 10, seed=1)
    assert (cfg.n1, cfg.n2, cfg.n_irs) == (spec.scene.n1, 10, spec.scene.n1 + 10)


def test_scene_at_maps_the_power_axis():
    spec = _spec(sweep=SweepSpec("total_power_dbm", [10.0, 25.0]))
    cfg, p = _scene_at(spec, 25.0, seed=1)
    assert p == dbm_to_watts(25.0)
    assert cfg.n_irs == spec.scene.n_irs


# -- the no-IRS baseline -----------------------------------------------------------

def test_zero_reflection_design_properties():
    rng = np.random.default_rng(0)
    ch = random_channelset(rng, m=4, n=8)
    d, flags = _zero_reflection_design(ch, p_watts=2.0)
    assert flags == []
    assert_allclose(np.linalg.norm(d.v_b) ** 2, 1.0, rtol=1e-12)
    assert_allclose(np.linalg.norm(d.v_e) ** 2, 1.0, rtol=1e-12)
    assert abs(np.vdot(ch.h_b, d.v_e)) <= 1e-10 * np.linalg.norm(ch.h_b)
    assert np.all(d.theta == 0.0)
    # the CM beam is the matched filter
    assert abs(np.vdot(ch.h_b, d.v_b)) >= np.linalg.norm(ch.h_b) - 1e-12


def test_zero_reflection_flags_parallel_channels():
    rng = np.random.default_rng(1)
    ch = random_channelset(rng, m=4, n=8)
    ch.h_e = (0.5 - 2.0j) * ch.h_b
    d, flags = _zero_reflection_design(ch, p_watts=2.0)
    assert flags == ["zero-reflection-degenerate"]
    assert np.all(d.v_e == 0.0)


# -- running experiments -------------------------------------------------------------

def test_run_experiment_produces_one_sorted_row_per_cell():
    spec = _spec(methods=["zero-reflection", "fixed-both"], seeds=[2, 1])
    rows = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2
    keys = [(r.method, r.sweep_value, r.seed) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.sweep_name == "n_elements"
        assert math.isfinite(r.sr_bits)
        if r.method == "fixed-both":
            assert (r.eta, r.beta) == (0.5, 0.5)
        else:
            assert r.eta is None and r.beta is None


def test_run_experiment_turns_failures_into_flagged_rows(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    # the stack fails, and so does each seed's own run after it
    monkeypatch.setattr("airsdm.harness.run_ldt_cffp_seeds", boom)
    monkeypatch.setattr("airsdm.harness.run_ldt_cffp", boom)
    spec = _spec(methods=["ldt-cffp", "zero-reflection"], seeds=[1])
    rows = run_experiment(spec)
    assert len(rows) == 4
    broken = [r for r in rows if r.method == "ldt-cffp"]
    assert len(broken) == 2
    for r in broken:
        assert math.isnan(r.sr_bits)
        assert r.flags == ["error:RuntimeError: synthetic failure"]
    for r in rows:
        if r.method == "zero-reflection":
            assert math.isfinite(r.sr_bits)


def _without_wall_time(rows):
    return [(r.method, r.sweep_value, r.seed, r.sr_bits, r.iterations, r.flags) for r in rows]


def test_one_failing_seed_keeps_the_other_rows_of_its_stack(monkeypatch):
    from airsdm import ldt_cffp

    spec = _spec(sweep=SweepSpec("n_elements", [4, 8]), methods=["ldt-cffp"], seeds=[1, 2, 3])
    clean = run_experiment(spec)
    initial_design = ldt_cffp.initial_design

    def fails_for_seed_2(ch, noise, p_max, seed):
        if seed == 2:
            raise np.linalg.LinAlgError("synthetic failure")
        return initial_design(ch, noise, p_max, seed)

    monkeypatch.setattr(ldt_cffp, "initial_design", fails_for_seed_2)
    rows = run_experiment(spec)
    broken = [r for r in rows if r.seed == 2]
    assert [r.flags for r in broken] == [["error:LinAlgError: synthetic failure"]] * 2
    assert all(math.isnan(r.sr_bits) and r.iterations == 0 for r in broken)
    assert _without_wall_time([r for r in rows if r.seed != 2]) == \
        _without_wall_time([r for r in clean if r.seed != 2])


def test_a_stack_that_fails_midway_reruns_each_seed_alone(monkeypatch):
    from airsdm import ldt_cffp

    spec = _spec(sweep=SweepSpec("n_elements", [8]), methods=["ldt-cffp"], seeds=[1, 2, 3])
    clean = run_experiment(spec)
    solve_stack = ldt_cffp.solve_qcqp_stack
    calls = {"stacked": 0}

    def fails_in_a_stack(prob):
        if prob.a.shape[0] > 1:
            calls["stacked"] += 1
            if calls["stacked"] == 5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve_stack(prob)

    monkeypatch.setattr(ldt_cffp, "solve_qcqp_stack", fails_in_a_stack)
    rows = run_experiment(spec)
    assert calls["stacked"] == 5
    assert _without_wall_time(rows) == _without_wall_time(clean)


def test_stacked_seeds_bypass_the_one_seed_entry_points(monkeypatch):
    """A stack goes through neither harness.run_ldt_cffp nor solve_qcqp,
    whose traced wrappers take one (design, trace) and one solution."""
    from airsdm import ldt_cffp

    def boom(*args, **kwargs):
        raise AssertionError("one-seed entry point called")

    spec = _spec(sweep=SweepSpec("n_elements", [8]), methods=["ldt-cffp"], seeds=[1, 2])
    clean = run_experiment(spec)
    monkeypatch.setattr("airsdm.harness.run_ldt_cffp", boom)
    monkeypatch.setattr(ldt_cffp, "solve_qcqp", boom)
    assert _without_wall_time(run_experiment(spec)) == _without_wall_time(clean)


BLOCKED = ["nsp-mrr-pa/ES", "nsp-mrr-pa/PSO", "nsp-mrr-pa/SA",
           "fixed-eta", "fixed-beta", "fixed-both"]


def _rows_of(rows):
    return [(r.method, r.sweep_value, r.seed, r.sr_bits, r.iterations, r.flags, r.eta, r.beta)
            for r in rows]


def _one_seed_runs(spec):
    """The rows of ``spec`` with each seed run as a spec of its own."""
    from airsdm import harness

    rows = [row for seed in spec.seeds for row in run_experiment(replace(spec, seeds=[seed]))]
    return sorted(rows, key=harness._row_key)


def test_blocked_stacks_give_the_rows_of_their_cells():
    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]), methods=BLOCKED,
                 seeds=[1, 2, 3])
    assert _rows_of(run_experiment(spec)) == _rows_of(_one_seed_runs(spec))


@pytest.mark.parametrize("sweep, methods", [
    (SweepSpec("pa_grid", [(0.2, 0.4), (0.6, 0.8), (0.9, 0.1)]), BLOCKED),
    (SweepSpec("total_power_dbm", [10.0, 30.0]), ["zero-reflection"]),
])
def test_pa_grid_and_zero_reflection_stacks_give_the_rows_of_their_seeds(sweep, methods):
    spec = _spec(sweep=sweep, methods=methods, seeds=[1, 2, 3])
    rows = run_experiment(spec)
    assert len(rows) == len(sweep.values) * len(methods) * 3
    assert _rows_of(rows) == _rows_of(_one_seed_runs(spec))


def _recording(monkeypatch, name):
    """Record the seed list of every call to ``harness.<name>``."""
    from airsdm import harness

    original, calls = getattr(harness, name), []

    def recording(*args, **kwargs):
        calls.append(list(args[4] if name == "run_nsp_mrr_pa_seeds" else args[3]))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, recording)
    return calls


@pytest.mark.parametrize("sweep", [SweepSpec("total_power_dbm", [20.0, 30.0]),
                                   SweepSpec("n_elements", [4, 8])], ids=["power", "elements"])
def test_a_blocked_method_runs_its_batch_as_one_stack(monkeypatch, sweep):
    """32 cells: one stack, whose first passes run SA as one array chain,
    and every row is its cell's own run_point row."""
    from airsdm.harness import run_point

    spec = _spec(sweep=sweep, methods=["nsp-mrr-pa/SA"], seeds=list(range(1, 17)))
    calls = _recording(monkeypatch, "run_nsp_mrr_pa_seeds")
    rows = run_experiment(spec)
    assert calls == [spec.seeds * 2]
    alone = [run_point(spec, r.sweep_value, r.method, r.seed)[0] for r in rows]
    assert _rows_of(rows) == _rows_of(alone)


def test_ldt_cffp_runs_one_stack_per_sweep_value(monkeypatch):
    from airsdm import ldt_cffp
    from airsdm.harness import run_point

    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 3)
    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["ldt-cffp", "fixed-both"], seeds=[1, 2, 3])
    ldt = _recording(monkeypatch, "run_ldt_cffp_seeds")
    blocked = _recording(monkeypatch, "run_nsp_mrr_pa_seeds")
    rows = run_experiment(spec)
    assert ldt == [[1, 2, 3], [1, 2, 3]]
    assert blocked == [[1, 1]]      # fixed-both reads no seed: one run per power
    alone = [run_point(spec, r.sweep_value, r.method, r.seed)[0] for r in rows]
    assert _rows_of(rows) == _rows_of(alone)


def test_a_failing_cell_of_a_cross_value_stack_keeps_every_other_row(monkeypatch):
    from airsdm import harness
    from airsdm.pa_search import exhaustive_search

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["nsp-mrr-pa/ES"], seeds=[1, 2, 3])
    clean = run_experiment(spec)
    p_30 = dbm_to_watts(30.0)

    def fails_at_30_dbm_for_seed_2(objective, seed, start=None):
        if objective.p_s == p_30 and seed == 2 and start is None:
            raise np.linalg.LinAlgError(f"synthetic failure at {objective.p_s} W")
        return exhaustive_search(objective, seed, start=start)

    monkeypatch.setitem(harness._TABLE, "nsp-mrr-pa/ES", _blocked(fails_at_30_dbm_for_seed_2))
    rows = run_experiment(spec)
    broken = [r for r in rows if (r.sweep_value, r.seed) == (30.0, 2)]
    assert [r.flags for r in broken] == [[f"error:LinAlgError: synthetic failure at {p_30} W"]]
    assert math.isnan(broken[0].sr_bits) and broken[0].iterations == 0
    assert _rows_of([r for r in rows if r not in broken]) == \
        _rows_of([r for r in clean if (r.sweep_value, r.seed) != (30.0, 2)])


def _blocked(searcher):
    """A blocked method record that picks its splits with ``searcher``."""
    from functools import partial

    from airsdm import harness

    return harness._Method(True, partial(harness._run_blocked, searcher))


def _fails_for_seed_100(objective, seed, start=None):
    from airsdm.pa_search import exhaustive_search

    if seed == 100:
        raise np.linalg.LinAlgError("synthetic failure")
    return exhaustive_search(objective, seed, start=start)


def test_one_failing_seed_keeps_the_other_rows_of_its_blocked_stack(monkeypatch):
    from airsdm import harness

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["nsp-mrr-pa/ES"], seeds=[100, 1, 2])
    clean = run_experiment(spec)
    monkeypatch.setitem(harness._TABLE, "nsp-mrr-pa/ES", _blocked(_fails_for_seed_100))
    rows = run_experiment(spec)
    broken = [r for r in rows if r.seed == 100]
    assert [r.flags for r in broken] == [["error:LinAlgError: synthetic failure"]] * 2
    assert all(math.isnan(r.sr_bits) and r.iterations == 0 for r in broken)
    alone = run_experiment(replace(spec, seeds=[100]))
    assert [(r.sweep_value, r.flags) for r in alone] == [(r.sweep_value, r.flags) for r in broken]
    assert _rows_of([r for r in rows if r.seed != 100]) == \
        _rows_of([r for r in clean if r.seed != 100])


# -- one computation per distinct input -------------------------------------------

SEED_FREE = ["nsp-mrr-pa/ES", "fixed-eta", "fixed-both", "zero-reflection"]
RICIAN = benchmark_scene(m_bs=8, n_irs=8, n1=4, n2=4, rician_k_db=5.0, pl_ref_db=-60.0)


def _counting(monkeypatch, owner, name):
    """Record the positional arguments of every call to ``owner.<name>``."""
    original, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _cells(spec):
    return [(value, seed) for value in spec.sweep.values for seed in spec.seeds]


@pytest.mark.parametrize("method", ["nsp-mrr-pa/ES", "nsp-mrr-pa/SA", "zero-reflection"])
def test_a_los_power_sweep_builds_one_channel_set(monkeypatch, method):
    """A pure-LoS scene ignores the seed and the power, so one method's
    batch builds one channel set and computes its projectors once."""
    from airsdm import harness, nsp_mrr

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]), methods=[method],
                 seeds=[1, 2, 3])
    builds = _counting(monkeypatch, harness, "build_channels")
    projectors = _counting(monkeypatch, nsp_mrr, "nsp_projector")
    rows = run_experiment(spec)
    assert len(rows) == 6
    assert len(builds) == 1
    assert len(projectors) == (2 if harness._TABLE[method].blocked else 0)


def test_a_los_power_sweep_batch_shares_one_channel_set(monkeypatch):
    """A pure-LoS scene ignores the seed and the power, so a batch of three
    methods builds one channel set for all of them, and each blocked
    method computes its projectors once."""
    from airsdm import harness, nsp_mrr

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["nsp-mrr-pa/ES", "nsp-mrr-pa/SA", "zero-reflection"], seeds=[1, 2, 3])
    builds = _counting(monkeypatch, harness, "build_channels")
    projectors = _counting(monkeypatch, nsp_mrr, "nsp_projector")
    rows = run_experiment(spec)
    assert len(rows) == 18
    assert len(builds) == 1
    assert len(projectors) == 2 * 2                 # two blocked methods


@pytest.mark.parametrize("scene, built", [
    (_fast_scene(), [(4, 1), (8, 1)]),            # the first seed's config of each value
    (RICIAN, [(n, s) for n in (4, 8) for s in (1, 2, 3)]),
], ids=["los", "rician"])
def test_an_element_sweep_builds_one_channel_set_per_distinct_scene(monkeypatch, scene, built):
    """A Rician scene draws its channels with the run seed folded in, so a
    batch builds one set per (value, seed), a LoS batch one per value, and
    neither one per method."""
    from airsdm import harness, nsp_mrr

    methods = ["nsp-mrr-pa/PSO", "fixed-both", "zero-reflection"]
    spec = _spec(scene=scene, sweep=SweepSpec("n_elements", [4, 8]), methods=methods,
                 seeds=[1, 2, 3])
    builds = _counting(monkeypatch, harness, "build_channels")
    projectors = _counting(monkeypatch, nsp_mrr, "nsp_projector")
    run_experiment(spec)
    assert [(cfg.n_irs, cfg.seed) for (cfg,) in builds] == built
    assert len(projectors) == 2 * 2 * len(built)    # two blocked methods


def _counting_configs(monkeypatch):
    """Count the SceneConfigs constructed from now on."""
    from airsdm.scene import SceneConfig

    post_init, made = SceneConfig.__post_init__, []

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(SceneConfig, "__post_init__", counting)
    return made


@pytest.mark.parametrize("spec, scenes, projected", [
    (ExperimentSpec(sweep=SweepSpec("n_elements", [32]), methods=["ldt-cffp"],
                    scene=benchmark_scene(), power_dbm=20.0, seeds=list(range(1, 21))), 1, 0),
    (ExperimentSpec(sweep=SweepSpec("total_power_dbm", [10.0, 20.0, 30.0]),
                    methods=["nsp-mrr-pa/ES", "nsp-mrr-pa/PSO", "nsp-mrr-pa/SA",
                             "fixed-eta", "fixed-beta", "fixed-both"],
                    scene=benchmark_scene(), seeds=list(range(1, 21))), 1, 12),
    (ExperimentSpec(sweep=SweepSpec("n_elements", [8]),
                    methods=["ldt-cffp", "nsp-mrr-pa/ES", "nsp-mrr-pa/PSO",
                             "nsp-mrr-pa/SA", "zero-reflection"],
                    scene=RICIAN, power_dbm=20.0, seeds=[1, 2]), 2, 12),
], ids=["ldt-n32", "pa-compare", "rician-n8"])
def test_a_benchmark_batch_builds_each_distinct_scene_once(monkeypatch, spec, scenes, projected):
    """The criterion-7, -6 and -10 batches: one SceneConfig and one
    build_channels call per distinct scene, and each blocked method's
    projectors once per channel set."""
    from airsdm import harness, ldt_cffp, nsp_mrr

    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 3)
    builds = _counting(monkeypatch, harness, "build_channels")
    projectors = _counting(monkeypatch, nsp_mrr, "nsp_projector")
    configs = _counting_configs(monkeypatch)
    rows = run_experiment(spec)
    assert len(rows) == len(spec.methods) * len(spec.seeds) * len(spec.sweep.values)
    assert (len(builds), len(configs), len(projectors)) == (scenes, scenes, projected)


def _same_channels(a, b) -> bool:
    return all(np.array_equal(x, y) for set_a, set_b in zip(a, b)
               for x, y in zip(vars(set_a).values(), vars(set_b).values()))


@pytest.mark.parametrize("sweep", [
    SweepSpec("n_elements", [4, 8]),
    SweepSpec("total_power_dbm", [20.0, 30.0]),
    SweepSpec("n1", [2, 4]),
    SweepSpec("n2", [2, 4]),
    SweepSpec("pa_grid", [(0.2, 0.4), (0.6, 0.8)]),
], ids=lambda sweep: sweep.kind)
@pytest.mark.parametrize("scene", [_fast_scene(), RICIAN], ids=["los", "rician"])
def test_two_cells_share_a_scene_exactly_when_their_channels_are_equal(scene, sweep):
    """Each cell of the plan gets the channels of its own scene, and two
    cells share one channel set exactly when build_channels gives them
    equal arrays."""
    from airsdm import harness

    spec = _spec(scene=scene, sweep=sweep, methods=["nsp-mrr-pa/PSO"], seeds=[1, 2])
    values = [None] if sweep.kind == "pa_grid" else sweep.values
    cells = [(value, seed) for value in values for seed in spec.seeds]
    runs = harness._plan(spec, spec.methods, cells)["nsp-mrr-pa/PSO"]
    planned = [cell for (cell,) in runs]
    assert [cell[:2] for cell in planned] == cells
    own = [build_channels(_scene_at(spec, value, seed)[0]) for value, seed in cells]
    for cell, channels in zip(planned, own):
        assert _same_channels(cell[2], channels)
    for i in range(len(cells)):
        for j in range(i):
            assert (planned[i][2] is planned[j][2]) == _same_channels(own[i], own[j])


def test_a_scene_that_fails_to_build_gives_every_cell_an_error_row():
    """The plan keeps a build's exception, and every run of that scene
    reports it as its cells' rows instead of aborting the batch."""
    from airsdm.scene import SceneConfig

    scene = SceneConfig.from_dict({**_fast_scene().to_dict(), "bob_pos": _fast_scene().bs_pos})
    spec = _spec(scene=scene, methods=["nsp-mrr-pa/ES", "zero-reflection"], seeds=[1, 2])
    rows = run_experiment(spec)
    assert len(rows) == 8
    for r in rows:
        assert math.isnan(r.sr_bits)
        assert r.flags == ["error:ValueError: coincident node positions: (0.0, 0.0, 0.0)"]


def test_run_point_rejects_a_pa_grid_spec():
    """A pa_grid cell stands for every pair, so one row cannot be its result."""
    from airsdm.harness import run_point

    spec = _spec(sweep=SweepSpec("pa_grid", [(0.2, 0.3), (0.9, 0.1)]), methods=["fixed-both"],
                 seeds=[1])
    for value in ((0.9, 0.1), (0.5, 0.5), None):
        with pytest.raises(ValueError, match="pa_grid"):
            run_point(spec, value, "fixed-both", 1)


def test_a_method_that_reads_no_seed_runs_once_per_power(monkeypatch):
    """Every row is its own run_point row; the cells of one shared run split
    its wall time evenly, and each row and trace owns its flags list."""
    from airsdm import harness
    from airsdm.harness import run_point

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]), methods=SEED_FREE,
                 seeds=[1, 2, 3, 4])
    rows = run_experiment(spec)
    alone = [run_point(spec, r.sweep_value, r.method, r.seed)[0] for r in rows]
    assert _rows_of(rows) == _rows_of(alone)

    shared = {}
    for method in SEED_FREE:
        record = harness._TABLE[method]
        assert not record.reads_seed

        def run(*args, record=record, method=method):
            runs = record.run(*args)
            shared[method] = (list(args[3]), [trace.wall_time_s for _, trace in runs])
            return runs

        monkeypatch.setitem(harness._TABLE, method, record._replace(run=run))
    for method in SEED_FREE:
        rows, traces = harness._run_seeds(spec, method,
                                          harness._plan(spec, [method], _cells(spec))[method])
        seeds, walls = shared[method]
        assert seeds == [1, 1]                        # one run per power
        for power, wall in zip(spec.sweep.values, walls):
            shares = [r.wall_time_s for r in rows if r.sweep_value == power]
            assert len(shares) == 4 and len(set(shares)) == 1
            assert math.isclose(sum(shares), wall, rel_tol=1e-12)
        assert [t.wall_time_s for t in traces] == [r.wall_time_s for r in rows]
        lists = [r.flags for r in rows] + [t.flags for t in traces]
        assert len({id(flags) for flags in lists}) == len(lists)


def test_a_failing_shared_run_gives_each_of_its_cells_an_error_row(monkeypatch):
    from functools import partial

    from airsdm import harness
    from airsdm.pa_search import exhaustive_search

    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["nsp-mrr-pa/ES"], seeds=[1, 2, 3])
    clean = run_experiment(spec)
    p_30 = dbm_to_watts(30.0)
    failures = []

    def fails_at_30_dbm(objective, seed, start=None):
        if objective.p_s == p_30 and start is None:
            failures.append(seed)
            raise np.linalg.LinAlgError(f"synthetic failure at {objective.p_s} W")
        return exhaustive_search(objective, seed, start=start)

    record = harness._TABLE["nsp-mrr-pa/ES"]
    monkeypatch.setitem(harness._TABLE, "nsp-mrr-pa/ES",
                        record._replace(run=partial(harness._run_blocked, fails_at_30_dbm)))
    rows = run_experiment(spec)
    assert len(failures) <= 2       # the shared stack, then the run's one rerun
    broken = [r for r in rows if r.sweep_value == 30.0]
    flag = f"error:LinAlgError: synthetic failure at {p_30} W"
    assert [(r.seed, r.flags) for r in broken] == [(s, [flag]) for s in spec.seeds]
    assert all(math.isnan(r.sr_bits) and r.iterations == 0 for r in broken)
    assert len({id(r.flags) for r in broken}) == 3
    assert _rows_of([r for r in rows if r not in broken]) == \
        _rows_of([r for r in clean if r.sweep_value == 20.0])


def _assert_same_design(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


@pytest.mark.parametrize("scene", [benchmark_scene(), RICIAN], ids=["default", "rician"])
def test_every_record_that_reads_no_seed_gives_one_result_for_every_seed(scene):
    """Guards the table: a record declared seed-free shares one run among
    its seeds, so its runner must not depend on the seed it is given."""
    from airsdm import harness

    noise = _noise_profile(_spec())
    mono, blocked = build_channels(replace(scene, seed=scene.seed + 1))
    checked = []
    for name, record in harness._TABLE.items():
        if record.reads_seed:
            continue
        ch = blocked if record.blocked else mono
        (d1, t1), (d7, t7) = (record.run([ch], noise, [dbm_to_watts(20.0)], [seed], True)[0]
                              for seed in (1, 7))
        _assert_same_design(d1, d7)
        assert (t1.iterations, t1.converged, t1.flags) == (t7.iterations, t7.converged, t7.flags)
        assert [{k: v for k, v in row.items() if k != "wall_time_s"} for row in t1.rows] == \
            [{k: v for k, v in row.items() if k != "wall_time_s"} for row in t7.rows]
        checked.append(name)
    assert checked == ["nsp-mrr-pa/ES", "fixed-eta", "fixed-beta", "fixed-both",
                       "zero-reflection"]


def test_a_failing_pa_grid_seed_gives_a_flagged_row_per_pair(monkeypatch, tmp_path):
    from airsdm import harness

    pairs = [(0.2, 0.4), (0.6, 0.8)]
    spec = _spec(sweep=SweepSpec("pa_grid", pairs), methods=["nsp-mrr-pa/ES"],
                 seeds=[100, 1], power_dbm=20.0)
    monkeypatch.setitem(harness._TABLE, "nsp-mrr-pa/ES", _blocked(_fails_for_seed_100))
    rows = run_experiment(spec)
    assert [(r.sweep_value, r.seed) for r in rows] == [
        ((0.2, 0.4), 1), ((0.2, 0.4), 100), ((0.6, 0.8), 1), ((0.6, 0.8), 100)]
    for r in rows:
        assert math.isnan(r.sr_bits) == (r.seed == 100)
        assert (r.flags == ["error:LinAlgError: synthetic failure"]) == (r.seed == 100)
    csv_path, json_path = emit_results(rows, tmp_path / "grid", ("csv", "json"))
    assert repr(read_results_csv(csv_path)) == repr(rows)
    assert repr(read_results_json(json_path)) == repr(rows)


def test_a_block_skipped_for_one_seed_reruns_each_seed_alone(monkeypatch):
    """Seed 5 starts 1.5 times over the budget, so its first v_b block has
    no budget and cannot be solved: QcqpProblem's ValueError fails the
    stack, every seed reruns on its own, seed 5 gets one NaN error row and
    seeds 4 and 6 the rows of their own runs."""
    from airsdm import ldt_cffp
    from airsdm.harness import run_point

    overspend_seed(monkeypatch, 5, 1.5)
    monkeypatch.setattr(ldt_cffp, "MAX_ITERS", 30)
    spec = _spec(sweep=SweepSpec("n_elements", [8]), methods=["ldt-cffp"], seeds=[4, 5, 6])
    rows = run_experiment(spec)
    assert [r.seed for r in rows] == [4, 5, 6]
    bad = rows[1]
    assert math.isnan(bad.sr_bits) and bad.iterations == 0
    assert len(bad.flags) == 1
    assert bad.flags[0].startswith("error:ValueError: power budget must be positive")
    for row in (rows[0], rows[2]):
        alone, _ = run_point(spec, 8, "ldt-cffp", row.seed)
        assert _rows_of([row]) == _rows_of([alone])


def test_a_failing_swarm_stack_reruns_each_seed_alone(monkeypatch):
    from airsdm import pa_search

    spec = _spec(sweep=SweepSpec("n_elements", [8]), methods=["nsp-mrr-pa/PSO"],
                 seeds=[1, 2, 3])
    clean = run_experiment(spec)
    swarms = pa_search._swarms
    calls = {"stacked": 0}

    def fails_in_a_stack(values, seeds):
        if len(seeds) > 1:
            calls["stacked"] += 1
            if calls["stacked"] == 2:
                raise FloatingPointError("synthetic failure")
        return swarms(values, seeds)

    monkeypatch.setattr(pa_search, "_swarms", fails_in_a_stack)
    rows = run_experiment(spec)
    assert calls["stacked"] == 2
    assert _rows_of(rows) == _rows_of(clean)


def test_run_experiment_ldt_rows_report_iterations():
    spec = _spec(sweep=SweepSpec("n_elements", [8]), methods=["ldt-cffp"],
                 seeds=[1])
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].iterations >= 1
    assert rows[0].sr_bits > 0.0
    assert rows[0].flags == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ldt_rows_at_extreme_snr_raise_no_warning():
    # at 90 dBm over -120 dBm noise some multiplier searches have a outside
    # range(A) with eigenvalues clipped to 0; a warning would flag the row
    spec = ExperimentSpec(sweep=SweepSpec("total_power_dbm", [90.0]), methods=["ldt-cffp"],
                          noise_dbm=-120.0, seeds=[1])
    (row,) = run_experiment(spec)
    assert row.flags == [] and math.isfinite(row.sr_bits) and row.sr_bits > 0.0


def test_pa_grid_sweep_reports_the_converged_surface():
    pairs = [(0.2, 0.4), (0.6, 0.8)]
    spec = _spec(sweep=SweepSpec("pa_grid", pairs), methods=["nsp-mrr-pa/ES"],
                 seeds=[1, 2], power_dbm=20.0)
    rows = run_experiment(spec)
    assert len(rows) == 4                      # one row per (pair, seed)
    assert [(r.sweep_value, r.seed) for r in rows] == [
        ((0.2, 0.4), 1), ((0.2, 0.4), 2), ((0.6, 0.8), 1), ((0.6, 0.8), 2)]
    for r in rows:
        assert (r.eta, r.beta) == r.sweep_value
        assert math.isfinite(r.sr_bits)
    # both surface rows of one seed come from the same pipeline run
    by_seed = [r for r in rows if r.seed == 1]
    assert by_seed[0].iterations == by_seed[1].iterations


def test_pa_grid_rows_are_the_model_rate_at_the_design_moved_to_each_pair():
    """On a scene whose null spaces are trivial (M <= n_k + 1) the closed form
    drops leaking paths; a pa_grid row is still the model's rate at its split."""
    pairs = [(0.1, 0.5), (0.5, 0.99), (0.9, 0.99)]
    spec = _spec(sweep=SweepSpec("pa_grid", pairs), methods=["fixed-beta"],
                 scene=benchmark_scene(m_bs=4, n_irs=8, n1=4, n2=4, rician_k_db=5.0,
                                       pl_ref_db=-60.0),
                 power_dbm=20.0)
    rows = run_experiment(spec)
    assert len(rows) == 9
    noise = _noise_profile(spec)
    for seed in spec.seeds:
        cfg, p_watts = _scene_at(spec, None, seed)
        bch = build_channels(cfg)[1]
        d, _ = run_nsp_mrr_pa(bch, noise, p_watts, fixed_beta_search, seed)
        for r in (r for r in rows if r.seed == seed):
            moved = PaScalarContext(bch, d, noise).at(*r.sweep_value)
            assert r.sr_bits == blocked_secrecy_rate(bch, moved, noise)
            assert (r.eta, r.beta) == r.sweep_value


# -- emission and parsing --------------------------------------------------------------

def _sample_rows():
    return [
        ResultRow("ldt-cffp", "n_elements", 8, 1, 3.25, 17, 0.125,
                  ["iteration-cap"]),
        ResultRow("nsp-mrr-pa/ES", "pa_grid", (0.25, 0.75), 2, 0.5, 2, 0.0625,
                  ["a;b", "c"], eta=0.25, beta=0.75),
        ResultRow("zero-reflection", "total_power_dbm", 12.5, 3, float("nan"),
                  0, 1e-9, []),
    ]


def test_csv_round_trip_is_lossless(tmp_path):
    rows = _sample_rows()
    paths = emit_results(rows, tmp_path / "out", formats=("csv",))
    assert paths == [tmp_path / "out.csv"]

    text = paths[0].read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert "0.25|0.75" in lines[3]             # tuple sweep value encoding
    assert "a,b;c" in lines[3]                 # ';' inside a flag is sanitized

    back = read_results_csv(paths[0])
    assert back[0] == rows[0]
    assert back[1].flags == ["a,b", "c"]       # sanitization is the one lossy bit
    assert back[1].sweep_value == (0.25, 0.75)
    assert (back[1].eta, back[1].beta) == (0.25, 0.75)
    assert math.isnan(back[2].sr_bits)
    assert back[2].eta is None and back[2].beta is None
    assert back[2].sweep_value == 12.5


def test_json_round_trip_is_lossless(tmp_path):
    rows = _sample_rows()
    paths = emit_results(rows, tmp_path / "out", formats=("json", "csv"))
    assert paths == [tmp_path / "out.json", tmp_path / "out.csv"]
    payload = json.loads(paths[0].read_text())
    assert payload["schema"] == "airsdm-results v1"

    back = read_results_json(paths[0])
    assert back[0] == rows[0]
    assert back[1].sweep_value == (0.25, 0.75)
    assert math.isnan(back[2].sr_bits)


def test_a_dotted_stem_keeps_its_dot(tmp_path):
    """``out`` is a stem, not a file name: p.10dBm and p.20dBm are two tables."""
    rows = _sample_rows()
    low = emit_results(rows, tmp_path / "p.10dBm", formats=("csv", "json"))
    high = emit_results(rows[:1], str(tmp_path / "p.20dBm"), formats=("csv",))
    assert low == [tmp_path / "p.10dBm.csv", tmp_path / "p.10dBm.json"]
    assert high == [tmp_path / "p.20dBm.csv"]
    assert (len(read_results_csv(low[0])), len(read_results_csv(high[0]))) == (3, 1)


def test_emit_rejects_empty_tables_and_unknown_formats(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], tmp_path / "out")
    with pytest.raises(ValueError):
        emit_results(_sample_rows(), tmp_path / "out", formats=("yaml",))


def test_readers_reject_foreign_files(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results_csv(bad)

    badj = tmp_path / "other.json"
    badj.write_text(json.dumps({"schema": "something-else", "rows": []}))
    with pytest.raises(ValueError, match="schema"):
        read_results_json(badj)

    short = tmp_path / "short.csv"
    short.write_text(CSV_SCHEMA + "\n" + ",".join(CSV_COLUMNS) + "\nldt-cffp,n_elements,8\n")
    with pytest.raises(ValueError, match="short.csv"):
        read_results_csv(short)

    for name, text in (("list", "[]"),
                       ("truncated", '{"schema": "airsdm-results v1", "rows": ['),
                       ("no-rows", json.dumps({"schema": "airsdm-results v1"})),
                       ("no-seed", json.dumps({"schema": "airsdm-results v1",
                                               "rows": [{"method": "ldt-cffp"}]}))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{name}.json"):
            read_results_json(path)

    with pytest.raises(OSError):
        read_results_csv(tmp_path / "missing.csv")
    with pytest.raises(OSError):
        read_results_json(tmp_path / "missing.json")


DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def test_v1_fixtures_read_back_and_rewrite_byte_for_byte(tmp_path):
    """The v1 tables in tests/data were written from _sample_rows(); every
    later reader must keep reading them, and the writer must keep writing them."""
    rows = _sample_rows()
    assert repr(read_results_json(DATA / "results_v1.json")) == repr(rows)
    rows_in_csv = [replace(r, flags=[f.replace(";", ",") for f in r.flags]) for r in rows]
    assert repr(read_results_csv(DATA / "results_v1.csv")) == repr(rows_in_csv)

    csv_path, json_path = emit_results(rows, tmp_path / "results_v1", ("csv", "json"))
    assert csv_path.read_bytes() == (DATA / "results_v1.csv").read_bytes()
    assert json_path.read_bytes() == (DATA / "results_v1.json").read_bytes()


def _edited_fixture(tmp_path, suffix: str, edit) -> Path:
    path = tmp_path / f"bad.{suffix}"
    text = (DATA / f"results_v1.{suffix}").read_text()
    if suffix == "json":
        payload = json.loads(text)
        edit(payload["rows"][0])
        path.write_text(json.dumps(payload))
    else:
        path.write_text(edit(text))
    return path


@pytest.mark.parametrize("suffix, edit", [
    ("json", lambda rec: rec.update(seed=1.5)),
    ("json", lambda rec: rec.update(iterations=True)),
    ("json", lambda rec: rec.update(flags="iteration-cap")),
    ("json", lambda rec: rec.update(sweep_value="abc")),
    ("json", lambda rec: rec.update(sweep_value=[0.25, 0.75, 0.5])),
    ("csv", lambda text: text.replace("0.25|0.75", "0.25|0.75|0.5")),
    ("csv", lambda text: text.replace("iteration-cap,,", "iteration-cap,,,")),
], ids=["float-seed", "bool-iterations", "text-flags", "text-sweep-value",
        "json-three-element-pair", "csv-three-element-pair", "csv-extra-cell"])
def test_readers_reject_wrongly_typed_fields(tmp_path, suffix, edit):
    path = _edited_fixture(tmp_path, suffix, edit)
    read = read_results_json if suffix == "json" else read_results_csv
    with pytest.raises(ValueError, match=f"bad.{suffix}"):
        read(path)


@pytest.mark.parametrize("formats, message", [
    (("csv", "yaml"), "unknown format 'yaml'"),
    (("csv", "csv"), "formats must be distinct"),
], ids=["unknown", "repeated"])
def test_emit_checks_every_format_before_writing_any_file(tmp_path, formats, message):
    with pytest.raises(ValueError, match=message):
        emit_results(_sample_rows(), tmp_path / "out", formats)
    assert list(tmp_path.iterdir()) == []


def test_the_readme_documents_the_results_header():
    section = README.read_text().split("## Results format", 1)[1]
    block = section.split("```", 2)[1]
    assert block.splitlines()[1:3] == [CSV_SCHEMA, ",".join(CSV_COLUMNS)]


def _strip_wall(csv_text: str) -> list[str]:
    wall_col = CSV_COLUMNS.index("wall_time_s")
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        del cells[wall_col]
        out.append(",".join(cells))
    return out


def test_experiment_is_reproducible_modulo_wall_time(tmp_path):
    spec = _spec(methods=["ldt-cffp", "nsp-mrr-pa/ES", "zero-reflection"],
                 sweep=SweepSpec("n_elements", [8]), seeds=[1, 2])
    emit_results(run_experiment(spec), tmp_path / "a")
    emit_results(run_experiment(spec), tmp_path / "b")
    a = _strip_wall((tmp_path / "a.csv").read_text())
    b = _strip_wall((tmp_path / "b.csv").read_text())
    assert a == b


def test_method_registry_is_complete():
    assert METHODS == ("ldt-cffp", "nsp-mrr-pa/ES", "nsp-mrr-pa/PSO",
                       "nsp-mrr-pa/SA", "fixed-eta", "fixed-beta",
                       "fixed-both", "zero-reflection")


def test_ldt_cffp_and_zero_reflection_rows_reproduce_the_recorded_golden():
    """Rows recorded before the methods became one table, every column but
    wall time: an ldt-cffp batch whose stacks split at the power, and the
    closed-form baseline."""
    golden = json.loads((Path(__file__).parent / "data" / "method_rows_golden.json").read_text())
    spec = ExperimentSpec(sweep=SweepSpec("total_power_dbm", [10.0, 30.0]),
                          methods=["ldt-cffp", "zero-reflection"],
                          scene=benchmark_scene(m_bs=4, n_irs=8, rician_k_db=5.0,
                                                pl_ref_db=-55.0),
                          seeds=[1, 2])
    rows = run_experiment(spec)
    assert [[getattr(r, c) for c in golden["columns"]] for r in rows] == golden["rows"]


def test_a_method_added_as_one_table_record_runs_everywhere(monkeypatch, capsys):
    """A second ES record under a new name runs in a batch, is a pa_grid
    method and traces from the command line, with no other edit."""
    from airsdm import harness
    from airsdm.cli import main
    from airsdm.pa_search import exhaustive_search

    monkeypatch.setitem(harness._TABLE, "es-twin", _blocked(exhaustive_search))
    spec = _spec(sweep=SweepSpec("total_power_dbm", [20.0, 30.0]),
                 methods=["nsp-mrr-pa/ES", "es-twin"], seeds=[1, 2])
    rows = run_experiment(spec)
    twin = [replace(r, method="nsp-mrr-pa/ES") for r in rows if r.method == "es-twin"]
    assert len(twin) == 4
    assert _rows_of(twin) == _rows_of([r for r in rows if r.method == "nsp-mrr-pa/ES"])
    grid = _spec(sweep=SweepSpec("pa_grid", [(0.2, 0.4)]), methods=["es-twin"], seeds=[1])
    assert [(r.method, r.eta, r.beta) for r in run_experiment(grid)] == [("es-twin", 0.2, 0.4)]
    assert main(["trace", "--method", "es-twin", "--n", "8", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["iterations"] >= 1


def test_run_point_gives_the_closed_form_baseline_a_trace_without_iterations():
    """With one BS antenna the AN beam cannot be nulled at Bob, so the row is flagged."""
    from airsdm.harness import run_point

    spec = _spec(scene=benchmark_scene(m_bs=1, n_irs=8, pl_ref_db=-55.0), seeds=[1])
    row, trace = run_point(spec, 8, "zero-reflection", 1)
    assert (trace.iterations, trace.rows) == (0, [])
    assert trace.flags == row.flags == ["zero-reflection-degenerate"]
    assert trace.wall_time_s == row.wall_time_s > 0.0


def test_the_globals_that_traced_runs_wrap_stay_importable():
    """bench/spans.py traces a run by replacing these module globals, so each
    must stay defined even where its module no longer calls it."""
    import importlib

    wrapped = {
        "harness": ("build_channels", "run_ldt_cffp", "run_nsp_mrr_pa", "secrecy_rate",
                    "blocked_secrecy_rate"),
        "ldt_cffp": ("assemble_vb", "assemble_ve", "assemble_theta", "QcqpProblem",
                     "optimal_aux", "solve_qcqp", "secrecy_rate", "total_power",
                     "ldt_objective"),
        "nsp_mrr": ("nsp_beamformers", "nsp_projector", "mrr_reflect", "amplification_rho",
                    "PaScalarContext"),
    }
    missing = [f"{module}.{name}" for module, names in wrapped.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"airsdm.{module}"), name, None))]
    assert missing == []
