"""Command-line front end: exit codes, axis rules, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from airsdm import cli
from airsdm.cli import main
from airsdm.harness import ExperimentSpec, SweepSpec, read_results_csv
from airsdm.scene import benchmark_scene


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


def test_sweep_writes_a_result_table(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["sweep", "--n", "8", "--method", "zero-reflection",
                 "--seeds", "1,2", "--out", str(out)])
    assert code == 0
    assert "wrote 2 rows" in capsys.readouterr().out

    rows = read_results_csv(out.with_suffix(".csv"))
    assert len(rows) == 2
    assert all(r.sweep_name == "n_elements" and r.sweep_value == 8 for r in rows)
    assert [r.seed for r in rows] == [1, 2]


def test_sweep_accepts_comma_separated_methods(tmp_path):
    out = tmp_path / "res"
    code = main(["sweep", "--n", "8", "--method", "zero-reflection,fixed-both",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    rows = read_results_csv(out.with_suffix(".csv"))
    assert sorted({r.method for r in rows}) == ["fixed-both", "zero-reflection"]


def test_sweep_over_power_uses_the_requested_element_count(tmp_path):
    out = tmp_path / "res"
    code = main(["sweep", "--n", "16", "--power-dbm", "10,20",
                 "--method", "fixed-both", "--seeds", "1", "--out", str(out),
                 "--formats", "csv,json"])
    assert code == 0
    rows = read_results_csv(out.with_suffix(".csv"))
    assert [r.sweep_value for r in rows] == [10.0, 20.0]
    assert all(r.sweep_name == "total_power_dbm" for r in rows)
    assert out.with_suffix(".json").exists()


def test_sweep_over_both_axes_is_rejected(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["sweep", "--n", "8,16", "--power-dbm", "10,30",
                 "--method", "zero-reflection", "--seeds", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--n" in err and "--power-dbm" in err
    assert not out.with_suffix(".csv").exists()


def test_sweep_without_an_axis_is_rejected(capsys):
    code = main(["sweep", "--method", "zero-reflection"])
    assert code == 2
    assert capsys.readouterr().err.startswith("airsdm:")


def test_sweep_with_an_unknown_method_is_rejected(capsys):
    code = main(["sweep", "--n", "8", "--method", "simplex"])
    assert code == 2
    assert "simplex" in capsys.readouterr().err


def test_run_executes_a_spec_file(tmp_path, capsys):
    spec = ExperimentSpec(
        sweep=SweepSpec("n_elements", [8]),
        methods=["zero-reflection"],
        scene=benchmark_scene(m_bs=4, n_irs=8),
        seeds=[1, 2, 3],
        out=str(tmp_path / "from-spec"),
    )
    path = tmp_path / "spec.json"
    spec.to_file(path)
    assert main(["run", str(path)]) == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert len(read_results_csv(tmp_path / "from-spec.csv")) == 3


def test_run_out_flag_overrides_the_spec(tmp_path):
    spec = ExperimentSpec(
        sweep=SweepSpec("n_elements", [8]),
        methods=["zero-reflection"],
        scene=benchmark_scene(m_bs=4, n_irs=8),
        seeds=[1],
        out=str(tmp_path / "ignored"),
    )
    path = tmp_path / "spec.json"
    spec.to_file(path)
    assert main(["run", str(path), "--out", str(tmp_path / "actual")]) == 0
    assert (tmp_path / "actual.csv").exists()
    assert not (tmp_path / "ignored.csv").exists()


def test_run_with_a_missing_spec_is_an_invalid_spec_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 2
    assert "airsdm:" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"sweep": {"kind": "pa_grid", "values": [0.5]}},
    {"sweep": {"kind": "total_power_dbm", "values": [None]}},
    {"power_dbm": float("nan")},
    {"noise_dbm": float("inf")},
    {"seeds": [1, 1.5]},
    {"seeds": [-1]},
    {"scene": benchmark_scene(m_bs=4, n_irs=8, rician_k_db=5.0, seed=-2).to_dict(),
     "seeds": [1]},
])
def test_run_with_a_malformed_spec_is_an_invalid_spec_error(tmp_path, capsys, change):
    spec = ExperimentSpec(
        sweep=SweepSpec("n_elements", [8]), methods=["nsp-mrr-pa/ES"],
        scene=benchmark_scene(m_bs=4, n_irs=8), seeds=[1],
        out=str(tmp_path / "never-written"),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec.to_dict(), **change}))   # NaN/Infinity literals
    assert main(["run", str(path)]) == 2
    assert "airsdm:" in capsys.readouterr().err
    assert not (tmp_path / "never-written.csv").exists()


def test_unwritable_output_is_a_runtime_error(tmp_path, capsys):
    code = main(["sweep", "--n", "8", "--method", "zero-reflection",
                 "--seeds", "1", "--out", str(tmp_path / "no-such-dir" / "res")])
    assert code == 1
    assert "airsdm:" in capsys.readouterr().err


def test_validate_reports_five_passing_suites(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "5/5 invariant suites passed" in out
    assert out.count("ok  ") == 5
    assert "FAIL" not in out


def test_the_module_runs_as_the_airsdm_command(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "airsdm.cli", "validate", "--checks", "1"],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "5/5 invariant suites passed" in out.stdout


def test_validate_exits_1_when_a_suite_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_SUITES", (
        ("passing", lambda checks, seed: (True, "fine")),
        ("failing", lambda checks, seed: (False, f"broken at seed {seed}")),
    ))
    assert main(["validate", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "ok   passing: fine" in out
    assert "FAIL failing: broken at seed 3" in out
    assert "1/2 invariant suites passed" in out



@pytest.mark.parametrize("checks", ["0", "-3"])
def test_validate_rejects_fewer_than_one_check(monkeypatch, capsys, checks):
    monkeypatch.setattr(cli, "_SUITES", (("passing", lambda checks, seed: (True, "fine")),))
    assert main(["validate", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert "--checks must be at least 1" in captured.err
    assert "suites passed" not in captured.out

def test_trace_emits_json_lines(capsys):
    assert main(["trace", "--method", "nsp-mrr-pa/ES", "--n", "8",
                 "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows, summary = [json.loads(l) for l in lines[:-1]], json.loads(lines[-1])
    assert summary["converged"] is True
    assert summary["iterations"] == len(rows)
    assert set(summary) == {"converged", "iterations", "wall_time_s", "flags"}
    for row in rows:
        assert set(row) == {"iteration", "eta", "beta", "rho1", "rho2",
                            "sr_bits", "beamformer_delta", "search_evals",
                            "wall_time_s"}


def test_trace_writes_to_a_file(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--method", "nsp-mrr-pa/SA", "--n", "8",
                 "--out", str(out)]) == 0
    assert "trace rows" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 2
    json.loads(lines[0])


def test_trace_rejects_the_closed_form_baseline(capsys):
    assert main(["trace", "--method", "zero-reflection"]) == 2
    assert "airsdm:" in capsys.readouterr().err


def test_trace_rejects_an_odd_element_count(capsys):
    assert main(["trace", "--n", "7"]) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--power-dbm", "nan"), ("--power-dbm", "inf"),
                                         ("--noise-dbm", "nan"), ("--seed", "-1")])
def test_trace_rejects_what_run_rejects(capsys, flag, value):
    assert main(["trace", "--n", "8", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("airsdm:")
    assert captured.out == ""
