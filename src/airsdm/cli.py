"""Command-line front end: run spec files, quick sweeps, invariant checks.

Subcommands:

* ``run <spec.json>`` — execute an experiment spec and write result tables;
* ``sweep`` — build a one-axis experiment from inline flags and run it;
* ``validate`` — run the fast invariant suites on a toy scene;
* ``trace`` — run one method once and dump its per-iteration trace.

Exit status: 0 on success, 2 on usage / invalid-spec errors, 1 on runtime
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .scene import SceneConfig, benchmark_scene, build_channels, dbm_to_watts
from .model import (
    Design,
    NoiseProfile,
    ldt_objective,
    total_power,
    virtual_rate,
)
from .ldt_cffp import (
    QcqpProblem,
    assemble_theta,
    assemble_vb,
    assemble_ve,
    kkt_residuals,
    optimal_aux,
    solve_qcqp,
)
from .nsp_mrr import (
    PaScalarContext,
    blocked_secrecy_rate,
    run_nsp_mrr_pa,
)
from .pa_search import fixed_point_search
from .harness import (
    METHODS,
    ExperimentSpec,
    SweepSpec,
    emit_results,
    run_experiment,
    run_point,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsdm",
        description="Secrecy-rate experiments for an active-IRS-aided "
                    "directional modulation link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment spec file")
    p_run.add_argument("spec", help="path to the experiment spec (JSON)")
    p_run.add_argument("--out", help="override the spec's output path stem")

    p_sweep = sub.add_parser("sweep", help="run a one-axis sweep from inline flags")
    p_sweep.add_argument("--n", help="comma-separated IRS element counts "
                                     "(n_elements sweep when more than one, or when "
                                     "--power-dbm is a single value)")
    p_sweep.add_argument("--power-dbm", default="20",
                         help="total power in dBm; comma-separated values sweep power")
    p_sweep.add_argument("--method", action="append",
                         help=f"method name (repeatable or comma-separated); one of {', '.join(METHODS)}")
    p_sweep.add_argument("--seeds", help="comma-separated seed list (default 1..20)")
    p_sweep.add_argument("--noise-dbm", type=float, default=-70.0,
                         help="noise power per receiver and per IRS element (dBm)")
    p_sweep.add_argument("--out", default="results", help="output path stem")
    p_sweep.add_argument("--formats", default="csv", help="comma-separated: csv,json")

    p_val = sub.add_parser("validate", help="run the invariant suites on a toy scene")
    p_val.add_argument("--checks", type=int, default=10,
                       help="random instances per suite (default 10)")
    p_val.add_argument("--seed", type=int, default=0, help="base RNG seed")

    p_trace = sub.add_parser("trace", help="run one method and dump its iteration trace")
    p_trace.add_argument("--method", default="nsp-mrr-pa/ES",
                         help=f"one of {', '.join(m for m in METHODS if m != 'zero-reflection')}")
    p_trace.add_argument("--n", type=int, default=16, help="IRS element count (even)")
    p_trace.add_argument("--power-dbm", type=float, default=20.0)
    p_trace.add_argument("--noise-dbm", type=float, default=-70.0)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--out", help="write JSON lines here instead of stdout")
    return parser


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_run(args) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    rows = run_experiment(spec)
    out = args.out or spec.out or "results"
    paths = emit_results(rows, out, tuple(spec.formats))
    print(f"wrote {len(rows)} rows to {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_sweep(args) -> int:
    methods: list[str] = []
    for chunk in args.method or ["nsp-mrr-pa/ES"]:
        methods.extend(m.strip() for m in chunk.split(",") if m.strip())
    powers = _parse_floats(args.power_dbm)
    counts = _parse_ints(args.n) if args.n else []

    if len(counts) > 1 and len(powers) > 1:
        raise ValueError("a sweep has one axis: give several values to --n "
                         "(n_elements) or to --power-dbm (total_power_dbm), not both")
    if counts and (len(counts) > 1 or len(powers) <= 1):
        sweep = SweepSpec(kind="n_elements", values=counts)
        power_dbm = powers[0] if powers else 20.0
        scene = SceneConfig()
    elif len(powers) > 1:
        sweep = SweepSpec(kind="total_power_dbm", values=powers)
        power_dbm = powers[0]
        scene = SceneConfig() if not counts else benchmark_scene(n_irs=counts[0])
    else:
        raise ValueError("need a sweep axis: pass --n with values and/or "
                         "multiple --power-dbm values")

    spec = ExperimentSpec(
        sweep=sweep,
        methods=methods,
        scene=scene,
        power_dbm=power_dbm,
        noise_dbm=args.noise_dbm,
        seeds=_parse_ints(args.seeds) if args.seeds else list(range(1, 21)),
        out=args.out,
        formats=[f.strip() for f in args.formats.split(",") if f.strip()],
    )
    rows = run_experiment(spec)
    paths = emit_results(rows, args.out, tuple(spec.formats))
    print(f"wrote {len(rows)} rows to {', '.join(str(p) for p in paths)}")
    return 0


# --- validate: fast invariant suites ---------------------------------------

def _toy_scene(seed: int) -> SceneConfig:
    return benchmark_scene(m_bs=4, n_irs=8, n1=4, n2=4,
                           rician_k_db=5.0, seed=seed)


def _random_design(ch, noise: NoiseProfile, p_max: float, rng) -> Design:
    m = ch.h_b.size
    n = ch.g_b.size
    v_b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v_e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = Design(v_b=v_b, v_e=v_e, theta=theta)
    spend = total_power(ch, d, noise)
    scale = math.sqrt(rng.uniform(0.2, 0.9) * p_max / spend)
    return Design(v_b=scale * v_b, v_e=scale * v_e, theta=scale * theta)


def _check_qcqp(checks: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(checks):
        n = int(rng.integers(1, 4))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob = QcqpProblem(
            a=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            A=B.conj().T @ B / n,
            F=C.conj().T @ C / n + np.eye(n),
            p_budget=float(rng.uniform(0.1, 5.0)),
        )
        sol = solve_qcqp(prob)
        res = kkt_residuals(prob, sol)
        scale_a = float(np.linalg.norm(prob.a))
        worst = max(worst,
                    res["stationarity"] / scale_a,
                    abs(res["comp_slack"]) / prob.p_budget,
                    max(0.0, res["feasibility"]) / prob.p_budget)
    return worst <= 1e-6, f"worst residual {worst:.2e}"


def _check_tightness(checks: int, seed: int) -> tuple[bool, str]:
    noise = NoiseProfile()
    worst = 0.0
    for i in range(checks):
        ch, _ = build_channels(_toy_scene(seed + i))
        rng = np.random.default_rng(1000 + i)
        d = _random_design(ch, noise, dbm_to_watts(30.0), rng)
        aux = optimal_aux(ch, d, noise)
        vr = virtual_rate(ch, d, noise)
        surrogate = ldt_objective(ch, d, noise, aux)
        worst = max(worst, abs(surrogate - vr) / max(abs(vr), 1e-30))
    return worst <= 1e-8, f"worst relative gap {worst:.2e}"


def _check_assembly(checks: int, seed: int) -> tuple[bool, str]:
    noise = NoiseProfile()
    p_max = dbm_to_watts(30.0)
    worst = 0.0
    for i in range(checks):
        ch, _ = build_channels(_toy_scene(seed + 50 + i))
        rng = np.random.default_rng(2000 + i)
        d = _random_design(ch, noise, p_max, rng)
        aux = optimal_aux(ch, d, noise)
        for block, assemble in (("v_b", assemble_vb), ("v_e", assemble_ve),
                                ("theta", assemble_theta)):
            prob = assemble(ch, d, noise, aux, p_max)
            x = {"v_b": d.v_b, "v_e": d.v_e, "theta": d.theta.conj()}[block]
            y = 0.5 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))

            def obj(z):
                return float(2.0 * np.real(np.vdot(prob.a, z))
                             - np.real(np.vdot(z, prob.A @ z)))

            def swapped(z):
                alt = d.copy()
                setattr(alt, block, z.conj() if block == "theta" else z)
                return alt

            lhs = obj(x) - obj(y)
            rhs = (ldt_objective(ch, swapped(x), noise, aux)
                   - ldt_objective(ch, swapped(y), noise, aux))
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))

            # compare whole spends: the theta block's own share is ~1e-8 of
            # the total, so isolating it by subtraction would measure cancellation
            spend = float(np.real(np.vdot(x, prob.F @ x))) + (p_max - prob.p_budget)
            total = total_power(ch, d, noise)
            worst = max(worst, abs(spend - total) / total)
    return worst <= 1e-8, f"worst relative mismatch {worst:.2e}"


def _check_nsp(checks: int, seed: int) -> tuple[bool, str]:
    noise = NoiseProfile()
    p_s = dbm_to_watts(20.0)
    worst = 0.0
    for i in range(checks):
        # keep n_k + 1 < m_bs: scattered channels are full rank, so each
        # protecting null space must stay non-trivial for the projection
        _, bch = build_channels(benchmark_scene(rician_k_db=5.0, seed=seed + 100 + i,
                                                n_irs=8, n1=4, n2=4))
        d = run_nsp_mrr_pa(bch, noise, p_s, searcher=fixed_point_search)[0]
        worst = max(
            worst,
            abs(np.vdot(bch.h_b, d.v_e)) / np.linalg.norm(bch.h_b) / 1e-10,
            np.linalg.norm(bch.H_s1 @ d.v_e) / np.linalg.norm(bch.H_s1) / 1e-10,
            abs(np.vdot(bch.h_e, d.v_b)) / np.linalg.norm(bch.h_e) / 1e-10,
            np.linalg.norm(bch.H_s2 @ d.v_b) / np.linalg.norm(bch.H_s2) / 1e-10,
            abs(np.linalg.norm(d.v_b) - 1.0) / 1e-12,
            abs(np.linalg.norm(d.v_e) - 1.0) / 1e-12,
            abs(np.linalg.norm(d.theta1) - 1.0) / 1e-12,
            abs(np.linalg.norm(d.theta2) - 1.0) / 1e-12,
        )
        gain1 = complex(np.vdot(d.theta1, bch.g_b1.conj() * (bch.H_s1 @ d.v_b)))
        phase1 = abs(np.angle(gain1 * np.exp(-1j * np.angle(np.vdot(bch.h_b, d.v_b)))))
        gain2 = complex(np.vdot(d.theta2, bch.g_e2.conj() * (bch.H_s2 @ d.v_e)))
        phase2 = abs(np.angle(gain2 * np.exp(-1j * np.angle(np.vdot(bch.h_e, d.v_e)))))
        worst = max(worst, phase1 / 1e-8, phase2 / 1e-8)

        eta, beta, mu = d.pa.eta, d.pa.beta, d.pa.mu
        s1 = float(np.sum(np.abs(d.theta1) ** 2 * np.abs(bch.H_s1 @ d.v_b) ** 2))
        s2 = float(np.sum(np.abs(d.theta2) ** 2 * np.abs(bch.H_s2 @ d.v_e) ** 2))
        refl1 = d.rho1 ** 2 * (eta * beta * p_s * s1 + noise.sigma2_irs)
        refl2 = d.rho2 ** 2 * (eta * (1 - beta) * p_s * s2 + noise.sigma2_irs)
        worst = max(
            worst,
            abs(refl1 - mu * (1 - eta) * p_s) / (mu * (1 - eta) * p_s) / 1e-9,
            abs(refl2 - (1 - mu) * (1 - eta) * p_s) / ((1 - mu) * (1 - eta) * p_s) / 1e-9,
            abs(refl1 + refl2 - (1 - eta) * p_s) / ((1 - eta) * p_s) / 1e-9,
        )
    return worst <= 1.0, f"worst tolerance fraction {worst:.2e}"


def _check_scalar_path(checks: int, seed: int) -> tuple[bool, str]:
    noise = NoiseProfile()
    p_s = dbm_to_watts(20.0)
    worst = 0.0
    rng = np.random.default_rng(seed + 7)
    for i in range(checks):
        _, bch = build_channels(benchmark_scene(rician_k_db=5.0, seed=seed + 200 + i,
                                                n_irs=8, n1=4, n2=4))
        d = run_nsp_mrr_pa(bch, noise, p_s, searcher=fixed_point_search)[0]
        ctx = PaScalarContext(bch, d, noise)
        for _ in range(5):
            eta = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(0.05, 0.95))
            direct = blocked_secrecy_rate(bch, ctx.at(eta, beta), noise)
            fast = float(ctx(eta, beta))
            worst = max(worst, abs(fast - direct) / max(abs(direct), 1e-30))
    return worst <= 1e-8, f"worst relative mismatch {worst:.2e}"


_SUITES = (
    ("qcqp-kkt", _check_qcqp),
    ("surrogate-tightness", _check_tightness),
    ("block-assembly", _check_assembly),
    ("nsp-mrr-invariants", _check_nsp),
    ("scalar-path", _check_scalar_path),
)


def _cmd_validate(args) -> int:
    if args.checks < 1:
        raise ValueError(f"--checks must be at least 1, got {args.checks}")
    failures = 0
    for name, check in _SUITES:
        ok, detail = check(args.checks, args.seed)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{len(_SUITES) - failures}/{len(_SUITES)} invariant suites passed")
    return 0 if failures == 0 else 1


def _cmd_trace(args) -> int:
    if args.method == "zero-reflection":
        raise ValueError(f"trace supports iterative methods, not {args.method!r}")
    # one cell of the default scene, checked and run as `run` would
    spec = ExperimentSpec(sweep=SweepSpec("n_elements", [args.n]), methods=[args.method],
                          power_dbm=args.power_dbm, noise_dbm=args.noise_dbm,
                          seeds=[args.seed])
    _, trace = run_point(spec, spec.sweep.values[0], args.method, args.seed)
    lines = [json.dumps(row) for row in trace.rows]
    summary = json.dumps({"converged": trace.converged,
                          "iterations": trace.iterations,
                          "wall_time_s": trace.wall_time_s,
                          "flags": trace.flags})
    text = "\n".join(lines + [summary]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(trace.rows)} trace rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "validate": _cmd_validate, "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"airsdm: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"airsdm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
