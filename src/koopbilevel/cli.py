"""Experiment runner CLI.

Subcommands:

* ``identify``  - fit and persist a generator surrogate model.
* ``solve``     - bilevel solve plus warm-started baseline, per variant.
* ``sweep``     - period or amplitude sweeps, written as plot-ready CSV.
* ``reproduce`` - run a pinned benchmark bundle and evaluate its gates.
* ``audit``     - recompute every reported number from persisted artifacts.

Each config is parsed once, by :func:`koopbilevel.config.validate_config`,
into the :class:`~koopbilevel.config.RunConfig` that ``identify``, ``solve``,
``sweep`` and ``reproduce`` read; it is the only source of run settings, so a
bad config exits with code 2 before ``identify`` runs.

Exit codes: 0 success/pass, 1 gate failure, 2 config error, 3 numerical
failure.
"""

import argparse
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import artifacts, config as cfgmod, gates as gatesmod
from .baseline_nlp import solve_nlp, transcribe
from .errors import ConfigError, KoopbilevelError, NonConvergenceError
from .gedmd import identify, load_model, save_model
from .lifting import lift, manifold_defect
from .upper_level import make_periodic_amplitude_anchor, solve_reduced, sweep_period

__all__ = [
    "cmd_identify",
    "cmd_solve",
    "cmd_sweep",
    "cmd_reproduce",
    "cmd_audit",
    "load_bundle",
    "main",
]

_SWEEP_COLUMNS = ("T", "c_star", "kkt_residual", "manifold_defect_max")


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _model_path(out_dir):
    return os.path.join(out_dir, "model.json")


def cmd_identify(run, out_dir):
    """Identify the generator model and persist it with its residual report."""
    _ensure_dir(out_dir)
    model = identify(
        run.system,
        run.dictionary,
        n_s=run.n_s,
        seed=run.seed,
        svd_tol=run.svd_tol,
        box=run.box,
    )
    path = _model_path(out_dir)
    save_model(model, path)
    artifacts.write_json(
        os.path.join(out_dir, "residual_report.json"),
        {
            "residuals": list(model.residuals),
            "ranks": list(model.ranks),
            "rank_deficient": model.rank_deficient,
            "n_z": model.n_z,
            "model_hash": artifacts.sha256_file(path),
        },
    )
    return model


def _ensure_model(run, out_dir):
    path = _model_path(out_dir)
    if os.path.exists(path):
        return load_model(path)
    return cmd_identify(run, out_dir)


def _solve_with_baseline(model, run, variant, mbc):
    """Bilevel solve plus the baseline NLP warm-started from it; a baseline
    that does not converge is reported through its last iterate."""
    bilevel = solve_reduced(model, variant, mbc, run.upper, run.N)
    nlp = transcribe(run.system, mbc, run.N)
    try:
        baseline = solve_nlp(nlp, bilevel, config=run.nlp)
    except NonConvergenceError as exc:
        baseline = exc.best
    return bilevel, baseline


def cmd_solve(run, out_dir):
    """Bilevel solve and warm-started baseline for each configured variant."""
    _ensure_dir(out_dir)
    model = _ensure_model(run, out_dir)

    entries = []
    solutions = {}
    per_variant_time = {}
    for var in run.variants:
        t0 = time.perf_counter()
        bilevel, baseline = _solve_with_baseline(model, run, var, run.mbc)
        per_variant_time[var.label] = time.perf_counter() - t0

        label = var.label
        artifacts.write_trajectory_csv(
            os.path.join(out_dir, f"{label}_bilevel.csv"),
            bilevel.times, bilevel.states, bilevel.inputs,
        )
        artifacts.write_trajectory_csv(
            os.path.join(out_dir, f"{label}_baseline.csv"),
            baseline.times, baseline.states, baseline.inputs,
        )
        artifacts.write_json(
            os.path.join(out_dir, f"{label}_solution.json"),
            {
                "variant": label,
                "x0": bilevel.x0.tolist(),
                "xT": bilevel.xT.tolist(),
                "T": bilevel.T,
                "cost": bilevel.cost,
                "c_hat_lower": bilevel.lower.c_hat,
                "weighted_total": bilevel.lower.weighted_total,
                "constraint_violation": bilevel.constraint_violation,
                "kkt_stationarity": bilevel.lower.kkt.stationarity_residual,
                "kkt_feasibility": bilevel.lower.kkt.feasibility_residual,
                "manifold_defects": bilevel.lower.manifold_defects.tolist(),
                "z0": bilevel.z_traj[0].tolist(),
                "zN": bilevel.z_traj[-1].tolist(),
                "eval_count": bilevel.eval_count,
                "start_records": list(bilevel.start_records),
                "baseline": {
                    "T": baseline.T,
                    "cost": baseline.cost,
                    "max_defect": baseline.max_defect,
                    "max_mbc_violation": baseline.max_mbc_violation,
                    "kkt_residual": baseline.kkt_residual,
                    "converged": baseline.converged,
                    "outer_iterations": baseline.outer_iterations,
                    "inner_iterations": baseline.inner_iterations,
                    "history": list(baseline.history),
                },
            },
        )
        entries.append(artifacts.comparison_entry(bilevel, baseline, run.pcc_points))
        solutions[label] = {"bilevel": bilevel, "baseline": baseline}

    report = {
        "entries": entries,
        "provenance": {
            "config_hash": cfgmod.config_hash(run.raw),
            "model_hash": artifacts.sha256_file(_model_path(out_dir)),
        },
    }
    artifacts.write_json(os.path.join(out_dir, "report.json"), report)
    return report, solutions, per_variant_time


def _write_sweep_csv(path, rows, columns):
    """One row per dict: numbers as round-trip floats, strings as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                row[c] if isinstance(row[c], str) else repr(float(row[c]))
                for c in columns
            ) + "\n")


def cmd_sweep(run, out_dir, axis="T"):
    """Grid evaluation: period sweep of the lower level, or amplitude sweep
    of full bilevel-vs-baseline comparisons."""
    if axis not in ("T", "amplitude"):
        raise ConfigError(f"unknown sweep axis '{axis}'; expected T or amplitude")
    if axis == "amplitude" and not run.amplitudes_deg:
        raise ConfigError("amplitude sweep needs sweep.amplitudes_deg")
    _ensure_dir(out_dir)
    model = _ensure_model(run, out_dir)

    if axis == "T":
        rows = sweep_period(model, run.variants[0], run.mbc, run.period_grid, run.N)
        _write_sweep_csv(os.path.join(out_dir, "sweep_T.csv"), rows, _SWEEP_COLUMNS)
        return rows

    rows = []
    for a_deg in run.amplitudes_deg:
        mbc = make_periodic_amplitude_anchor(np.deg2rad(a_deg))
        for var in run.variants:
            bilevel, baseline = _solve_with_baseline(model, run, var, mbc)
            entry = artifacts.comparison_entry(bilevel, baseline, run.pcc_points)
            rows.append(
                {
                    "amplitude_deg": a_deg,
                    "variant_w": var.w,
                    "T_star": entry["T_star"],
                    "T_star_baseline": entry["T_star_baseline"],
                    "pcc_state": entry["pcc_state"],
                    "pcc_input": entry["pcc_input"],
                    "c": entry["c"],
                    "c_baseline": entry["c_baseline"],
                    "variant": entry["variant"],
                }
            )
    _write_sweep_csv(
        os.path.join(out_dir, "sweep_amplitude.csv"), rows,
        ("amplitude_deg", "variant_w", "T_star", "T_star_baseline",
         "pcc_state", "pcc_input", "c", "c_baseline", "variant"),
    )
    return rows


def load_bundle(name):
    """Load a pinned reproduction bundle (config + gates) shipped as data."""
    path = resources.files("koopbilevel").joinpath(f"bundles/{name}.json")
    try:
        with path.open() as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(
            f"unknown bundle '{name}'; available: fig1, pendulum, walker"
        ) from None


def cmd_reproduce(bundle_name, out_dir, seed=None):
    """Run a bundle end to end and evaluate its tolerance gates."""
    bundle = load_bundle(bundle_name)
    run = cfgmod.validate_config(bundle["config"], seed=seed)
    _ensure_dir(out_dir)

    timings = {}
    t0 = time.perf_counter()
    cmd_identify(run, out_dir)
    timings["identify"] = time.perf_counter() - t0

    sweep_rows = None
    if "sweep" in run.raw:
        t0 = time.perf_counter()
        sweep_rows = cmd_sweep(run, out_dir, axis="T")
        timings["sweep"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report, solutions, per_variant = cmd_solve(run, out_dir)
    timings["solve"] = time.perf_counter() - t0
    timings["per_variant"] = per_variant

    ctx = {
        "sweep_rows": sweep_rows,
        "entries": report["entries"],
        "solutions": solutions,
        "system": run.system,
        "timings": timings,
    }
    results, passed = gatesmod.evaluate_gates(bundle["gates"], ctx)
    artifacts.write_json(
        os.path.join(out_dir, "gates_report.json"),
        {
            "bundle": bundle_name,
            "passed": passed,
            "gates": results,
            "timings": {
                k: v for k, v in timings.items() if not isinstance(v, dict)
            },
            "per_variant_seconds": per_variant,
        },
    )
    return results, passed


def _close(a, b, rtol=1e-9, atol=1e-12):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def cmd_audit(out_dir):
    """Recompute every comparison-report number, and each solution's
    boundary manifold defects, from the persisted artifacts."""
    report = artifacts.read_json(os.path.join(out_dir, "report.json"))
    model = load_model(_model_path(out_dir))
    dictionary = model.dictionary
    problems = []
    for entry in report["entries"]:
        label = entry["variant"]
        tb, xb, ub = artifacts.read_trajectory_csv(
            os.path.join(out_dir, f"{label}_bilevel.csv")
        )
        tn, xn, un = artifacts.read_trajectory_csv(
            os.path.join(out_dir, f"{label}_baseline.csv")
        )
        sol = artifacts.read_json(os.path.join(out_dir, f"{label}_solution.json"))

        checks = {
            "T_star": tb[-1],
            "T_star_baseline": tn[-1],
            "c": (tb[-1] / ub.shape[0]) * float(np.sum(ub**2)),
            "c_baseline": (tn[-1] / un.shape[0]) * float(np.sum(un**2)),
            "pcc_state": artifacts.trajectory_pcc(tb, xb, tn, xn),
            "pcc_input": artifacts.trajectory_pcc(
                tb[:-1], ub, tn[:-1], un
            ),
        }
        z0 = np.asarray(sol["z0"])
        zN = np.asarray(sol["zN"])
        psi0 = lift(dictionary, np.asarray(sol["x0"]))
        psiT = lift(dictionary, np.asarray(sol["xT"]))
        checks["c_hat_lower"] = float(
            np.sum((z0 - psi0) ** 2) + np.sum((zN - psiT) ** 2)
        )
        rows = [(key, entry[key], value) for key, value in checks.items()]
        defects = manifold_defect(dictionary, np.stack([z0, zN])).tolist()
        rows += [
            ("manifold_defects[0]", sol["manifold_defects"][0], defects[0]),
            ("manifold_defects[-1]", sol["manifold_defects"][-1], defects[1]),
        ]
        for key, reported, recomputed in rows:
            if not _close(reported, recomputed):
                problems.append(
                    {
                        "variant": label,
                        "field": key,
                        "reported": reported,
                        "recomputed": recomputed,
                    }
                )
    return problems


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="koopbilevel",
        description="Bilevel trajectory optimization on Koopman generator surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="fit and persist a generator model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="bilevel solve + warm-started baseline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="period or amplitude sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", choices=["T", "amplitude"], default="T")

    p = sub.add_parser("reproduce", help="run a pinned benchmark bundle")
    p.add_argument("--bundle", required=True, choices=["fig1", "pendulum", "walker"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("audit", help="recompute reported numbers from artifacts")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "identify":
            cmd_identify(cfgmod.load_config(args.config), args.out)
            return 0
        if args.command == "solve":
            cmd_solve(cfgmod.load_config(args.config), args.out)
            return 0
        if args.command == "sweep":
            cmd_sweep(cfgmod.load_config(args.config), args.out, axis=args.axis)
            return 0
        if args.command == "reproduce":
            results, passed = cmd_reproduce(args.bundle, args.out, seed=args.seed)
            for rec in results:
                status = "PASS" if rec["passed"] else "FAIL"
                print(f"[{status}] ({rec['severity']}) {rec['id']}: {rec['detail']}")
            return 0 if passed else 1
        if args.command == "audit":
            problems = cmd_audit(args.out)
            if problems:
                for p in problems:
                    print(
                        f"MISMATCH {p['variant']}.{p['field']}: reported "
                        f"{p['reported']!r} recomputed {p['recomputed']!r}"
                    )
                return 1
            print("audit clean: all reported numbers recomputed exactly")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KoopbilevelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
