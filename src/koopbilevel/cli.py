"""Experiment runner CLI.

Subcommands:

* ``identify``  - fit and persist a generator surrogate model.
* ``solve``     - bilevel solve of every variant, checked by one baseline NLP.
* ``sweep``     - period or amplitude sweeps, written as plot-ready CSV.
* ``reproduce`` - run a pinned benchmark bundle and evaluate its gates.
* ``audit``     - recompute every reported number from persisted artifacts.

``solve`` writes the config it ran to ``config.json``. ``audit`` parses it
again, re-solves the point that each search stage recorded as the search
evaluated it, and rebuilds each record it checks with the functions that
wrote it; it compares the file with that record by one rule (:func:`_diff`).

Each config is parsed once, by :func:`koopbilevel.config.validate_config`,
into the :class:`~koopbilevel.config.RunConfig` that ``identify``, ``solve``,
``sweep`` and ``reproduce`` read; it is the only source of run settings, so a
bad config exits with code 2 before ``identify`` runs. ``solve``, ``sweep``
and ``reproduce`` each identify their model from that config; a
``model.json`` already in ``--out`` is overwritten, never reused.

:func:`main` runs each command with numpy's and scipy's OpenBLAS at one
thread (:func:`_one_blas_thread`), so a command writes the same artifacts
whatever thread count the process was started with.

Exit codes: 0 success/pass, 1 gate failure or audit mismatch, 2 config
error or a file that cannot be read, parsed or written (such as an artifact
missing from the directory ``audit`` checks), 3 numerical failure.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np
import scipy

from . import artifacts, config as cfgmod, gates as gatesmod
from .baseline_nlp import TranscribedNlp, check_trajectory, solve_nlp
from .errors import ArtifactError, ConfigError, KoopbilevelError
from .gedmd import identify, load_model, model_to_config, save_model
from .upper_level import (_lower_eval, make_periodic_amplitude_anchor, solve_reduced,
                          sweep_period)

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
_AMPLITUDE_COLUMNS = ("amplitude_deg", "variant_w", "T_star", "T_star_baseline",
                      "pcc_state", "pcc_input", "c", "c_baseline", "variant")


# numpy and scipy each load their own OpenBLAS, with its own thread pool, from
# the wheel's ``<package>.libs`` directory: (package, pattern of the names of
# its thread-count getter and setter)
_OPENBLAS = ((np, "scipy_openblas_{}_num_threads64_"),
             (scipy, "scipy_openblas_{}_num_threads"))


def _blas_pools():
    """The ``(get, set)`` pair of the thread count of numpy's and of scipy's
    OpenBLAS, found through ``ctypes``; a library without both is left out."""
    pools = []
    for package, symbol in _OPENBLAS:
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            f"{package.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            get, set_ = (getattr(lib, symbol.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
    return pools


def _blas_threads():
    """The thread count that both OpenBLAS pools run, or None if a pool is
    not found or the two differ."""
    pools = _blas_pools()
    counts = {get() for get, _ in pools}
    return counts.pop() if len(pools) == len(_OPENBLAS) and len(counts) == 1 else None


@contextlib.contextmanager
def _one_blas_thread():
    """Both OpenBLAS pools at one thread inside the block, and at their
    caller's counts again after it, also after a raise. Every matrix here is
    small (at most 87 columns in the fit, 306 variables in the baseline): a
    second thread stalls now and then, and it changes how the baseline NLP
    rounds."""
    pools = _blas_pools()
    counts = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, counts):
            set_(count)


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _model_path(out_dir):
    return os.path.join(out_dir, "model.json")


def _residual_record(model):
    """The ``residual_report.json`` record of ``model`` but its
    ``model_hash``: the fit's residuals and ranks, and cond(V) of L0's
    eigendecomposition. ``audit`` reruns it on the model read back."""
    return {
        "residuals": list(model.residuals),
        "ranks": list(model.ranks),
        "n_z": model.n_z,
        "modes_cond": float(np.linalg.cond(model.modes[1])),
    }


def cmd_identify(run, out_dir):
    """Identify the generator model and persist it with its residual report
    (:func:`_residual_record` and the sha256 of ``model.json``). A defective
    L0 raises ``NumericError`` here, before ``model.json`` is written."""
    _ensure_dir(out_dir)
    model = identify(run.system, run.dictionary, n_s=run.n_s, seed=run.seed,
                     box=run.box)
    record = _residual_record(model)
    path = _model_path(out_dir)
    save_model(model, path)
    record["model_hash"] = artifacts.sha256_file(path)
    artifacts.write_json(os.path.join(out_dir, "residual_report.json"), record)
    return model


def _solution_record(lower, mbc):
    """The ``<label>_solution.json`` record of the lower solution ``lower``
    under ``mbc``, but the ``start_records`` of the search that found it."""
    p = lower.problem
    return {
        "variant": p.variant.label,
        "x0": p.x0.tolist(),
        "xT": p.xT.tolist(),
        "T": float(p.T),
        "cost": lower.c,
        "c_hat_lower": lower.c_hat,
        "constraint_violation": float(np.linalg.norm(mbc.residual(p.x0, p.xT, p.T))),
        "kkt_stationarity": lower.kkt.stationarity_residual,
        "kkt_feasibility": lower.kkt.feasibility_residual,
        "manifold_defects": lower.manifold_defects.tolist(),
        "z0": lower.z_traj[0].tolist(),
        "zN": lower.z_traj[-1].tolist(),
    }


def _solve_step(run, model, mbc):
    """Bilevel solve of every variant under ``mbc``, then one baseline NLP,
    which depends only on the system, the mbc and N, warm-started from the
    first variant's trajectory. A baseline that does not converge is
    returned as SLSQP's last iterate, with ``converged: false``.

    Returns ``(variants, baseline, timings)``: a ``(record, (times, states,
    inputs))`` pair per variant, in config order, and one for the baseline,
    each record as written to ``<label>_solution.json`` or ``baseline.json``;
    and the seconds of each bilevel solve (``per_variant``) and of the baseline.
    """
    timings = {"per_variant": {}}
    solutions = []
    for var in run.variants:
        t0 = time.perf_counter()
        solutions.append(solve_reduced(model, var, mbc, run.upper, run.N))
        timings["per_variant"][var.label] = time.perf_counter() - t0

    t0 = time.perf_counter()
    baseline = solve_nlp(TranscribedNlp(run.system, mbc, run.N),
                         solutions[0].lower.trajectory)
    timings["baseline"] = time.perf_counter() - t0
    # every NlpSolution field but the trajectory, which goes to baseline.csv
    record = {f.name: getattr(baseline, f.name) for f in dataclasses.fields(baseline)
              if f.name not in ("times", "states", "inputs")}
    record["warm_start"] = run.variants[0].label
    variants = [(dict(_solution_record(sol.lower, mbc),
                      start_records=list(sol.start_records)),
                 sol.lower.trajectory) for sol in solutions]
    trajectory = (baseline.times, baseline.states, baseline.inputs)
    return variants, (record, trajectory), timings


def cmd_solve(run, out_dir, model):
    """Run :func:`_solve_step` on the model that ``cmd_identify`` wrote to
    ``out_dir``, and write ``<label>_bilevel.csv`` and ``<label>_solution.json``
    per variant, ``baseline.csv``, ``baseline.json``, ``config.json`` (the
    config ``run`` was parsed from) and ``report.json``, with one
    :func:`~koopbilevel.artifacts.comparison_entry` per variant of what those
    files hold, the sha256 of ``config.json`` and ``model.json``, and the
    OpenBLAS thread count it ran (:func:`_blas_threads`). Returns the report
    and the timings."""
    _ensure_dir(out_dir)
    variants, (baseline, baseline_traj), timings = _solve_step(run, model, run.mbc)
    for record, traj in variants:
        label = record["variant"]
        artifacts.write_trajectory_csv(
            os.path.join(out_dir, f"{label}_bilevel.csv"), *traj)
        artifacts.write_json(
            os.path.join(out_dir, f"{label}_solution.json"), record)
    artifacts.write_trajectory_csv(
        os.path.join(out_dir, "baseline.csv"), *baseline_traj)
    artifacts.write_json(os.path.join(out_dir, "baseline.json"), baseline)
    config_path = os.path.join(out_dir, "config.json")
    artifacts.write_json(config_path, run.raw)

    report = {
        "entries": [
            artifacts.comparison_entry(record, traj, baseline, baseline_traj)
            for record, traj in variants
        ],
        "provenance": {
            "config_hash": artifacts.sha256_file(config_path),
            "model_hash": artifacts.sha256_file(_model_path(out_dir)),
            "blas_threads": _blas_threads(),
        },
    }
    artifacts.write_json(os.path.join(out_dir, "report.json"), report)
    return report, timings


def _write_sweep_csv(path, rows, columns):
    """One row per dict: numbers as round-trip floats, strings as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                row[c] if isinstance(row[c], str) else repr(float(row[c]))
                for c in columns
            ) + "\n")


def _read_sweep_csv(path):
    """The rows of a ``sweep_T.csv``, as dicts of floats; a file whose header
    is not the sweep's columns, or a row that is not one number per column,
    raises ``ArtifactError`` naming it."""
    try:
        with open(path) as fh:
            header, *lines = fh.read().splitlines()
        if tuple(header.split(",")) != _SWEEP_COLUMNS:
            raise ValueError(f"header {header!r}")
        return [dict(zip(_SWEEP_COLUMNS, map(float, line.split(",")), strict=True))
                for line in lines]
    except ValueError as exc:
        raise ArtifactError(f"{path}: not a period sweep: {exc}") from None


def _check_sweep_axis(run, axis):
    if axis not in ("T", "amplitude"):
        raise ConfigError(f"unknown sweep axis '{axis}'; expected T or amplitude")
    if axis == "amplitude" and not run.amplitudes_deg:
        raise ConfigError("amplitude sweep needs sweep.amplitudes_deg")
    if axis == "T" and run.mbc.p_dim != 1:
        raise ConfigError(
            f"mbc: a period sweep needs a one-dimensional reduction; "
            f"'{run.mbc.name}' has p_dim={run.mbc.p_dim}"
        )


def cmd_sweep(run, out_dir, model, axis="T"):
    """Grid evaluation: period sweep of the lower level, or amplitude sweep
    comparing every variant's bilevel solution with one baseline NLP per
    amplitude, each amplitude solved by :func:`_solve_step`."""
    _check_sweep_axis(run, axis)
    _ensure_dir(out_dir)

    if axis == "T":
        rows = sweep_period(model, run.variants[0], run.mbc, run.period_grid, run.N)
        _write_sweep_csv(os.path.join(out_dir, "sweep_T.csv"), rows, _SWEEP_COLUMNS)
        return rows

    rows = []
    for a_deg in run.amplitudes_deg:
        mbc = make_periodic_amplitude_anchor(np.deg2rad(a_deg))
        variants, baseline, _ = _solve_step(run, model, mbc)
        for var, variant in zip(run.variants, variants):
            row = dict(
                artifacts.comparison_entry(*variant, *baseline),
                amplitude_deg=a_deg, variant_w=var.w,
            )
            rows.append({c: row[c] for c in _AMPLITUDE_COLUMNS})
    _write_sweep_csv(
        os.path.join(out_dir, "sweep_amplitude.csv"), rows, _AMPLITUDE_COLUMNS
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
    model = cmd_identify(run, out_dir)
    timings["identify"] = time.perf_counter() - t0

    sweep_rows = None
    if "sweep" in run.raw:
        t0 = time.perf_counter()
        sweep_rows = cmd_sweep(run, out_dir, model, axis="T")
        timings["sweep"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report, solve_timings = cmd_solve(run, out_dir, model)
    timings["solve"] = time.perf_counter() - t0
    timings.update(solve_timings)

    ctx = {
        "sweep_rows": sweep_rows,
        "entries": report["entries"],
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
            "per_variant_seconds": timings["per_variant"],
        },
    )
    return results, passed


def _close(a, b, rtol=1e-9, atol=1e-12):
    # not exact: an audit may run on a machine whose BLAS and libm round
    # differently from the one that wrote the artifacts (see ``artifacts``);
    # an infinite value is close only to itself, and NaN, which a failed
    # sweep point is written as, only to NaN
    return (a == b or math.isnan(a) and math.isnan(b)
            or abs(a - b) <= atol + rtol * max(abs(a), abs(b)) < np.inf)


def _problem(source, field, reported, recomputed):
    return {"variant": source, "field": field, "reported": reported,
            "recomputed": recomputed}


def _diff(source, field, reported, recomputed):
    """Problems of a ``reported`` value against the ``recomputed`` one: dicts
    key by key (field ``a.b``), lists item by item (``a[i]``), two numbers
    by :func:`_close` and anything else by equality. A missing key is one
    problem at its field, and so is a list of another length or a value of
    another type."""
    if isinstance(recomputed, dict) and isinstance(reported, dict):
        problems = []
        for key, value in recomputed.items():
            name = f"{field}.{key}" if field else key
            problems += (_diff(source, name, reported[key], value) if key in reported
                         else [_problem(source, name, "missing", value)])
        return problems
    if (isinstance(recomputed, list) and isinstance(reported, list)
            and len(reported) == len(recomputed)):
        return [problem for i, (r, v) in enumerate(zip(reported, recomputed))
                for problem in _diff(source, f"{field}[{i}]", r, v)]
    numbers = all(isinstance(v, (int, float)) for v in (reported, recomputed))
    if _close(reported, recomputed) if numbers else reported == recomputed:
        return []
    return [_problem(source, field, reported, recomputed)]


# the keys a ``<label>_solution.json`` must hold; any other it lacks is a problem
_SOLUTION_KEYS = ("variant", "x0", "xT", "z0", "zN", "T", "cost", "c_hat_lower",
                  "constraint_violation", "manifold_defects", "start_records")


def _audit_entry(out_dir, entry, run, variant, model, baseline, baseline_traj):
    """Problems of one ``report.json`` entry and its variant's files."""
    label = entry["variant"]
    trajectory = artifacts.read_trajectory_csv(
        os.path.join(out_dir, f"{label}_bilevel.csv"))
    sol = artifacts.read_json(os.path.join(out_dir, f"{label}_solution.json"),
                              keys=_SOLUTION_KEYS)
    # trajectories whose PCC is undefined (no time span, or a column without
    # variance) are one problem
    try:
        problems = _diff(label, "", entry, artifacts.comparison_entry(
            sol, trajectory, baseline, baseline_traj))
    except KoopbilevelError as exc:
        problems = [_problem(label, "entry", f"{label}_bilevel.csv and baseline.csv",
                             str(exc))]
    # each stage's failures, at most its calls, and its point, re-solved
    stages, reported = sol["start_records"], dict(sol)
    try:
        problems += [
            _problem(label, f"solution.{stage['stage']}.failures", stage["failures"],
                     f"at most nfev = {stage['nfev']} in all")
            for stage in stages if not sum(stage["failures"].values()) <= stage["nfev"]
        ]
        points = {stage["stage"]: np.reshape(np.asarray(stage["p_star"], dtype=float),
                                             run.mbc.p_dim) for stage in stages}
        reported.update({stage["stage"]: stage for stage in stages})
    except (TypeError, AttributeError, KeyError, ValueError):
        problems.append(_problem(label, "solution.start_records", stages,
                                 "a list of stage records with counts"))
        points = {}
    record, solved = {}, {"polish": ("missing", None, "a polish stage")}
    for name, p_star in points.items():
        cost, lower, error = _lower_eval(model, variant, run.mbc, p_star, run.N)
        record[name], solved[name] = {"c_star": cost}, (p_star.tolist(), lower, error)
    # the polish's lower solution is the solution; without one only costs are diffed
    point, lower, error = solved["polish"]
    if lower is None:
        return problems + [_problem(label, "solution", point, str(error))] + _diff(
            label, "solution", reported, record)
    record.update(_solution_record(lower, run.mbc))
    columns = ("times", "states", "inputs")
    return (problems + _diff(label, "solution", reported, record)
            + _diff(label, "bilevel", dict(zip(columns, (a.tolist() for a in trajectory))),
                    dict(zip(columns, (a.tolist() for a in lower.trajectory)))))


def cmd_audit(out_dir):
    """Problem records of the artifacts in ``out_dir``. ``config.json`` is
    parsed by :func:`~koopbilevel.config.validate_config`; each checked
    record is rebuilt from it and the other artifacts and compared with its
    file by :func:`_diff`:

    * ``residual_report.json``: :func:`_residual_record` of the model read
      back, plus the sha256 of ``model.json``;
    * ``report.json``'s ``provenance``: the sha256 of ``config.json`` and of
      ``model.json``, but not its ``blas_threads``, which describes the
      process that ran the solve, not anything the artifacts rebuild;
    * ``model.json``'s ``seed``, ``n_s``, ``box``, ``system_name`` and
      ``dictionary``: the config's;
    * ``baseline.json``: :func:`~koopbilevel.baseline_nlp.check_trajectory`
      of ``baseline.csv`` with the config's N, taking the file's word for
      SLSQP's success;
    * each entry: :func:`~koopbilevel.artifacts.comparison_entry` of its
      variant's files;
    * each ``<label>_solution.json``: each stage's ``c_star`` from re-solving
      its ``p_star`` as the search did (``_lower_eval``, with the config's N,
      variant and constraint), and :func:`_solution_record` of the polish
      stage's lower solution;
    * each ``<label>_bilevel.csv``: that solution's ``trajectory``;
    * ``sweep_T.csv``, if there is one: the rows of
      :func:`~koopbilevel.upper_level.sweep_period` run as ``cmd_sweep``
      runs it, on the config's grid.

    A stage whose ``failures`` add up to more than its ``nfev``, trajectories
    whose PCC is undefined (no time span, or a column without variance), a
    polish point that is missing or that the lower level rejects, a
    ``baseline.csv`` that ``check_trajectory`` rejects, an entry whose
    ``variant`` is not the label of a config variant (a non-string one
    included), a variant file without an entry and a ``sweep_T.csv`` whose
    row count is not the grid's are problems too. An artifact that does not
    parse, is not a JSON object or lacks a key that ``audit`` reads, a
    ``report.json`` whose ``entries`` is not a list of objects, and a
    ``config.json`` that is not a valid config raise ``ArtifactError``, and
    so does a directory without ``report.json``, such as one that ``sweep``
    or ``identify`` wrote."""
    report_path = os.path.join(out_dir, "report.json")
    if not os.path.isfile(report_path):
        raise ArtifactError(f"{report_path}: no such file; audit checks the "
                            "directory of a solve or reproduce run")
    report = artifacts.read_json(report_path, keys=("entries",))
    if not (isinstance(report["entries"], list)
            and all(isinstance(entry, dict) for entry in report["entries"])):
        raise ArtifactError(f"{report_path}: 'entries' is not a list of objects")
    config_path = os.path.join(out_dir, "config.json")
    try:
        run = cfgmod.validate_config(artifacts.read_json(config_path))
    except ConfigError as exc:
        raise ArtifactError(f"{config_path}: {exc}") from None
    model = load_model(_model_path(out_dir))
    baseline = artifacts.read_json(
        os.path.join(out_dir, "baseline.json"),
        keys=("T", "cost", "converged", "max_defect", "max_mbc_violation",
              "kkt_residual"))
    baseline_traj = artifacts.read_trajectory_csv(os.path.join(out_dir, "baseline.csv"))
    model_hash = artifacts.sha256_file(_model_path(out_dir))
    identification = dict(_residual_record(model), model_hash=model_hash)
    residual_report = artifacts.read_json(
        os.path.join(out_dir, "residual_report.json"), keys=tuple(identification))
    provenance = {"config_hash": artifacts.sha256_file(config_path),
                  "model_hash": model_hash}
    fit_settings = {"seed": run.seed, "n_s": run.n_s, "box": run.box.tolist(),
                    "system_name": run.system.name,
                    "dictionary": run.dictionary.to_config()}
    # SLSQP's success cannot be rebuilt; a trajectory that does not fit the
    # config's N, or whose states the dynamics reject, is one problem
    try:
        problems = _diff("baseline", "", baseline, check_trajectory(
            TranscribedNlp(run.system, run.mbc, run.N), baseline_traj,
            baseline["converged"] is True))
    except KoopbilevelError as exc:
        problems = [_problem("baseline", "trajectory", "baseline.csv", str(exc))]
    problems += (
        _diff("residual_report", "", residual_report, identification)
        + _diff("report", "", report, {"provenance": provenance})
        + _diff("model", "", model_to_config(model), fit_settings)
    )
    # the period sweep, re-run as cmd_sweep runs it; a grid of another size
    # is one problem
    sweep_path = os.path.join(out_dir, "sweep_T.csv")
    if os.path.exists(sweep_path):
        rows = _read_sweep_csv(sweep_path)
        sweep = sweep_period(model, run.variants[0], run.mbc, run.period_grid, run.N)
        problems += (_diff("sweep", "rows", rows, sweep) if len(rows) == len(sweep) else
                     [_problem("sweep", "rows", f"{len(rows)} rows", f"{len(sweep)} rows")])
    variants = {variant.label: variant for variant in run.variants}
    # a list, not a set: a label read from JSON need not be hashable
    labels = [entry.get("variant") for entry in report["entries"]]
    for entry, label in zip(report["entries"], labels):
        if isinstance(label, str) and label in variants:
            problems += _audit_entry(out_dir, entry, run, variants[label], model,
                                     baseline, baseline_traj)
        else:
            problems.append(_problem(label, "variant", entry.get("variant", "missing"),
                                     sorted(variants)))
    for name in sorted(os.listdir(out_dir)):
        label = name.removesuffix("_solution.json").removesuffix("_bilevel.csv")
        if label != name and label not in labels:
            problems.append(_problem(label, "report entry", "missing", name))
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

    p = sub.add_parser("solve", help="bilevel solves + one warm-started baseline")
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
    """Run one subcommand on one OpenBLAS thread (:func:`_one_blas_thread`)
    and return its exit code."""
    args = _build_parser().parse_args(argv)
    with _one_blas_thread():
        try:
            if args.command == "identify":
                cmd_identify(cfgmod.load_config(args.config), args.out)
                return 0
            if args.command == "solve":
                run = cfgmod.load_config(args.config)
                cmd_solve(run, args.out, cmd_identify(run, args.out))
                return 0
            if args.command == "sweep":
                run = cfgmod.load_config(args.config)
                _check_sweep_axis(run, args.axis)  # before identify writes model.json
                cmd_sweep(run, args.out, cmd_identify(run, args.out), axis=args.axis)
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
                print("audit clean: all reported numbers recomputed within rtol 1e-9")
                return 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (OSError, ArtifactError) as exc:
            print(f"file error: {exc}", file=sys.stderr)
            return 2
        except KoopbilevelError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
