"""Experiment runner CLI.

Subcommands:

* ``identify``  - fit and persist a generator surrogate model.
* ``solve``     - bilevel solve of every variant, checked by one baseline NLP.
* ``sweep``     - period or amplitude sweeps, written as plot-ready CSV.
* ``reproduce`` - run a pinned benchmark bundle and evaluate its gates.
* ``audit``     - re-run a solve, its fit included, from its ``config.json``
  and diff every file it wrote.

Each config is parsed once, by :func:`koopbilevel.config.validate_config`,
into the :class:`~koopbilevel.config.RunConfig` that the commands read; a bad
config exits with code 2 before ``identify`` runs. ``solve``, ``sweep`` and
``reproduce`` each identify their model from that config; a ``model.json``
already in ``--out`` is overwritten, never reused. ``solve`` also writes the
config it ran to ``config.json``, from which ``audit`` re-runs the whole run,
the identification included: it reads no model back from ``model.json`` but
diffs that file, like every other, with the re-run's record.

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
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np
import scipy

from . import artifacts, config as cfgmod, gates as gatesmod
from .baseline_nlp import TranscribedNlp, solve_nlp
from .errors import ArtifactError, ConfigError, KoopbilevelError
from .gedmd import identify, model_to_config
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


def _write_records(out_dir, records):
    """Write each record to the file in ``out_dir`` that it is keyed by: a
    ``.csv`` record, a ``(times, states, inputs)`` trajectory, as a
    trajectory CSV, a string as the file's text and any other as JSON."""
    for name, record in records.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            artifacts.write_trajectory_csv(path, *record)
        elif isinstance(record, str):
            with open(path, "w") as fh:
                fh.write(record)
        else:
            artifacts.write_json(path, record)


def _identify_records(run):
    """The model identified from the config, and its records keyed by the
    file that :func:`cmd_identify` writes each to: ``model.json``, as its
    canonical JSON text, formatted once for both the file and its hash, and
    ``residual_report.json`` (the fit's residuals and ranks, cond(V) of L0's
    eigendecomposition and the sha256 of ``model.json``). A defective L0
    raises ``NumericError`` here, before any file is written."""
    model = identify(run.system, run.dictionary, n_s=run.n_s, seed=run.seed,
                     box=run.box)
    fit = artifacts.canonical_json(model_to_config(model))
    return model, {
        "model.json": fit,
        "residual_report.json": {
            "residuals": list(model.residuals),
            "ranks": list(model.ranks),
            "n_z": model.n_z,
            "modes_cond": float(np.linalg.cond(model.modes[1])),
            "model_hash": hashlib.sha256(fit.encode()).hexdigest(),
        },
    }


def cmd_identify(run, out_dir):
    """Write :func:`_identify_records` to ``out_dir`` and return the model."""
    _ensure_dir(out_dir)
    model, records = _identify_records(run)
    _write_records(out_dir, records)
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


def _solve_records(run, model, mbc):
    """Bilevel solve of every variant under ``mbc``, then one baseline NLP,
    which depends only on the system, the mbc and N, warm-started from the
    first variant's trajectory. A baseline that does not converge is
    recorded as SLSQP's last iterate, with ``converged: false``.

    Returns ``(records, entries, timings)``: the records keyed by the file
    that :func:`cmd_solve` writes each to (``baseline.json``, ``baseline.csv``
    and, per variant in config order, ``<label>_solution.json`` and
    ``<label>_bilevel.csv``; a CSV's record is its ``(times, states,
    inputs)``), one :func:`~koopbilevel.artifacts.comparison_entry` per
    variant, and the seconds of each bilevel solve (``per_variant``) and of
    the baseline."""
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
    trajectory = (baseline.times, baseline.states, baseline.inputs)
    records = {"baseline.json": record, "baseline.csv": trajectory}
    entries = []
    for sol in solutions:
        solution = dict(_solution_record(sol.lower, mbc),
                        start_records=list(sol.start_records))
        label = solution["variant"]
        records.update({f"{label}_solution.json": solution,
                        f"{label}_bilevel.csv": sol.lower.trajectory})
        entries.append(artifacts.comparison_entry(solution, sol.lower.trajectory,
                                                  record, trajectory))
    return records, entries, timings


def _report_record(out_dir, entries, blas_threads, command):
    """The ``report.json`` record of the solve in ``out_dir``: its entries,
    the sha256 of ``config.json`` and ``model.json``, the OpenBLAS thread
    count it ran and the command that wrote the directory, ``solve`` or
    ``reproduce``."""
    return {
        "entries": entries,
        "provenance": {
            "config_hash": artifacts.sha256_file(os.path.join(out_dir, "config.json")),
            "model_hash": artifacts.sha256_file(os.path.join(out_dir, "model.json")),
            "blas_threads": blas_threads,
            "command": command,
        },
    }


def cmd_solve(run, out_dir, model, command="solve"):
    """Write :func:`_solve_records` of the model that ``cmd_identify`` wrote
    to ``out_dir`` under the config's constraint, then ``config.json`` (the
    config ``run`` was parsed from) and :func:`_report_record`, with the
    thread count of :func:`_blas_threads`, as ``report.json``. Returns the
    report and the timings."""
    _ensure_dir(out_dir)
    records, entries, timings = _solve_records(run, model, run.mbc)
    _write_records(out_dir, records)
    artifacts.write_json(os.path.join(out_dir, "config.json"), run.raw)
    report = _report_record(out_dir, entries, _blas_threads(), command)
    artifacts.write_json(os.path.join(out_dir, "report.json"), report)
    return report, timings


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
    """Grid evaluation, written as ``sweep_<axis>.csv`` and returned as
    rows. The period sweep evaluates the lower level of the first variant
    at each period of the grid. The amplitude sweep runs
    :func:`_solve_records` under each amplitude's anchor; each of its rows
    is that solve's report entry of one variant, with the amplitude and the
    variant's weight, in the columns of ``_AMPLITUDE_COLUMNS``."""
    _check_sweep_axis(run, axis)
    _ensure_dir(out_dir)

    if axis == "T":
        rows = sweep_period(model, run.variants[0], run.mbc, run.period_grid, run.N)
        columns = _SWEEP_COLUMNS
    else:
        rows = []
        for a_deg in run.amplitudes_deg:
            mbc = make_periodic_amplitude_anchor(np.deg2rad(a_deg))
            _, entries, _ = _solve_records(run, model, mbc)
            for var, entry in zip(run.variants, entries):
                row = dict(entry, amplitude_deg=a_deg, variant_w=var.w)
                rows.append({c: row[c] for c in _AMPLITUDE_COLUMNS})
        columns = _AMPLITUDE_COLUMNS
    artifacts.write_csv(os.path.join(out_dir, f"sweep_{axis}.csv"), columns,
                        [[row[c] for c in columns] for row in rows])
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


def _gates_record(bundle_name, sweep_rows, entries, timings):
    """The ``gates_report.json`` record of a run of the bundle: its gates
    evaluated on the run's period sweep rows (None without a sweep), report
    entries and timings, with the timings themselves."""
    ctx = {"sweep_rows": sweep_rows, "entries": entries, "timings": timings}
    results, passed = gatesmod.evaluate_gates(load_bundle(bundle_name)["gates"], ctx)
    return {
        "bundle": bundle_name,
        "passed": passed,
        "gates": results,
        "timings": {k: v for k, v in timings.items() if not isinstance(v, dict)},
        "per_variant_seconds": timings["per_variant"],
    }


def cmd_reproduce(bundle_name, out_dir, seed=None):
    """Run a bundle end to end and evaluate its tolerance gates."""
    run = cfgmod.validate_config(load_bundle(bundle_name)["config"], seed=seed)
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
    report, solve_timings = cmd_solve(run, out_dir, model, command="reproduce")
    timings["solve"] = time.perf_counter() - t0
    timings.update(solve_timings)

    record = _gates_record(bundle_name, sweep_rows, report["entries"], timings)
    artifacts.write_json(os.path.join(out_dir, "gates_report.json"), record)
    return record["gates"], record["passed"]


def _close(a, b, rtol=1e-9, atol=1e-12):
    # not exact: an audit may run on a machine whose BLAS and libm round
    # differently from the one that wrote the artifacts (see ``artifacts``);
    # an infinite value is close only to itself, and NaN, which a failed
    # sweep point is written as, only to NaN
    return (a == b or math.isnan(a) and math.isnan(b)
            or abs(a - b) <= atol + rtol * max(abs(a), abs(b)) < np.inf)


def _problem(name, field, reported, recomputed):
    return {"file": name, "field": field, "reported": reported,
            "recomputed": recomputed}


def _diff(name, field, reported, recomputed):
    """Problems of a ``reported`` value of the file ``name`` against the
    ``recomputed`` one: dicts key by key (field ``a.b``), lists item by item
    (``a[i]``), two numbers by :func:`_close` and anything else by equality.
    A key that only one of two dicts has is one problem at its field, and so
    are two lists of different lengths, given by their lengths, and a value
    whose type is not the re-run's, such as ``1`` for ``True`` or ``3.0``
    for ``3``."""
    if isinstance(recomputed, dict) and isinstance(reported, dict):
        problems = []
        for key in {**recomputed, **reported}:
            path = f"{field}.{key}" if field else key
            problems += (_diff(name, path, reported[key], recomputed[key])
                         if key in reported and key in recomputed else
                         [_problem(name, path, reported.get(key, "missing"),
                                   recomputed.get(key, "missing"))])
        return problems
    if isinstance(recomputed, list) and isinstance(reported, list):
        if len(reported) != len(recomputed):
            return [_problem(name, field, f"length {len(reported)}",
                             f"length {len(recomputed)}")]
        return [problem for i, (r, v) in enumerate(zip(reported, recomputed))
                for problem in _diff(name, f"{field}[{i}]", r, v)]
    numbers = isinstance(recomputed, (int, float))
    if type(reported) is type(recomputed) and (
            _close(reported, recomputed) if numbers else reported == recomputed):
        return []
    return [_problem(name, field, reported, recomputed)]


def _columns(trajectory):
    """A ``(times, states, inputs)`` trajectory as the lists :func:`_diff`
    compares."""
    return dict(zip(("times", "states", "inputs"),
                    (np.asarray(a).tolist() for a in trajectory)))


def _read_record(path):
    """The record in the file at ``path`` as :func:`_diff` compares it: a
    JSON object, the ``rows`` of ``sweep_T.csv`` or a trajectory's columns."""
    if path.endswith(".json"):
        return artifacts.read_json(path)
    if path.endswith("sweep_T.csv"):
        header, data = artifacts.read_csv(path)
        if tuple(header) != _SWEEP_COLUMNS:
            raise ArtifactError(f"{path}: not a period sweep: header {header}")
        return {"rows": [dict(zip(header, row)) for row in data.tolist()]}
    return _columns(artifacts.read_trajectory_csv(path))


def _as_read(name, record):
    """``record`` as :func:`_read_record` reads it back from the file
    ``name`` that it is written to; a string record is the file's text."""
    if isinstance(record, str):
        return json.loads(record)
    if name.endswith(".json") or name == "sweep_T.csv":
        return json.loads(artifacts.canonical_json(record))
    return _columns(record)


def _audited_gates(path, sweep_rows, entries):
    """:func:`_gates_record` of the bundle and timings that the
    ``gates_report.json`` at ``path`` names, on the re-run's sweep rows and
    entries; the timings are taken from the file, since nothing rebuilds
    them. A bundle that does not ship, or timings that are not finite
    seconds (at least 0, and not a bool, as in the config) by name, raise
    ``ArtifactError``."""
    written = artifacts.read_json(path, keys=("bundle", "timings", "per_variant_seconds"))
    seconds = (written["timings"], written["per_variant_seconds"])
    if not all(isinstance(s, dict) and all(type(v) in (int, float) and 0 <= v < math.inf
                                           for v in s.values())
               for s in seconds):
        raise ArtifactError(f"{path}: timings are not seconds by name")
    try:
        return _gates_record(written["bundle"], sweep_rows, entries,
                             dict(seconds[0], per_variant=seconds[1]))
    except ConfigError as exc:
        raise ArtifactError(f"{path}: {exc}") from None


def cmd_audit(out_dir):
    """Problem records of the solve or reproduce run in ``out_dir``.

    ``config.json`` is parsed by :func:`~koopbilevel.config.validate_config`
    and re-run as the run ran it: :func:`_identify_records`, then
    :func:`_solve_records` on the re-identified model and, for a
    ``reproduce`` run, :func:`_gates_record` and the period sweep if the
    config has a ``sweep``. A directory with a ``gates_report.json`` is a
    ``reproduce`` run, and the command that ``report.json`` records is
    diffed with that; a ``sweep_T.csv`` is re-run in any directory. Each
    file those write, ``model.json`` and ``residual_report.json`` among
    them, and ``report.json`` is diffed whole with the re-run's record by
    :func:`_diff`, so a file that a ``reproduce`` run writes and the
    directory lacks cannot be read. ``report.json``'s hashes are of the
    files beside it. What no re-run rebuilds is taken from the files:
    ``report.json``'s thread count, a positive int or null, and the gates'
    timings (:func:`_audited_gates`). A ``*_solution.json`` or
    ``*_bilevel.csv`` that the re-run does not write is a problem too.

    The re-run is exact on the libraries that wrote the files. Run on other
    libraries, the solvers' iteration-path fields (``history``, ``nit``,
    ``kkt_residual``) can differ beyond :func:`_close`, and so can
    ``residual_report.json``'s ``model_hash``, the sha256 of a factor that
    may round differently; each is reported as a mismatch like any other
    field.

    A file that is missing raises ``OSError``; one that does not parse, a
    ``config.json`` that is not a valid config, a thread count or timings
    of the wrong type and a ``gates_report.json`` that names no shipped
    bundle raise ``ArtifactError``."""
    report_path = os.path.join(out_dir, "report.json")
    if not os.path.isfile(report_path):
        raise ArtifactError(f"{report_path}: no such file; audit checks the "
                            "directory of a solve or reproduce run")
    config_path = os.path.join(out_dir, "config.json")
    try:
        run = cfgmod.validate_config(artifacts.read_json(config_path))
    except ConfigError as exc:
        raise ArtifactError(f"{config_path}: {exc}") from None

    model, records = _identify_records(run)
    solve_records, entries, _ = _solve_records(run, model, run.mbc)
    records.update(solve_records)
    gates_path = os.path.join(out_dir, "gates_report.json")
    reproduce = os.path.exists(gates_path)
    written = artifacts.read_json(report_path).get("provenance")
    threads = written.get("blas_threads") if isinstance(written, dict) else None
    if threads is not None and not (type(threads) is int and threads > 0):
        raise ArtifactError(f"{report_path}: provenance.blas_threads is {threads!r}, "
                            "not a thread count or null")
    records["report.json"] = _report_record(out_dir, entries, threads,
                                            "reproduce" if reproduce else "solve")
    sweep_rows = None
    if reproduce and "sweep" in run.raw or os.path.exists(os.path.join(out_dir, "sweep_T.csv")):
        sweep_rows = sweep_period(model, run.variants[0], run.mbc, run.period_grid, run.N)
        records["sweep_T.csv"] = {"rows": sweep_rows}
    if reproduce:
        records["gates_report.json"] = _audited_gates(gates_path, sweep_rows, entries)

    problems = [problem for name, record in records.items()
                for problem in _diff(name, "", _read_record(os.path.join(out_dir, name)),
                                     _as_read(name, record))]
    problems += [_problem(name, "file", "written", "not written by the re-run")
                 for name in sorted(os.listdir(out_dir))
                 if name.endswith(("_solution.json", "_bilevel.csv"))
                 and name not in records]
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
                            f"MISMATCH {p['file']}:{p['field']}: reported "
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
