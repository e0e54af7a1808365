"""One benchmark run in a fresh process.

``--setup`` times the set-up a user pays before any work: import
``koopbilevel``, then load and validate the workload's bundle.

Otherwise the process runs ``koopbilevel reproduce --bundle <workload> --seed
<seed>`` through ``cli.main``, checks the artifacts with ``audit``, and prints
one JSON line with its timings, operation counts, quality figures and the
determinism fingerprint. Without ``--trace`` only the four stage calls that
``cli`` looks up are timed; with it every layer in ``LAYER_TARGETS`` is wrapped
too, and per-layer figures are added. Every wrapper is removed again before
``audit`` runs.

Run from the root of the repository, with ``src`` on ``PYTHONPATH``.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
import types

from tracer import Tracer

# (module, class or None, attribute, span name): the stage calls that ``cli``
# looks up, timed in every run.
STAGE_TARGETS = (
    ("cli", None, "identify", "gedmd.identify"),
    ("cli", None, "sweep_period", "upper_level.sweep_period"),
    ("cli", None, "solve_reduced", "upper_level.solve_reduced"),
    ("cli", None, "solve_nlp", "baseline_nlp.solve_nlp"),
)

# Layer calls wrapped in the traced run, each where its caller looks it up.
LAYER_TARGETS = (
    ("gedmd", None, "assemble_data", "gedmd.assemble_data"),
    ("gedmd", None, "fit_generator", "gedmd.fit_generator"),
    ("upper_level", None, "solve_lower", "lower_level.solve_lower"),
    ("lower_level", None, "build_qp", "lower_level.build_qp"),
    ("lower_level", None, "zoh_discretize", "numerics.zoh_discretize"),
    ("lower_level", None, "solve_kkt", "numerics.solve_kkt"),
    ("lower_level", None, "lift", "lifting.lift"),
    ("lower_level", None, "manifold_defect", "lifting.manifold_defect"),
    ("baseline_nlp", "TranscribedNlp", "constraint_jacobian",
     "baseline_nlp.constraint_jacobian"),
    ("baseline_nlp", "TranscribedNlp", "constraints", "baseline_nlp.constraints"),
    ("baseline_nlp", None, "rk4_step", "systems.rk4_step"),
    ("artifacts", None, "write_json", "artifacts.write"),
    ("artifacts", None, "write_trajectory_csv", "artifacts.write"),
    ("gates", None, "evaluate_gates", "gates.evaluate_gates"),
)

STAGE_SECONDS = {
    "identify_s": "gedmd.identify",
    "sweep_s": "upper_level.sweep_period",
    "bilevel_s": "upper_level.solve_reduced",
    "baseline_s": "baseline_nlp.solve_nlp",
}


def _observe_solve_reduced(tracer, result, exc):
    if result is not None:
        tracer.counters["upper_level.nfev"] += result.eval_count


def _observe_solve_nlp(tracer, result, exc):
    sol = result if exc is None else getattr(exc, "best", None)
    if sol is not None:
        tracer.counters["baseline_nlp.outer_iterations"] += sol.outer_iterations
        tracer.counters["baseline_nlp.inner_iterations"] += sol.inner_iterations
    if sol is None or exc is not None or not sol.converged:
        tracer.counters["baseline_nlp.nonconverged"] += 1


OBSERVERS = {
    "upper_level.solve_reduced": _observe_solve_reduced,
    "baseline_nlp.solve_nlp": _observe_solve_nlp,
}


def install(tracer, targets):
    """Wrap every target; raises if any is missing."""
    for module_name, class_name, attr, span in targets:
        owner = importlib.import_module(f"koopbilevel.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, span, observe=OBSERVERS.get(span))


def fingerprint(out_dir, entries):
    """Hashes of the deterministic artifacts plus the headline numbers."""
    from koopbilevel.artifacts import sha256_file

    files = ["report.json"] + sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(out_dir, "*_solution.json"))
    )
    return {
        "sha256": {f: sha256_file(os.path.join(out_dir, f)) for f in files},
        "variants": {
            e["variant"]: {k: e[k] for k in ("T_star", "c", "c_hat_lower", "c_baseline")}
            for e in entries
        },
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment(cli):
    """What the timings depend on besides the code."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    args = cli._build_parser().parse_args(["reproduce", "--bundle", "fig1", "--out", "."])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "default_workers": getattr(args, "workers", None),
    }


def run_setup(workload):
    t0 = time.perf_counter()
    from koopbilevel import cli, config

    bundle = cli.load_bundle(workload)
    config.validate_config(bundle["config"])
    return {"setup_s": time.perf_counter() - t0}


def run_reproduce(workload, seed, out_dir, trace):
    from koopbilevel import artifacts, cli

    n_required = sum(
        1 for g in cli.load_bundle(workload)["gates"]
        if g.get("severity", "required") == "required"
    )
    tracer = Tracer()
    install(tracer, STAGE_TARGETS + (LAYER_TARGETS if trace else ()))
    rc = error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(["reproduce", "--bundle", workload, "--out", out_dir,
                           "--seed", str(seed)])
    except Exception as exc:  # a crash is recorded as every operation failing
        traceback.print_exc()
        error = repr(exc)
    finally:
        reproduce_s = time.perf_counter() - t0
        reproduce_cpu_s = time.process_time() - cpu0
        tracer.restore()
    result = {"rc": rc, "reproduce_s": reproduce_s, "reproduce_cpu_s": reproduce_cpu_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rc not in (0, 1):
        result.update(attempted=n_required + 1, failed=n_required + 1,
                      error=error or f"reproduce exited with {rc}")
        return result

    gates = artifacts.read_json(os.path.join(out_dir, "gates_report.json"))["gates"]
    required = [g for g in gates if g["severity"] == "required"]
    with contextlib.redirect_stdout(sys.stderr):
        audit_rc = cli.main(["audit", "--out", out_dir])
    entries = artifacts.read_json(os.path.join(out_dir, "report.json"))["entries"]
    spans = tracer.summary()
    result.update(
        attempted=len(required) + 1,
        failed=sum(not g["passed"] for g in required) + int(audit_rc != 0),
        audit_clean=audit_rc == 0,
        failed_gates=[g["id"] for g in required if not g["passed"]],
        pcc_state_min=min(e["pcc_state"] for e in entries),
        T_agreement_min=min(
            min(e["T_star"], e["T_star_baseline"]) / max(e["T_star"], e["T_star_baseline"])
            for e in entries
        ),
        fingerprint=fingerprint(out_dir, entries),
        environment=environment(cli),
    )
    for metric, span in STAGE_SECONDS.items():
        result[metric] = spans.get(span, {}).get("s", 0.0)
    if trace:
        result["layers"] = layer_metrics(tracer, spans, reproduce_s)
    return result


def wrapper_cost(samples=20000):
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    holder = types.ModuleType("noop_holder")
    holder.noop = lambda: None
    plain = holder.noop
    t0 = time.perf_counter()
    for _ in range(samples):
        plain()
    bare = time.perf_counter() - t0
    probe = Tracer()
    probe.wrap(holder, "noop", "noop")
    wrapped = holder.noop
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - t0
    probe.restore()
    return max(traced - bare, 0.0) / samples


def layer_metrics(tracer, spans, reproduce_s):
    """Flatten the span summary into the per-layer metric names."""
    out = {}
    for name, rec in spans.items():
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = rec[key]
    out["lower_level.solve_lower.failed"] = spans.get(
        "lower_level.solve_lower", {}).get("failed", 0)
    out.update(tracer.counters)
    ok_under_upper = sum(
        1 for s in tracer.spans
        if s[0] == "lower_level.solve_lower" and not s[4]
        and tracer.ancestor_named(s, "upper_level.solve_reduced")
    )
    upper_evals = tracer.counters["upper_level.nfev"] + spans.get(
        "upper_level.solve_reduced", {}).get("calls", 0)
    out["upper_level.lower_ok_frac"] = ok_under_upper / upper_evals if upper_evals else 0.0
    overhead = wrapper_cost() * len(tracer.spans)
    out["trace.overhead_frac"] = overhead / max(reproduce_s - overhead, 1e-9)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.setup:
        result = run_setup(args.workload)
    else:
        result = run_reproduce(args.workload, args.seed, args.out, args.trace)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
