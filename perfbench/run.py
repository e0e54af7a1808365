"""Benchmark of ``koopbilevel reproduce``, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 1 --trace 0

A workload is a pinned bundle; ``--seed`` becomes the identification sample
seed of ``reproduce --seed``. The loop is closed with one client: each run is
a fresh process (``perfbench/child.py``) that starts after the previous one
has ended, and runs keep starting until ``--seconds`` have passed. Before the
runs, set-up (import, load and validate the bundle) is timed in several fresh
processes.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced runs, each the
median over the runs. The line before it is a record with the environment,
the operation counts and the determinism fingerprint of every run. A run
whose artifact hashes differ from those of an earlier run on the same source
tree, workload and seed is flagged and makes the result incorrect.
Fingerprints are kept under ``.perfbench/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1", "pendulum", "walker")
SETUP_REPEATS = 3
DEADLINE_S = 175.0  # one invocation must end within 180 s

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("reproduce_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "ratio", "higher"),
    ("pcc_state_min", "ratio", "higher"),
    ("T_agreement_min", "ratio", "higher"),
)


def _layer(prefix, keys):
    units = {"calls": "count", "s": "s", "self_s": "s", "failed": "count"}
    return tuple((f"{prefix}.{k}", units[k], "lower") for k in keys)


PER_LAYER = (
    _layer("lifting.manifold_defect", ("calls", "s", "self_s"))
    + _layer("lifting.lift", ("calls", "s", "self_s"))
    + _layer("numerics.zoh_discretize", ("calls", "s", "self_s"))
    + _layer("numerics.solve_kkt", ("calls", "s", "self_s"))
    + _layer("lower_level.build_qp", ("calls", "s", "self_s"))
    + _layer("lower_level.solve_lower", ("calls", "s", "self_s", "failed"))
    + _layer("upper_level.solve_reduced", ("s", "self_s"))
    + _layer("upper_level.sweep_period", ("s",))
    + (("upper_level.nfev", "count", "lower"),
       ("upper_level.lower_ok_frac", "ratio", "higher"))
    + _layer("baseline_nlp.solve_nlp", ("s", "self_s"))
    + _layer("baseline_nlp.constraint_jacobian", ("calls", "s", "self_s"))
    + _layer("baseline_nlp.constraints", ("calls", "s", "self_s"))
    + (("baseline_nlp.outer_iterations", "count", "lower"),
       ("baseline_nlp.inner_iterations", "count", "lower"),
       ("baseline_nlp.nonconverged", "count", "lower"))
    + _layer("systems.rk4_step", ("calls", "s", "self_s"))
    + _layer("gedmd.identify", ("s",))
    + _layer("gedmd.assemble_data", ("s",))
    + _layer("gedmd.fit_generator", ("s",))
    + _layer("artifacts.write", ("s",))
    + _layer("gates.evaluate_gates", ("s",))
    + (("trace.overhead_frac", "ratio", "lower"),)
)


def source_digest(root):
    """sha256 over the program's source tree, standing in for the commit."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def run_child(root, args, deadline):
    """Run child.py in a fresh process; return its JSON result or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"child {args} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_fingerprint(store, key, fp):
    """Compare with the first fingerprint stored under ``key``; store it if new."""
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            first = json.load(fh)
        return first["sha256"] == fp["sha256"]
    os.makedirs(store, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(fp, fh, sort_keys=True, indent=1)
    return True


def median_of(runs, key):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "koopbilevel", "cli.py")):
        print("run from the repository root: src/koopbilevel not found", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    state = os.path.join(root, ".perfbench")
    key = f"{source_digest(root)[:16]}-{args.workload}-{args.seed}"

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            res = run_child(root, ["--setup", "--workload", args.workload], deadline)
            if res is None:
                return 1
            setups.append(res["setup_s"])

    runs = []
    correct = True
    start = time.monotonic()
    while True:
        out = os.path.join(state, "out", f"{key}-{os.getpid()}-{len(runs)}")
        shutil.rmtree(out, ignore_errors=True)
        child_args = ["--workload", args.workload, "--seed", str(args.seed), "--out", out]
        t0 = time.monotonic()
        res = run_child(root, child_args + (["--trace"] if args.trace else []), deadline)
        took = time.monotonic() - t0
        shutil.rmtree(out, ignore_errors=True)
        if res is None:
            return 1
        if res.get("error") or not res.get("audit_clean"):
            correct = False
        if "fingerprint" in res:
            res["deterministic"] = check_fingerprint(
                os.path.join(state, "fingerprints"), key, res["fingerprint"])
            if not res["deterministic"]:
                print(f"FLAG: artifacts differ from the first run of {key}",
                      file=sys.stderr)
                correct = False
        runs.append(res)
        now = time.monotonic()
        if now - start >= args.seconds or now + 1.2 * took > deadline:
            break

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r.get("layers", {}).get(name, 0.0) for r in runs),
                   "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_frac": 1.0 - failed / attempted,
            **{name: median_of(runs, name) for name, _, _ in END_TO_END
               if name not in ("setup_s", "pass_frac")},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "source": key.split("-")[0],
        "setup_s": setups,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
