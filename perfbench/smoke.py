"""Smoke test of the benchmark itself, on the fig1 workload (about 30 s).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with the unit and
direction given there, that the stage times of a run sum to no more than its
``reproduce_s``, that a missing trace target raises, and that after a traced
run every wrapped function is the original again.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 20241  # held out from the bundle pin 20240
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke FAILED: {msg}")


def bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fig1",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}:\n"
          + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_metrics(result, declared, table):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True and result["attempted"] >= 1, "run not correct")
    check([(m["name"], m["unit"], m["better"]) for m in declared] == list(table),
          "BENCHMARK.json metrics differ from the table in run.py")
    for m in declared:
        got = result["metrics"].get(m["name"])
        check(got is not None, f"metric {m['name']} not emitted")
        check(got["unit"] == m["unit"], f"metric {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"metric {m['name']} not a number")
    check(set(result["metrics"]) == {m["name"] for m in declared}, "extra metrics emitted")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    record, result = bench(trace=0)
    check_metrics(result, spec["end_to_end"], run.END_TO_END)
    for r in record["runs"]:
        stages = sum(r[k] for k in child.STAGE_SECONDS)
        check(stages <= r["reproduce_s"],
              f"stage times {stages:.3f} s exceed reproduce_s {r['reproduce_s']:.3f} s")
        check(r["deterministic"], "artifacts not byte-identical across runs")

    _, result = bench(trace=1)
    check_metrics(result, spec["per_layer"], run.PER_LAYER)

    try:
        Tracer().wrap(importlib.import_module("koopbilevel.cli"), "no_such_stage", "x")
    except LookupError:
        pass
    else:
        check(False, "wrapping a missing target did not raise")

    targets = child.STAGE_TARGETS + child.LAYER_TARGETS
    owners, originals = [], []
    for module_name, class_name, attr, _ in targets:
        owner = importlib.import_module(f"koopbilevel.{module_name}")
        owner = getattr(owner, class_name) if class_name else owner
        owners.append(owner)
        originals.append(vars(owner)[attr])
    out = os.path.join(ROOT, ".perfbench", "smoke")
    shutil.rmtree(out, ignore_errors=True)
    try:
        res = child.run_reproduce("fig1", SEED, out, trace=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    check(res["layers"]["lower_level.solve_lower.calls"] > 0, "traced run recorded no spans")
    for owner, original, (_, _, attr, _) in zip(owners, originals, targets):
        check(vars(owner)[attr] is original, f"{attr} still wrapped after the traced run")
    print("smoke: ok")


if __name__ == "__main__":
    main()
