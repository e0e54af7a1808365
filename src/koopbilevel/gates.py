"""Reproduction gates: data-driven pass/fail checks for bundle runs.

Gate *thresholds* live in the bundle JSON; this module only interprets them.
Each gate kind receives the run context (sweep rows, per-variant comparison
entries, timings) and returns a result record. A bundle passes when every
gate marked ``required`` passes; ``informational`` gates are reported but do
not affect the exit code.
"""

import operator

import numpy as np

from .errors import ConfigError
from .lower_level import BoundaryVariant

TWO_PI = 2.0 * np.pi

__all__ = ["evaluate_gates", "TWO_PI"]


def _sweep_arrays(ctx):
    rows = ctx.get("sweep_rows")
    if not rows:
        raise ConfigError("gate needs sweep data but none was produced")
    T = np.array([r["T"] for r in rows])
    c = np.array([r["c_star"] for r in rows])
    return T, c


def _local_extrema(T, c, better):
    """``(T, c)`` at each interior sweep point whose finite cost is
    ``better`` than both neighbours': ``operator.lt`` for the local minima,
    ``operator.gt`` for the maxima."""
    return [
        (T[i], c[i])
        for i in range(1, len(c) - 1)
        if np.isfinite(c[i]) and better(c[i], c[i - 1]) and better(c[i], c[i + 1])
    ]


def _entry(ctx, variant):
    for e in ctx["entries"]:
        if e["variant"] == variant:
            return e
    raise ConfigError(f"gate refers to missing variant '{variant}'")


def _gate_local_minima_near_multiples(gate, ctx):
    T, c = _sweep_arrays(ctx)
    minima = _local_extrema(T, c, operator.lt)
    tol = gate["near_tol_periods"]
    near = [
        (t, v)
        for t, v in minima
        if abs(t / TWO_PI - round(t / TWO_PI)) <= tol and round(t / TWO_PI) >= 1
    ]
    passed = len(near) >= gate["min_count"]
    return passed, {
        "minima_periods": [round(float(t) / TWO_PI, 5) for t, _ in near],
        "count": len(near),
    }


def _gate_decreasing_envelope(gate, ctx):
    T, c = _sweep_arrays(ctx)
    maxima = [v for _, v in _local_extrema(T, c, operator.gt)]
    passed = all(b < a for a, b in zip(maxima, maxima[1:])) and len(maxima) >= 2
    return passed, {"maxima": [round(float(v), 6) for v in maxima]}


def _gate_argmin_period_band(gate, ctx):
    T, c = _sweep_arrays(ctx)
    if np.isnan(c).all():
        return False, {"note": "every sweep cost is NaN"}
    i = int(np.nanargmin(c))
    val = float(T[i]) / TWO_PI
    lo, hi = gate["band_periods"]
    return lo <= val <= hi, {"argmin_period": val}


def _gate_argmin_value_band(gate, ctx):
    _, c = _sweep_arrays(ctx)
    if np.isnan(c).all():
        return False, {"note": "every sweep cost is NaN"}
    val = float(np.nanmin(c))
    lo, hi = gate["band"]
    return lo <= val <= hi, {"min_value": val}


def _gate_second_basin_value_band(gate, ctx):
    T, c = _sweep_arrays(ctx)
    minima = _local_extrema(T, c, operator.lt)
    if not minima:
        return False, {"note": "no local minima found"}
    t2, v2 = min(minima, key=lambda tv: abs(tv[0] / TWO_PI - 2.0))
    lo, hi = gate["band"]
    return lo <= v2 <= hi, {"second_basin_period": float(t2) / TWO_PI, "value": float(v2)}


def _gate_paper_curve_ratio(gate, ctx):
    T, c = _sweep_arrays(ctx)
    lo, hi = gate["ratio_band"]
    ratios = []
    for t_ref, c_ref in gate["points"]:
        i = int(np.argmin(np.abs(T - t_ref)))
        if abs(T[i] - t_ref) > 1e-6 * max(1.0, abs(t_ref)):
            return False, {"note": f"sweep grid misses reference point T={t_ref}"}
        if not np.isfinite(c[i]):
            return False, {"note": f"sweep cost at reference point T={t_ref} is {c[i]}"}
        ratios.append(float(c[i] / c_ref))
    passed = all(lo <= r <= hi for r in ratios)
    return passed, {"ratios": [round(r, 5) for r in ratios]}


def _gate_t_star_period_band(gate, ctx):
    entry = _entry(ctx, gate["variant"])
    val = entry["T_star"] / TWO_PI
    lo, hi = gate["band_periods"]
    return lo <= val <= hi, {"t_star_periods": val}


def _gate_t_star_band(gate, ctx):
    entry = _entry(ctx, gate["variant"])
    lo, hi = gate["band"]
    return lo <= entry["T_star"] <= hi, {"t_star": entry["T_star"]}


def _gate_pcc_state_min(gate, ctx):
    vals = {v: _entry(ctx, v)["pcc_state"] for v in gate["variants"]}
    passed = all(val >= gate["min"] for val in vals.values())
    return passed, {"pcc_state": vals}


def _gate_t_star_rel_diff_max(gate, ctx):
    vals = {}
    for v in gate["variants"]:
        e = _entry(ctx, v)
        vals[v] = abs(e["T_star"] - e["T_star_baseline"]) / e["T_star_baseline"]
    passed = all(val <= gate["max"] for val in vals.values())
    return passed, {"rel_diff": vals}


def _gate_baseline_cost_band(gate, ctx):
    lo, hi = gate["band"]
    entries = {v: _entry(ctx, v) for v in gate["variants"]}
    costs = {v: e["c_baseline"] for v, e in entries.items()}
    converged = {v: e["baseline_converged"] for v, e in entries.items()}
    passed = all(converged.values()) and all(lo <= c <= hi for c in costs.values())
    return passed, {"c_baseline": costs, "baseline_converged": converged}


def _gate_soft_tradeoff_ordering(gate, ctx):
    weights = gate["weights"]
    cs, chats = [], []
    for w in weights:
        e = _entry(ctx, BoundaryVariant("soft", w).label)
        cs.append(e["c"])
        chats.append(e["c_hat_lower"])
    inc = all(b > a for a, b in zip(cs, cs[1:]))
    dec = all(b < a for a, b in zip(chats, chats[1:]))
    return inc and dec, {"c": cs, "c_hat_lower": chats}


def _gate_mbc_violation_max(gate, ctx):
    entry = _entry(ctx, gate["variant"])
    return entry["mbc_violation"] <= gate["max"], {
        "mbc_violation": entry["mbc_violation"]
    }


def _gate_walker_accuracy(gate, ctx):
    """PCC against a converged baseline. A baseline that did not converge
    fails the gate: the bilevel solution's own periodicity and speed hold by
    construction, since every variant pins its boundaries, so they cannot
    stand in for the comparison."""
    entry = _entry(ctx, gate["variant"])
    val = entry["pcc_state"]
    converged = entry["baseline_converged"]
    passed = converged and val >= gate["pcc_min"]
    return passed, {"pcc_state": val, "baseline_converged": converged}


def _gate_runtime_max_seconds(gate, ctx):
    if gate["stage"] not in ctx["timings"]:
        return False, {"note": f"stage '{gate['stage']}' did not run"}
    val = ctx["timings"][gate["stage"]]
    return val <= gate["limit"], {"seconds": round(val, 2)}


def _gate_runtime_per_variant_max_seconds(gate, ctx):
    per = ctx["timings"].get("per_variant", {})
    passed = bool(per) and all(t <= gate["limit"] for t in per.values())
    return passed, {"seconds": {k: round(v, 2) for k, v in per.items()}}


_GATE_KINDS = {
    "local_minima_near_multiples": _gate_local_minima_near_multiples,
    "decreasing_envelope": _gate_decreasing_envelope,
    "argmin_period_band": _gate_argmin_period_band,
    "argmin_value_band": _gate_argmin_value_band,
    "second_basin_value_band": _gate_second_basin_value_band,
    "paper_curve_ratio": _gate_paper_curve_ratio,
    "t_star_period_band": _gate_t_star_period_band,
    "t_star_band": _gate_t_star_band,
    "pcc_state_min": _gate_pcc_state_min,
    "t_star_rel_diff_max": _gate_t_star_rel_diff_max,
    "baseline_cost_band": _gate_baseline_cost_band,
    "soft_tradeoff_ordering": _gate_soft_tradeoff_ordering,
    "mbc_violation_max": _gate_mbc_violation_max,
    "walker_accuracy": _gate_walker_accuracy,
    "runtime_max_seconds": _gate_runtime_max_seconds,
    "runtime_per_variant_max_seconds": _gate_runtime_per_variant_max_seconds,
}


def evaluate_gates(gates, ctx):
    """Run every gate; returns (results, overall_pass)."""
    results = []
    for gate in gates:
        kind = gate.get("kind")
        if kind not in _GATE_KINDS:
            raise ConfigError(f"unknown gate kind '{kind}'")
        passed, detail = _GATE_KINDS[kind](gate, ctx)
        rec = {
            "id": gate.get("id", kind),
            "kind": kind,
            "severity": gate.get("severity", "required"),
            "passed": bool(passed),
            "detail": detail,
        }
        if "note" in gate:
            rec["note"] = gate["note"]
        results.append(rec)
    overall = all(r["passed"] for r in results if r["severity"] == "required")
    return results, overall
