"""Every gate kind, one passing and one failing synthetic run context each."""

import json
import warnings

import numpy as np
import pytest

from koopbilevel import ConfigError
from koopbilevel.gates import _GATE_KINDS, TWO_PI, evaluate_gates


def _sweep(envelope):
    # minima near 1 and 2 periods; the maxima between them follow envelope(T)
    T = np.linspace(2.0, 17.0, 301)
    c = (1.5 - np.cos(T)) * envelope(T)
    return [{"T": float(t), "c_star": float(v)} for t, v in zip(T, c)]


SWEEP = _sweep(lambda T: 1.0 / T)
RISING_SWEEP = _sweep(lambda T: T)
T_GRID = SWEEP[100]["T"]
C_GRID = SWEEP[100]["c_star"]


def _entry(variant, **fields):
    entry = {
        "variant": variant,
        "T_star": TWO_PI,
        "T_star_baseline": 1.01 * TWO_PI,
        "c": 1.0,
        "c_hat_lower": 1.0,
        "c_baseline": 0.5,
        "baseline_converged": True,
        "pcc_state": 0.99,
        "mbc_violation": 1e-9,
    }
    entry.update(fields)
    return entry


CTX = {
    "sweep_rows": SWEEP,
    "entries": [
        _entry("b0"),
        _entry("unconverged", baseline_converged=False),
        _entry("soft_w0.1", c=1.0, c_hat_lower=0.3),
        _entry("soft_w0.5", c=2.0, c_hat_lower=0.1),
    ],
    "timings": {"solve": 1.0, "per_variant": {"b0": 0.5}},
}

# (kind, gate settings, context changes, expected pass)
CASES = [
    ("local_minima_near_multiples", {"near_tol_periods": 0.02, "min_count": 2}, {}, True),
    ("local_minima_near_multiples", {"near_tol_periods": 0.02, "min_count": 3}, {}, False),
    ("decreasing_envelope", {}, {}, True),
    ("decreasing_envelope", {}, {"sweep_rows": RISING_SWEEP}, False),
    ("argmin_period_band", {"band_periods": [1.9, 2.1]}, {}, True),
    ("argmin_period_band", {"band_periods": [0.9, 1.1]}, {}, False),
    ("argmin_value_band", {"band": [0.03, 0.05]}, {}, True),
    ("argmin_value_band", {"band": [0.07, 0.09]}, {}, False),
    ("second_basin_value_band", {"band": [0.03, 0.05]}, {}, True),
    ("second_basin_value_band", {"band": [0.07, 0.09]}, {}, False),
    ("paper_curve_ratio", {"points": [[T_GRID, C_GRID]], "ratio_band": [0.99, 1.01]},
     {}, True),
    ("paper_curve_ratio", {"points": [[T_GRID, 2 * C_GRID]], "ratio_band": [0.99, 1.01]},
     {}, False),
    ("t_star_period_band", {"variant": "b0", "band_periods": [0.9, 1.1]}, {}, True),
    ("t_star_period_band", {"variant": "b0", "band_periods": [1.9, 2.1]}, {}, False),
    ("t_star_band", {"variant": "b0", "band": [6.0, 6.5]}, {}, True),
    ("t_star_band", {"variant": "b0", "band": [7.0, 8.0]}, {}, False),
    ("pcc_state_min", {"variants": ["b0"], "min": 0.95}, {}, True),
    ("pcc_state_min", {"variants": ["b0"], "min": 0.995}, {}, False),
    ("t_star_rel_diff_max", {"variants": ["b0"], "max": 0.02}, {}, True),
    ("t_star_rel_diff_max", {"variants": ["b0"], "max": 0.005}, {}, False),
    ("baseline_cost_band", {"variants": ["b0"], "band": [0.4, 0.6]}, {}, True),
    ("baseline_cost_band", {"variants": ["unconverged"], "band": [0.4, 0.6]}, {}, False),
    ("soft_tradeoff_ordering", {"weights": [0.1, 0.5]}, {}, True),
    ("soft_tradeoff_ordering", {"weights": [0.5, 0.1]}, {}, False),
    ("mbc_violation_max", {"variant": "b0", "max": 1e-6}, {}, True),
    ("mbc_violation_max", {"variant": "b0", "max": 1e-10}, {}, False),
    ("walker_accuracy", {"variant": "b0", "pcc_min": 0.95}, {}, True),
    ("walker_accuracy", {"variant": "unconverged", "pcc_min": 0.95}, {}, False),
    ("runtime_max_seconds", {"stage": "solve", "limit": 2.0}, {}, True),
    ("runtime_max_seconds", {"stage": "solve", "limit": 0.5}, {}, False),
    ("runtime_per_variant_max_seconds", {"limit": 1.0}, {}, True),
    ("runtime_per_variant_max_seconds", {"limit": 0.1}, {}, False),
]


def test_every_kind_has_a_passing_and_a_failing_case():
    for expected in (True, False):
        assert {kind for kind, _, _, ok in CASES if ok is expected} == set(_GATE_KINDS)


@pytest.mark.parametrize(
    "kind,settings,changes,expected", CASES,
    ids=[f"{kind}-{'pass' if ok else 'fail'}" for kind, _, _, ok in CASES],
)
def test_gate_kind(kind, settings, changes, expected):
    gate = dict(settings, kind=kind, id="g")
    results, passed = evaluate_gates([gate], dict(CTX, **changes))
    assert results[0]["passed"] is expected
    assert passed is expected


def test_walker_accuracy_detail_says_the_baseline_did_not_converge():
    gate = {"kind": "walker_accuracy", "variant": "unconverged", "pcc_min": 0.95}
    results, _ = evaluate_gates([gate], CTX)
    assert results[0]["detail"]["baseline_converged"] is False
    assert results[0]["detail"]["pcc_state"] == 0.99


def test_baseline_cost_band_detail_says_the_baseline_did_not_converge():
    gate = {"kind": "baseline_cost_band", "variants": ["b0", "unconverged"],
            "band": [0.4, 0.6]}
    results, _ = evaluate_gates([gate], CTX)
    assert not results[0]["passed"]
    assert results[0]["detail"] == {
        "c_baseline": {"b0": 0.5, "unconverged": 0.5},
        "baseline_converged": {"b0": True, "unconverged": False},
    }


@pytest.mark.parametrize("gate", [
    {"kind": "argmin_period_band", "band_periods": [1.9, 2.1]},
    {"kind": "argmin_value_band", "band": [0.0, 1.0]},
    {"kind": "paper_curve_ratio", "points": [[T_GRID, C_GRID]], "ratio_band": [0.0, 2.0]},
], ids=lambda gate: gate["kind"])
def test_argmin_gates_fail_on_an_all_nan_sweep(gate):
    rows = [dict(r, c_star=np.nan) for r in SWEEP]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, passed = evaluate_gates([gate], dict(CTX, sweep_rows=rows))
    assert not results[0]["passed"] and not passed
    assert "note" in results[0]["detail"]
    # gates_report.json holds strict JSON: no NaN, no Infinity
    json.dumps(results, allow_nan=False)


def test_runtime_gate_fails_on_a_stage_that_did_not_run():
    gate = {"kind": "runtime_max_seconds", "stage": "sweep", "limit": 1.0}
    results, passed = evaluate_gates([gate], CTX)
    assert not results[0]["passed"] and not passed
    assert results[0]["detail"] == {"note": "stage 'sweep' did not run"}
    json.dumps(results, allow_nan=False)


def test_unknown_kind_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown gate kind 'no_such_kind'"):
        evaluate_gates([{"kind": "no_such_kind"}], CTX)


def test_only_required_gates_decide_the_bundle():
    failing = {"kind": "t_star_band", "variant": "b0", "band": [7.0, 8.0]}
    results, passed = evaluate_gates([dict(failing, severity="informational")], CTX)
    assert not results[0]["passed"] and passed
    _, passed = evaluate_gates([failing], CTX)
    assert not passed
