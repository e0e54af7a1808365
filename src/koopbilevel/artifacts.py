"""Result persistence: deterministic CSV/JSON artifacts and comparison reports.

Trajectories go to CSV (header ``t,x1..xn,u1..um``), everything else to JSON
with sorted keys. All floats are written with shortest round-trip ``repr`` so
identical runs produce byte-identical files and every reported number can be
recomputed exactly from what is on disk.

Identical runs means the same inputs at the same BLAS thread count: BLAS
reductions round differently per thread count, so walker with one OpenBLAS
thread instead of two moves ``model.json``'s ``L0`` by 3.5e-13 relative and
every artifact differs, though ``T_star`` moves by only 4.7e-8 relative.
"""

import hashlib
import json

import numpy as np

from .errors import ConfigError, CorrelationError, NumericError
from .lifting import lift
from .systems import running_cost

__all__ = [
    "canonical_json",
    "write_json",
    "read_json",
    "sha256_file",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "comparison_entry",
]


# points of the normalized-time grid that PCC compares trajectories on; one
# constant, so the report and audit compute on the same grid
_PCC_POINTS = 101


def _fmt(x):
    return repr(float(x))


def canonical_json(obj):
    """Deterministic serialization: sorted keys, exact float round trip."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def write_trajectory_csv(path, times, states, inputs):
    """Write a sampled trajectory with its piecewise-constant inputs.

    States have N+1 rows and inputs N; the final input row repeats the last
    knot (step-plot convention), which cost recomputation must ignore.
    """
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    n_pts, n_x = states.shape
    if inputs.shape[0] != n_pts - 1:
        raise ConfigError(
            f"expected {n_pts - 1} input rows for {n_pts} states, got {inputs.shape[0]}"
        )
    u_full = np.vstack([inputs, inputs[-1:]])
    header = ["t"] + [f"x{i + 1}" for i in range(n_x)] + [
        f"u{i + 1}" for i in range(inputs.shape[1])
    ]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(n_pts):
            row = [times[k], *states[k], *u_full[k]]
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_trajectory_csv(path):
    """Inverse of :func:`write_trajectory_csv`, trimming the repeated input row."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array(
            [[float(tok) for tok in line.strip().split(",")] for line in fh]
        )
    n_x = sum(1 for name in header if name.startswith("x"))
    n_u = sum(1 for name in header if name.startswith("u"))
    times = data[:, 0]
    states = data[:, 1 : 1 + n_x]
    inputs = data[:-1, 1 + n_x : 1 + n_x + n_u]
    return times, states, inputs


def trajectory_pcc(times_a, values_a, times_b, values_b):
    """Mean over state dimensions of the Pearson correlation of two signals.

    Each signal, ``(k+1,)`` times with ``(k+1, n_x)`` or ``(k+1,)`` values,
    is linearly interpolated onto ``_PCC_POINTS`` points of normalized time
    tau in [0, 1], so signals with different periods compare.
    """
    grid = np.linspace(0.0, 1.0, _PCC_POINTS)
    resampled = []
    for times, values in ((times_a, values_a), (times_b, values_b)):
        times = np.asarray(times, dtype=float)
        span = times[-1] - times[0]
        if span <= 0:
            raise NumericError("cannot normalize a trajectory with zero duration")
        tau = (times - times[0]) / span
        columns = np.atleast_2d(np.asarray(values, dtype=float).T)
        resampled.append([np.interp(grid, tau, col) for col in columns])
    pccs = []
    for a, b in zip(*resampled):
        da, db = a - a.mean(), b - b.mean()
        na, nb = float(np.linalg.norm(da)), float(np.linalg.norm(db))
        if na == 0.0 or nb == 0.0:
            raise CorrelationError("correlation undefined for zero-variance series")
        pccs.append(float(np.clip(da @ db / (na * nb), -1.0, 1.0)))
    return float(np.mean(pccs))


def comparison_entry(solution, trajectory, baseline, baseline_trajectory,
                     dictionary):
    """Report entry comparing one variant with the baseline, from what is
    written for them: their JSON records and ``(times, states, inputs)``
    trajectories, and the dictionary that lifts the variant's boundaries.
    ``solve`` and ``audit`` both call it, so every field is audited."""
    times, states, inputs = trajectory
    times_b, states_b, inputs_b = baseline_trajectory
    # one batched lift, as the lower level lifts its boundaries
    psi0, psiT = lift(dictionary, np.array([solution["x0"], solution["xT"]]))
    return {
        "variant": solution["variant"],
        "T_star": float(times[-1]),
        "T_star_baseline": float(times_b[-1]),
        "pcc_state": trajectory_pcc(times, states, times_b, states_b),
        # inputs are knot-valued; compare them on the knot grid
        "pcc_input": trajectory_pcc(times[:-1], inputs, times_b[:-1], inputs_b),
        "c": running_cost(times[-1], inputs),
        "c_baseline": running_cost(times_b[-1], inputs_b),
        "c_hat_lower": float(np.sum((np.asarray(solution["z0"]) - psi0) ** 2)
                             + np.sum((np.asarray(solution["zN"]) - psiT) ** 2)),
        "mbc_violation": solution["constraint_violation"],
        "baseline_converged": baseline["converged"],
        "baseline_max_defect": baseline["max_defect"],
        "baseline_max_mbc_violation": baseline["max_mbc_violation"],
    }
