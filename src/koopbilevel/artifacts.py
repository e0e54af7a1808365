"""Result persistence: deterministic CSV/JSON artifacts and comparison reports.

This module owns every CSV: trajectories (header ``t,x1..xn,u1..um``) and
the sweeps' rows are written by :func:`write_csv`, and a CSV read back is
parsed by :func:`read_csv`. Everything else goes to JSON with sorted keys.
All floats are written with shortest round-trip ``repr`` so identical runs
produce byte-identical files and every reported number can be recomputed
exactly from what is on disk.

Identical runs means the same inputs and libraries; ``koopbilevel.cli.main``
runs every command on one OpenBLAS thread, so the thread count the process
starts with changes no artifact. ``gates_report.json`` also holds wall-clock
timings.
"""

import hashlib
import json

import numpy as np

from .errors import ArtifactError, ConfigError, CorrelationError, NumericError
from .systems import running_cost

__all__ = [
    "canonical_json",
    "write_json",
    "read_json",
    "sha256_file",
    "write_csv",
    "read_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "comparison_entry",
]


# points of the normalized-time grid that PCC compares trajectories on; one
# constant, so the report and audit compute on the same grid
_PCC_POINTS = 101


def canonical_json(obj):
    """Deterministic serialization: sorted keys, exact float round trip."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def read_json(path, keys=()):
    """The JSON object at ``path``, which every JSON artifact is; a file that
    does not parse, or that is not an object with each of ``keys``, raises
    ``ArtifactError`` naming it."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ArtifactError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ArtifactError(f"{path}: not a JSON object")
    for key in keys:
        if key not in obj:
            raise ArtifactError(f"{path}: missing key {key!r}")
    return obj


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def write_csv(path, header, rows):
    """Write ``rows`` under the column names ``header``: numbers as
    round-trip floats, strings as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else repr(float(x))
                              for x in row) + "\n")


def read_csv(path):
    """The header of the CSV at ``path`` and its rows as a ``(rows,
    columns)`` float array. An empty file, a row without one field per
    column or a field that is not a number raises ``ArtifactError`` naming
    it."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ArtifactError(f"{path}: empty file")
    header = lines[0].split(",")
    try:
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ArtifactError(f"{path}: line {i} has {len(row)} fields, "
                                f"the header {len(header)}")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def write_trajectory_csv(path, times, states, inputs):
    """Write a sampled trajectory with its piecewise-constant inputs.

    ``states`` is ``(N+1, n_x)`` and ``inputs`` ``(N, n_u)``; the final input
    row repeats the last knot (step-plot convention), which cost
    recomputation must ignore.
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    n_pts, n_x = states.shape
    if inputs.shape[0] != n_pts - 1:
        raise ConfigError(
            f"expected {n_pts - 1} input rows for {n_pts} states, got {inputs.shape[0]}"
        )
    header = ["t"] + [f"x{i + 1}" for i in range(n_x)] + [
        f"u{i + 1}" for i in range(inputs.shape[1])
    ]
    u_full = np.vstack([inputs, inputs[-1:]])
    write_csv(path, header, np.column_stack([times, states, u_full]))


def read_trajectory_csv(path):
    """Inverse of :func:`write_trajectory_csv`, trimming the repeated input
    row. A file that :func:`read_csv` rejects, one with fewer than two rows,
    the shortest trajectory written, or whose last input row does not repeat
    the one before it, raises ``ArtifactError`` naming it."""
    header, data = read_csv(path)
    if data.shape[0] < 2:
        raise ArtifactError(f"{path}: not a trajectory: expected at least two "
                            f"rows of {len(header)} numbers")
    n_x = sum(1 for name in header if name.startswith("x"))
    n_u = sum(1 for name in header if name.startswith("u"))
    times = data[:, 0]
    states = data[:, 1 : 1 + n_x]
    inputs = data[:, 1 + n_x : 1 + n_x + n_u]
    if not np.array_equal(inputs[-1], inputs[-2], equal_nan=True):
        raise ArtifactError(f"{path}: the last input row {inputs[-1].tolist()} does "
                            f"not repeat the one before it, {inputs[-2].tolist()}")
    return times, states, inputs[:-1]


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
        # on the spread, not the centred norm: a constant's mean need not
        # round to its value
        if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
            raise CorrelationError("correlation undefined for zero-variance series")
        da, db = a - a.mean(), b - b.mean()
        na, nb = float(np.linalg.norm(da)), float(np.linalg.norm(db))
        pccs.append(float(np.clip(da @ db / (na * nb), -1.0, 1.0)))
    return float(np.mean(pccs))


def comparison_entry(solution, trajectory, baseline, baseline_trajectory):
    """Report entry comparing one variant with the baseline, from what is
    written for them: their JSON records and ``(times, states, inputs)``
    trajectories. ``c_hat_lower`` and ``mbc_violation`` are copied from the
    variant's solution record, the ``baseline_*`` verdict and residuals from
    the baseline's; ``audit`` re-runs the solve that calls it, so every
    field is audited."""
    times, states, inputs = trajectory
    times_b, states_b, inputs_b = baseline_trajectory
    return {
        "variant": solution["variant"],
        "T_star": float(times[-1]),
        "T_star_baseline": float(times_b[-1]),
        "pcc_state": trajectory_pcc(times, states, times_b, states_b),
        # inputs are knot-valued; compare them on the knot grid
        "pcc_input": trajectory_pcc(times[:-1], inputs, times_b[:-1], inputs_b),
        "c": running_cost(times[-1], inputs),
        "c_baseline": running_cost(times_b[-1], inputs_b),
        "c_hat_lower": solution["c_hat_lower"],
        "mbc_violation": solution["constraint_violation"],
        "baseline_converged": baseline["converged"],
        "baseline_max_defect": baseline["max_defect"],
        "baseline_max_mbc_violation": baseline["max_mbc_violation"],
    }
