"""Direct-transcription baseline for the original nonlinear problem.

The continuous problem is transcribed with one RK4 step per knot interval
(piecewise-constant inputs, free period entering through the step size) into
an all-equality NLP:

    min (T/N) sum ||u_k||^2
    s.t. x_{k+1} - RK4(x_k, u_k, T/N) = 0   (defects)
         b(x_0, x_N, T) = 0                 (mixed boundary rows)

solved by sequential quadratic programming (Nocedal & Wright, *Numerical
Optimization*, ch. 18) in Kraft's SLSQP form, with the period kept in a box.
SLSQP sees the multiple-shooting form of the same transcription (Bock &
Plitt, *A multiple shooting algorithm for direct solution of optimal control
problems*, IFAC 1984): a state variable only at every ``_SEGMENT``-th knot and
at knot N, with one defect per segment over the unchanged RK4 steps inside
it. The discrete feasible set and optimum are the same, and the dense SQP
subproblem has far fewer variables. The every-knot transcription stays the
checker: the solution's state at every knot is rebuilt by stepping forward
from each node, and its feasibility and KKT residual are measured there.

Constraint Jacobians come from one central-difference rule (Nocedal &
Wright, *Numerical Optimization*, sec. 8.1). Each defect touches only its
own node, its segment's inputs and T, so one batch of a segment's RK4 steps,
over every segment, the nominal point and each coordinate of (node state,
segment inputs, T) stepped both ways, gives the constraints and every defect
column together. The boundary rows are differenced over (x0, xN, T), every
stepped point in one call of the constraint, which broadcasts over them
(``MixedBoundaryConstraint``). The every-knot Jacobian is the
one-knot-segment case.

This module is the comparison oracle: it is deliberately plain, with no
sparsity or second-order machinery beyond what the problem sizes need.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BuildError
from .systems import rk4_step, running_cost

__all__ = [
    "TranscribedNlp",
    "NlpSolution",
    "solve_nlp",
    "check_trajectory",
]


# SLSQP's major-iteration budget: no bundle run comes near it (on the
# shooting form walker stops after 31, pendulum after 14, fig1 after 2; on
# every knot they took 48, 30 and 2)
_MAXITER = 6000
# knots per multiple-shooting segment of the problem SLSQP solves. Median of
# 3 one-thread solves from b0_bilevel.csv on a 2-core Xeon, walker/pendulum:
# 5 and 10 are within noise (0.12/0.052 s and 0.14/0.051 s), 1 (every knot)
# and 20 are slower (0.40/0.29 s and 0.18/0.063 s)
_SEGMENT = 10
# bound on the largest constraint residual and on the KKT stationarity
# residual of a converged solution
_TOL_FEAS = 1e-6
# central-difference step of the constraint Jacobian
_FD_STEP = 1e-6


@dataclass(frozen=True)
class NlpSolution:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    T: float
    cost: float
    max_defect: float
    max_mbc_violation: float
    kkt_residual: float
    converged: bool
    outer_iterations: int
    inner_iterations: int
    history: tuple


class TranscribedNlp:
    """Decision vector (node states, u_0..u_{N-1}, T) with defect constraints.

    A node sits at every ``segment``-th knot and at knot N; the last segment
    is shorter when ``segment`` does not divide N. Each defect is the next
    node state minus the RK4 steps from the node. The default ``segment=1``
    puts a node on every knot: the transcription (x_0..x_N, u, T) that
    :func:`check_trajectory` checks.
    """

    def __init__(self, system, mbc, N, segment=1):
        if N < 2:
            raise BuildError(f"need at least 2 intervals, got N={N}")
        if mbc.n_x != system.n_x:
            raise BuildError(
                f"constraint is for n_x={mbc.n_x}, system has n_x={system.n_x}"
            )
        if segment < 1:
            raise BuildError(f"need at least 1 knot per segment, got {segment}")
        self.system = system
        self.mbc = mbc
        self.N = int(N)
        # a segment longer than the grid is one segment over all N intervals
        self.segment = min(int(segment), self.N)
        self.nodes = np.append(np.arange(0, self.N, self.segment), self.N)
        # segments that take RK4 step j: all but a last segment shorter than j + 1
        lengths = np.diff(self.nodes)
        self._active = [int(np.sum(lengths > j)) for j in range(self.segment)]
        self.n_segments = len(lengths)
        self.n_x = system.n_x
        self.n_u = system.n_u
        self.n_states = (self.n_segments + 1) * self.n_x
        self.n_inputs = self.N * self.n_u
        self.n_var = self.n_states + self.n_inputs + 1
        self.n_defects = self.n_segments * self.n_x
        self.n_con = self.n_defects + mbc.n_g

    # -- packing ------------------------------------------------------------

    def pack(self, X, U, T):
        return np.concatenate(
            [np.asarray(X, float).ravel(), np.asarray(U, float).ravel(), [float(T)]]
        )

    def unpack(self, v):
        X = v[: self.n_states].reshape(self.n_segments + 1, self.n_x)
        U = v[self.n_states : self.n_states + self.n_inputs].reshape(
            self.N, self.n_u
        )
        return X, U, float(v[-1])

    def _segment_inputs(self, U):
        """Inputs as ``(n_segments, segment, n_u)``, zero-padded past u_{N-1}."""
        padded = np.zeros((self.n_segments * self.segment, self.n_u))
        padded[: self.N] = U
        return padded.reshape(self.n_segments, self.segment, self.n_u)

    def _shoot(self, x, U, h):
        """States after each RK4 step of every segment, ``(..., n_segments,
        segment, n_x)``, from node states ``x`` (..., n_segments, n_x) under
        segment inputs ``U`` (..., n_segments, segment, n_u). A short last
        segment stops at knot N and holds its end state in the padded slots."""
        x = np.array(x, dtype=float)
        path = np.empty(x.shape[:-1] + (self.segment, self.n_x))
        for j, s in enumerate(self._active):
            x[..., :s, :] = rk4_step(self.system, x[..., :s, :],
                                     U[..., :s, j, :], h)
            path[..., j, :] = x
        return path

    def knot_states(self, v):
        """The ``(N+1, n_x)`` state at every knot: each node state, then the
        RK4 steps from it up to the next node."""
        X, U, T = self.unpack(v)
        path = self._shoot(X[:-1], self._segment_inputs(U), T / self.N)
        states = np.empty((self.N + 1, self.n_x))
        states[1:] = path.reshape(-1, self.n_x)[: self.N]
        states[self.nodes] = X
        return states

    # -- objective and constraints -------------------------------------------

    def objective(self, v):
        _, U, T = self.unpack(v)
        return running_cost(T, U)

    def objective_grad(self, v):
        _, U, T = self.unpack(v)
        g = np.zeros(self.n_var)
        g[self.n_states : self.n_states + self.n_inputs] = (
            2.0 * T / self.N
        ) * U.ravel()
        g[-1] = float(np.sum(U**2)) / self.N
        return g

    def constraints(self, v):
        """The defects, ``n_defects`` of them, then the boundary rows."""
        X, U, T = self.unpack(v)
        path = self._shoot(X[:-1], self._segment_inputs(U), T / self.N)
        return np.concatenate([(X[1:] - path[:, -1]).ravel(),
                               self.mbc.residual(X[0], X[-1], T)])

    def constraint_jacobian(self, v):
        """Central-difference Jacobian of :meth:`constraints`; see
        :meth:`linearize`."""
        return self.linearize(v)[1]

    def linearize(self, v):
        """Constraints and their central-difference Jacobian, ``(c, J)``: the
        segment end states differenced over (node state, segment inputs, T)
        of every segment in one batch of RK4 steps, the boundary rows over
        (x0, xN, T) in one call of the constraint. ``c`` is bitwise
        :meth:`constraints`: RK4 and the constraint act on each batch entry
        alone."""
        X, U, T = self.unpack(v)
        N, S, n_x, n_u = self.N, self.n_segments, self.n_x, self.n_u
        J = np.zeros((self.n_con, self.n_var))

        def steps(n):  # n coordinates, then T
            return np.append(np.full(n, _FD_STEP), _FD_STEP * max(1.0, abs(T)))

        rows = np.arange(S * n_x)
        J[rows, rows + n_x] = 1.0

        def segment_ends(Y):
            inputs = Y[..., n_x:-1].reshape(Y.shape[:-1] + (self.segment, n_u))
            h = Y[..., :1, -1:] / N
            return self._shoot(Y[..., :n_x], inputs, h)[..., -1, :]

        # one row per segment: its node state, its inputs, T
        y = np.column_stack(
            [X[:S], self._segment_inputs(U).reshape(S, -1), np.full(S, T)])
        ends, dS = _central_difference(segment_ends, y, steps(y.shape[1] - 1))
        ix, iu, seg = np.arange(n_x), np.arange(self.segment * n_u), np.arange(S)
        cols = np.concatenate([
            seg * n_x + ix[:, None],
            self.n_states + seg * self.segment * n_u + iu[:, None],
            np.full((1, S), self.n_var - 1),
        ])
        # a short last segment's padded inputs have no column
        keep = cols < self.n_var - 1
        keep[-1] = True
        r, c = np.broadcast_arrays(rows.reshape(S, n_x), cols[:, :, None])
        J[r[keep], c[keep]] = -dS[keep]

        b, dB = _central_difference(
            lambda Y: self.mbc.residual(Y[..., :n_x], Y[..., n_x:-1], Y[..., -1]),
            np.concatenate([X[0], X[S], [T]]), steps(2 * n_x))
        J[self.n_defects :, np.r_[ix, S * n_x + ix, self.n_var - 1]] = dB.T
        return np.concatenate([(X[1:] - ends).ravel(), b]), J


def _central_difference(f, y, step):
    """``(f(y), D)`` with ``D[j] = (f(y + step_j e_j) - f(y - step_j e_j)) /
    (2 step_j)`` along each coordinate j of y's last axis, from one call of
    ``f`` on the batch ``[y, y + diag(step), y - diag(step)]`` stacked on a
    new first axis. Any leading axes of y are batch axes that ``f`` maps
    entry by entry: each of their entries is stepped at once."""
    m = len(step)
    j = np.arange(m)
    Y = np.repeat(y[None], 2 * m + 1, axis=0)
    s = step.reshape((m,) + (1,) * (y.ndim - 1))
    Y[1 + j, ..., j] += s
    Y[1 + m + j, ..., j] -= s
    F = f(Y)
    scale = 2.0 * step.reshape((m,) + (1,) * (F.ndim - 1))
    return F[0], (F[1 : m + 1] - F[m + 1 :]) / scale


def _unpack_trajectory(nlp, trajectory):
    """``(X, U, T)`` of a ``(times, states, inputs)`` trajectory, with T its
    last time, or a ``BuildError`` naming what does not fit ``nlp``. The
    times must be ``np.linspace(0, T, N + 1)`` bitwise, the grid that
    ``solve_nlp`` and ``LowerLevelSolution.trajectory`` write."""
    times, X, U = trajectory
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    T = float(times[-1])
    for name, A, shape in (("states", X, (nlp.N + 1, nlp.n_x)),
                           ("inputs", U, (nlp.N, nlp.n_u))):
        if A.shape != shape:
            raise BuildError(
                f"{name} have shape {A.shape}, expected {shape}; "
                f"use matching N"
            )
    if not (np.isfinite(T) and T > 0):
        raise BuildError(f"period must be finite and positive, got T={T}")
    if not np.array_equal(times, np.linspace(0.0, T, nlp.N + 1)):
        raise BuildError(f"times are not the {nlp.N + 1} evenly spaced knots "
                         f"of [0, T={T}]")
    return X, U, T


def check_trajectory(nlp, trajectory, success):
    """``{T, cost, max_defect, max_mbc_violation, kkt_residual, converged}``
    of a ``(times, states, inputs)`` trajectory on the knots of ``nlp``, from
    one :meth:`TranscribedNlp.linearize` and the least-squares multipliers
    lam (Nocedal & Wright, *Numerical Optimization*, ch. 12): the largest
    defect, boundary row and entry of ``grad f + J^T lam``. ``converged`` is
    ``success``, the solver's verdict, and each of the three at most
    ``_TOL_FEAS`` (a NaN is not). States not ``(N+1, n_x)``, inputs not
    ``(N, n_u)``, a last time T not finite and positive and times other
    than the N+1 evenly spaced knots of [0, T] are a :class:`BuildError`."""
    X, U, T = _unpack_trajectory(nlp, trajectory)
    v = nlp.pack(X, U, T)
    c, J = nlp.linearize(v)
    g = nlp.objective_grad(v)
    lam, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
    residuals = {
        "max_defect": float(np.max(np.abs(c[: nlp.n_defects]))),
        "max_mbc_violation": float(np.max(np.abs(c[nlp.n_defects :]))),
        "kkt_residual": float(np.max(np.abs(g + J.T @ lam))),
    }
    converged = bool(success) and all(r <= _TOL_FEAS for r in residuals.values())
    return dict(residuals, T=T, cost=nlp.objective(v), converged=converged)


def solve_nlp(nlp, warm_start):
    """SQP solve of the transcribed problem, one SLSQP run on its
    multiple-shooting form, checked on every knot of ``nlp``.

    ``warm_start`` is a ``(times, states, inputs)`` triple on the knots of
    ``nlp``, the form of ``LowerLevelSolution.trajectory`` and of
    :class:`NlpSolution`'s fields, checked as :func:`check_trajectory`
    checks its trajectory. SLSQP solves the same problem with a node every
    ``_SEGMENT`` knots and gets ``_MAXITER`` major iterations. Its
    constraints, their Jacobian and the history entry at a point all come
    from one :meth:`TranscribedNlp.linearize` of that point. The returned
    solution is SLSQP's last iterate, with its state at every knot rebuilt by
    stepping forward from each node, whether or not it converged. Its ``T``,
    ``cost``, ``max_defect``, ``max_mbc_violation``, ``kkt_residual`` and
    ``converged`` are :func:`check_trajectory` of that trajectory on
    ``nlp``, with SLSQP's success. ``history`` holds one ``{iteration,
    feas, cost}`` entry per major iteration, with ``feas`` the shooting
    problem's largest constraint residual.

    The period is kept in the box ``(0.2 T0, 5 T0)`` around the warm start's
    T0. The stationarity test leaves out that box, which is a safeguard
    rather than part of the problem, so a point held on the box is not
    reported converged. ``outer_iterations`` counts SLSQP's major
    iterations, ``inner_iterations`` its objective evaluations.
    """
    X, U, T0 = _unpack_trajectory(nlp, warm_start)
    shoot = TranscribedNlp(nlp.system, nlp.mbc, nlp.N, segment=_SEGMENT)
    bounds = [(None, None)] * (shoot.n_var - 1) + [(0.2 * T0, 5.0 * T0)]
    history = []
    # SLSQP asks for the constraints, then their Jacobian, then records the
    # same point: one linearization serves all three
    memo = {}

    def linearized(x):
        key = x.tobytes()
        if key not in memo:
            memo.clear()
            memo[key] = shoot.linearize(x)
        return memo[key]

    def record(x):
        history.append({"iteration": len(history) + 1,
                        "feas": float(np.max(np.abs(linearized(x)[0]))),
                        "cost": shoot.objective(x)})

    res = minimize(
        shoot.objective,
        shoot.pack(X[shoot.nodes], U, T0),
        jac=shoot.objective_grad,
        method="SLSQP",
        bounds=bounds,
        constraints={"type": "eq", "fun": lambda x: linearized(x)[0],
                     "jac": lambda x: linearized(x)[1]},
        callback=record,
        # SLSQP stops once the change in f (or the step) and the summed
        # constraint violation are below ftol, so ftol sits far below _TOL_FEAS
        options={"maxiter": _MAXITER, "ftol": 1e-14},
    )
    _, U, T = shoot.unpack(res.x)
    # linspace stores the endpoint T exactly
    times = np.linspace(0.0, T, nlp.N + 1)
    X = shoot.knot_states(res.x)
    return NlpSolution(
        times=times, states=X, inputs=U,
        **check_trajectory(nlp, (times, X, U), res.success),
        outer_iterations=int(res.nit), inner_iterations=int(res.nfev),
        history=tuple(history),
    )
