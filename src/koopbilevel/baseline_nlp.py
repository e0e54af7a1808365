"""Direct-transcription baseline for the original nonlinear problem.

The continuous problem is transcribed with one RK4 step per knot interval
(piecewise-constant inputs, free period entering through the step size) into
an all-equality NLP:

    min (T/N) sum ||u_k||^2
    s.t. x_{k+1} - RK4(x_k, u_k, T/N) = 0   (defects)
         b(x_0, x_N, T) = 0                 (mixed boundary rows)

solved by sequential quadratic programming (Nocedal & Wright, *Numerical
Optimization*, ch. 18) in Kraft's SLSQP form, with the period kept in a box.
Constraint Jacobians come from central finite differences, exploiting the
per-interval structure: each defect touches only its own knot variables and
T, so all defect rows cost two batched RK4 sweeps, one over every knot and
every perturbed direction (each state, each input, and T) stepped forward and
one stepped back, rather than one trajectory integration per variable.

This module is the comparison oracle: it is deliberately plain, with no
sparsity or second-order machinery beyond what the problem sizes need.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BuildError
from .systems import rk4_step

__all__ = [
    "TranscribedNlp",
    "NlpSolution",
    "transcribe",
    "solve_nlp",
    "evaluate_solution",
]


# SLSQP's major-iteration budget: no bundle run comes near it (walker stops
# after 48, pendulum after 23-38, fig1 after 2)
_MAXITER = 6000
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
    """Decision vector (x_0..x_N, u_0..u_{N-1}, T) with defect constraints."""

    def __init__(self, system, mbc, N):
        if N < 2:
            raise BuildError(f"need at least 2 intervals, got N={N}")
        if mbc.n_x != system.n_x:
            raise BuildError(
                f"constraint is for n_x={mbc.n_x}, system has n_x={system.n_x}"
            )
        self.system = system
        self.mbc = mbc
        self.N = int(N)
        self.n_x = system.n_x
        self.n_u = system.n_u
        self.n_states = (N + 1) * self.n_x
        self.n_inputs = N * self.n_u
        self.n_var = self.n_states + self.n_inputs + 1
        self.n_defects = N * self.n_x
        self.n_con = self.n_defects + mbc.n_g

    # -- packing ------------------------------------------------------------

    def pack(self, X, U, T):
        return np.concatenate(
            [np.asarray(X, float).ravel(), np.asarray(U, float).ravel(), [float(T)]]
        )

    def unpack(self, v):
        X = v[: self.n_states].reshape(self.N + 1, self.n_x)
        U = v[self.n_states : self.n_states + self.n_inputs].reshape(
            self.N, self.n_u
        )
        return X, U, float(v[-1])

    # -- objective and constraints -------------------------------------------

    def objective(self, v):
        _, U, T = self.unpack(v)
        return (T / self.N) * float(np.sum(U**2))

    def objective_grad(self, v):
        _, U, T = self.unpack(v)
        g = np.zeros(self.n_var)
        g[self.n_states : self.n_states + self.n_inputs] = (
            2.0 * T / self.N
        ) * U.ravel()
        g[-1] = float(np.sum(U**2)) / self.N
        return g

    def defects(self, v):
        X, U, T = self.unpack(v)
        return (X[1:] - rk4_step(self.system, X[: self.N], U, T / self.N)).ravel()

    def mbc_residual(self, v):
        X, _, T = self.unpack(v)
        return self.mbc.residual(X[0], X[self.N], T)

    def constraints(self, v):
        return np.concatenate([self.defects(v), self.mbc_residual(v)])

    def constraint_jacobian(self, v):
        """Central-difference Jacobian using the per-interval structure: one
        forward and one backward RK4 sweep, batched over every knot and every
        direction, give all defect columns."""
        X, U, T = self.unpack(v)
        N, n_x, n_u = self.N, self.n_x, self.n_u
        eps = _FD_STEP
        epsT = eps * max(1.0, abs(T))
        J = np.zeros((self.n_con, self.n_var))

        rows = np.arange(N * n_x)
        J[rows, rows + n_x] = 1.0

        # batch entry j perturbs state j (j < n_x), input j - n_x, or T (last)
        m = n_x + n_u + 1
        ix, iu, k = np.arange(n_x), np.arange(n_u), np.arange(N)

        def sweep(sign):
            Xs = np.repeat(X[None, :N], m, axis=0)
            Us = np.repeat(U[None], m, axis=0)
            Xs[ix, :, ix] += sign * eps
            Us[n_x + iu, :, iu] += sign * eps
            h = np.full((m, 1, 1), T / N)
            h[-1] = (T + sign * epsT) / N
            return rk4_step(self.system, Xs, Us, h)

        step = 2.0 * np.append(np.full(m - 1, eps), epsT)
        dS = (sweep(1.0) - sweep(-1.0)) / step[:, None, None]
        cols = np.concatenate([
            k * n_x + ix[:, None],
            self.n_states + k * n_u + iu[:, None],
            np.full((1, N), self.n_var - 1),
        ])
        J[rows.reshape(N, n_x), cols[:, :, None]] = -dS

        # boundary rows depend on x_0, x_N, T only
        mbc_of = self.mbc.residual
        x0, xN = X[0], X[N]
        base = self.n_defects
        for d in range(n_x):
            e = np.zeros(n_x)
            e[d] = eps
            J[base:, d] = (mbc_of(x0 + e, xN, T) - mbc_of(x0 - e, xN, T)) / (2 * eps)
            J[base:, N * n_x + d] = (
                mbc_of(x0, xN + e, T) - mbc_of(x0, xN - e, T)
            ) / (2 * eps)
        J[base:, -1] = (mbc_of(x0, xN, T + epsT) - mbc_of(x0, xN, T - epsT)) / (
            2 * epsT
        )
        return J


def transcribe(system, mbc, N):
    """Build the direct-transcription NLP for one system/constraint pair."""
    return TranscribedNlp(system, mbc, N)


def _warm_start_vector(nlp, warm_start):
    if hasattr(warm_start, "states"):
        warm_start = (warm_start.states, warm_start.inputs, warm_start.T)
    X, U, T = warm_start
    X = np.asarray(X, dtype=float)
    if X.shape != (nlp.N + 1, nlp.n_x):
        raise BuildError(
            f"warm-start states have shape {X.shape}, expected "
            f"({nlp.N + 1}, {nlp.n_x}); use matching N"
        )
    return nlp.pack(X, U, T)


def solve_nlp(nlp, warm_start):
    """SQP solve of the transcribed problem, one SLSQP run.

    ``warm_start`` is a bilevel solution (states/inputs/T attributes) or an
    explicit (X, U, T) triple. SLSQP gets ``_MAXITER`` major iterations.
    The returned solution is SLSQP's last iterate, whether or not it
    converged: ``converged`` is True only when SLSQP reports success and, at
    that point, both the largest constraint residual and the KKT
    stationarity residual are at most ``_TOL_FEAS``. ``history`` holds one
    ``{iteration, feas, cost}`` entry per major iteration.

    The period is kept in the box ``(0.2 T0, 5 T0)`` around the warm start's
    T0. The stationarity test leaves out that box, which is a safeguard
    rather than part of the problem, so a point held on the box is not
    reported converged. ``outer_iterations`` counts major iterations,
    ``inner_iterations`` objective evaluations.
    """
    v = _warm_start_vector(nlp, warm_start)
    T0 = float(v[-1])
    bounds = [(None, None)] * (nlp.n_var - 1) + [(0.2 * T0, 5.0 * T0)]
    history = []

    def record(x):
        history.append({"iteration": len(history) + 1,
                        "feas": float(np.max(np.abs(nlp.constraints(x)))),
                        "cost": nlp.objective(x)})

    res = minimize(
        nlp.objective,
        v,
        jac=nlp.objective_grad,
        method="SLSQP",
        bounds=bounds,
        constraints={"type": "eq", "fun": nlp.constraints,
                     "jac": nlp.constraint_jacobian},
        callback=record,
        # SLSQP stops once the change in f (or the step) and the summed
        # constraint violation are below ftol, so ftol sits far below _TOL_FEAS
        options={"maxiter": _MAXITER, "ftol": 1e-14},
    )
    v = res.x
    c = nlp.constraints(v)
    feas = float(np.max(np.abs(c)))
    # stationarity: largest entry of grad f + J^T lam, lam the least-squares
    # multipliers at the returned point
    J = nlp.constraint_jacobian(v)
    g = nlp.objective_grad(v)
    lam, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
    kkt = float(np.max(np.abs(g + J.T @ lam)))
    X, U, T = nlp.unpack(v)
    return NlpSolution(
        times=np.linspace(0.0, T, nlp.N + 1), states=X, inputs=U, T=T,
        cost=nlp.objective(v),
        max_defect=float(np.max(np.abs(c[: nlp.n_defects]))),
        max_mbc_violation=float(np.max(np.abs(c[nlp.n_defects :]))),
        kkt_residual=kkt,
        converged=bool(res.success) and max(feas, kkt) <= _TOL_FEAS,
        outer_iterations=int(res.nit), inner_iterations=int(res.nfev),
        history=tuple(history),
    )


def evaluate_solution(nlp, sol):
    """Recompute cost and residuals from scratch, independent of the solver."""
    v = nlp.pack(sol.states, sol.inputs, sol.T)
    defects = nlp.defects(v)
    mbc = nlp.mbc_residual(v)
    U = np.asarray(sol.inputs, dtype=float)
    return {
        "cost": nlp.objective(v),
        "max_defect": float(np.max(np.abs(defects))),
        "defect_rms": float(np.sqrt(np.mean(defects**2))),
        "max_mbc_violation": float(np.max(np.abs(mbc))),
        "input_energy": (sol.T / nlp.N) * float(np.sum(U**2)),
        "max_input": float(np.max(np.abs(U))),
    }
