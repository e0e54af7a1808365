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
per-interval structure (each defect touches only its own knot variables and
T), so a full Jacobian costs a handful of batched RK4 sweeps rather than one
trajectory integration per variable.

This module is the comparison oracle: it is deliberately plain, with no
sparsity or second-order machinery beyond what the problem sizes need.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BuildError, NonConvergenceError
from .systems import rk4_step

__all__ = [
    "TranscribedNlp",
    "NlpConfig",
    "NlpSolution",
    "transcribe",
    "solve_nlp",
    "evaluate_solution",
]


@dataclass(frozen=True)
class NlpConfig:
    """Budget and tolerances of the SQP solve.

    The solve may take ``maxiter`` major iterations. ``tol_feas`` bounds both
    the largest constraint residual and the largest KKT stationarity residual
    of a converged solution. ``fd_step`` is the central-difference step of the
    constraint Jacobian. The period box is fixed at ``(0.2 T0, 5 T0)`` around
    the warm start's T0.
    """

    maxiter: int = 6000
    tol_feas: float = 1e-6
    fd_step: float = 1e-6


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

    def _steps(self, X, U, h):
        return rk4_step(self.system, X[: self.N], U, h)

    def defects(self, v):
        X, U, T = self.unpack(v)
        return (X[1:] - self._steps(X, U, T / self.N)).ravel()

    def mbc_residual(self, v):
        X, _, T = self.unpack(v)
        return np.atleast_1d(
            np.asarray(self.mbc.eval(X[0], X[self.N], T), dtype=float)
        )

    def constraints(self, v):
        return np.concatenate([self.defects(v), self.mbc_residual(v)])

    def constraint_jacobian(self, v, fd_step=NlpConfig.fd_step):
        """Central-difference Jacobian using the per-interval structure."""
        X, U, T = self.unpack(v)
        N, n_x, n_u = self.N, self.n_x, self.n_u
        h = T / N
        eps = fd_step
        J = np.zeros((self.n_con, self.n_var))

        rows = np.arange(N * n_x).reshape(N, n_x)
        for k in range(N):
            J[rows[k][:, None], (k + 1) * n_x + np.arange(n_x)] = np.eye(n_x)

        # d defect_k / d x_k, batched over k, one state dimension at a time
        for d in range(n_x):
            Xp = X[:N].copy()
            Xp[:, d] += eps
            Xm = X[:N].copy()
            Xm[:, d] -= eps
            dS = (rk4_step(self.system, Xp, U, h)
                  - rk4_step(self.system, Xm, U, h)) / (2.0 * eps)
            for k in range(N):
                J[rows[k], k * n_x + d] = -dS[k]

        for d in range(n_u):
            Up = U.copy()
            Up[:, d] += eps
            Um = U.copy()
            Um[:, d] -= eps
            dS = (rk4_step(self.system, X[:N], Up, h)
                  - rk4_step(self.system, X[:N], Um, h)) / (2.0 * eps)
            col = self.n_states + np.arange(N) * n_u + d
            for k in range(N):
                J[rows[k], col[k]] = -dS[k]

        epsT = eps * max(1.0, abs(T))
        dS = (rk4_step(self.system, X[:N], U, (T + epsT) / N)
              - rk4_step(self.system, X[:N], U, (T - epsT) / N)) / (2.0 * epsT)
        J[: self.n_defects, -1] = -dS.ravel()

        # boundary rows depend on x_0, x_N, T only
        def mbc_of(x0, xN, TT):
            return np.atleast_1d(
                np.asarray(self.mbc.eval(x0, xN, TT), dtype=float)
            )

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
    if hasattr(warm_start, "states") and hasattr(warm_start, "inputs"):
        X = np.asarray(warm_start.states, dtype=float)
        U = np.asarray(warm_start.inputs, dtype=float)
        T = float(warm_start.T)
    elif isinstance(warm_start, tuple) and len(warm_start) == 3:
        X, U, T = warm_start
        X = np.asarray(X, dtype=float)
        U = np.asarray(U, dtype=float)
        T = float(T)
    else:
        v = np.asarray(warm_start, dtype=float)
        if v.shape != (nlp.n_var,):
            raise BuildError(
                f"warm start vector has dim {v.shape}, expected ({nlp.n_var},)"
            )
        return v.copy()
    if X.shape != (nlp.N + 1, nlp.n_x):
        raise BuildError(
            f"warm-start states have shape {X.shape}, expected "
            f"({nlp.N + 1}, {nlp.n_x}); use matching N"
        )
    if U.ndim == 1:
        U = U[:, None]
    return nlp.pack(X, U, T)


def _solution_from_vector(nlp, v, kkt, converged, outer, inner, history):
    X, U, T = nlp.unpack(v)
    defect = float(np.max(np.abs(nlp.defects(v)))) if nlp.N else 0.0
    mbc_viol = float(np.max(np.abs(nlp.mbc_residual(v))))
    return NlpSolution(
        times=np.linspace(0.0, T, nlp.N + 1),
        states=X,
        inputs=U,
        T=T,
        cost=nlp.objective(v),
        max_defect=defect,
        max_mbc_violation=mbc_viol,
        kkt_residual=kkt,
        converged=converged,
        outer_iterations=outer,
        inner_iterations=inner,
        history=tuple(history),
    )


def solve_nlp(nlp, warm_start, config=None):
    """SQP solve of the transcribed problem, one SLSQP run.

    ``warm_start`` may be a bilevel solution (states/inputs/T attributes), an
    explicit (X, U, T) triple, or a raw decision vector. The solution is
    converged when SLSQP reports success and, at the returned point, both the
    largest constraint residual and the KKT stationarity residual are at most
    ``tol_feas``. Otherwise a :class:`NonConvergenceError` carries the last
    iterate (with ``converged=False``) and the history, one
    ``{iteration, feas, cost}`` entry per major iteration.

    The period is kept in the box ``(0.2 T0, 5 T0)`` around the warm start's
    T0. The stationarity test leaves out that box, which is a safeguard
    rather than part of the problem, so a point held on the box is not
    reported converged. ``outer_iterations`` counts major iterations,
    ``inner_iterations`` objective evaluations.
    """
    cfg = config or NlpConfig()
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
                     "jac": lambda x: nlp.constraint_jacobian(x, cfg.fd_step)},
        callback=record,
        # SLSQP stops once the change in f (or the step) and the summed
        # constraint violation are below ftol, so ftol sits far below tol_feas
        options={"maxiter": cfg.maxiter, "ftol": 1e-14},
    )
    v = res.x
    feas = float(np.max(np.abs(nlp.constraints(v))))
    # stationarity: largest entry of grad f + J^T lam, lam the least-squares
    # multipliers at the returned point
    J = nlp.constraint_jacobian(v, cfg.fd_step)
    g = nlp.objective_grad(v)
    lam, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
    kkt = float(np.max(np.abs(g + J.T @ lam)))
    converged = bool(res.success) and max(feas, kkt) <= cfg.tol_feas
    sol = _solution_from_vector(nlp, v, kkt, converged, int(res.nit),
                                int(res.nfev), history)
    if not converged:
        raise NonConvergenceError(
            f"baseline NLP not converged: {res.message}; max residual "
            f"{feas:.3e}, KKT stationarity {kkt:.3e} (tol {cfg.tol_feas:g})",
            best=sol,
            history=history,
        )
    return sol


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
