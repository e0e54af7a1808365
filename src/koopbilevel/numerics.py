"""Dense numerical kernels.

Complex-step directional derivatives, eigendecomposition with the exact
zero-order hold of each mode, truncated-SVD pseudo-inverse, and
equality-constrained QP solves via the KKT saddle system with their
sensitivities to the QP data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateQpError, NumericError

__all__ = [
    "KktResult",
    "complex_step",
    "eigenmodes",
    "zoh_discretize",
    "pinv_svd",
    "solve_kkt",
    "qp_sensitivity",
]

# step of complex_step: its square is far below any rounding of f, so the
# step adds no truncation error, and as a power of two it scales exactly
_CS_STEP = 2.0**-100


def complex_step(f, x, v):
    """Derivative of f at the real point x along v: Im f(x + ihv) / h.

    Exact up to f's own rounding for any f that is a composition of real
    analytic operations carried out in complex arithmetic (Squire & Trapp,
    *Using complex variables to estimate derivatives of real functions*, SIAM
    Review 1998): there is no difference to cancel, so the step ``h`` can be
    2^-100. ``v`` may carry leading axes of directions, one derivative per
    direction, as far as f broadcasts over them.
    """
    x = np.asarray(x, dtype=float)
    return np.imag(f(x + 1j * (_CS_STEP * np.asarray(v, dtype=float)))) / _CS_STEP


# largest accepted cond(V): a modal result carries about cond(V) times the
# rounding error. Each bundle's model, at seeds 20240, 20241, 301 and 1-5,
# stays below 300.
_COND_MAX = 1e6


def eigenmodes(A):
    """``(lam, V, Vinv)`` with A = V diag(lam) Vinv, so that f(A) = V
    diag(f(lam)) Vinv.

    This is the eigenvector method of Moler & Van Loan (*Nineteen dubious
    ways to compute the exponential of a matrix, twenty-five years later*,
    SIAM Review 2003). Its error grows with cond(V), so a defective or nearly
    defective A, with cond(V) above ``_COND_MAX``, raises ``NumericError``,
    as does a non-finite or non-square one.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NumericError(f"eigenmodes expects a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericError("eigenmodes received non-finite entries")
    lam, V = np.linalg.eig(A)
    cond = float(np.linalg.cond(V))
    if not cond <= _COND_MAX:
        raise NumericError(f"matrix is defective or nearly so: its "
                           f"eigenvectors have condition number {cond:.3e}")
    return lam, V, np.linalg.inv(V)


def zoh_discretize(lam, h):
    """Exact zero-order hold of the modes ``lam`` over a step ``h``.

    Returns ``(e^(lam h), h phi1(lam h))`` elementwise, with phi1(z) =
    expm1(z)/z and phi1(0) = 1 (Higham, *Functions of Matrices*, SIAM 2008).
    For A = V diag(lam) V^-1, ``dz/dt = A z + B u`` under piecewise-constant
    u then steps with Ad = V diag(e^(lam h)) V^-1 and Bd = V diag(h phi1(lam
    h)) V^-1 B.
    """
    if not h > 0:
        raise NumericError(f"ZOH step must be positive, got h={h}")
    z = np.asarray(lam) * h
    zero = z == 0
    return np.exp(z), h * np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))


@dataclass(frozen=True)
class KktResult:
    """Solution of an equality-constrained QP with post-hoc residuals.

    ``min_pivot`` is the smallest ``|diag(U)|`` of the LU factorization of
    the saddle matrix, and ``factors`` the ``(lu, piv)`` pair of that
    factorization, which :func:`qp_sensitivity` solves with again.
    """

    primal: np.ndarray
    dual: np.ndarray
    stationarity_residual: float
    feasibility_residual: float
    min_pivot: float
    factors: tuple


def pinv_svd(M, rel_tol=1e-12):
    """Moore-Penrose pseudo-inverse with relative singular-value truncation.

    Singular values below ``rel_tol * sigma_max`` are dropped.

    Returns
    -------
    pinv : ndarray
        Pseudo-inverse of ``M`` on the retained subspace.
    rank : int
        Number of retained singular values.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericError("pinv_svd received non-finite entries")
    if M.size == 0:
        return M.T.copy(), 0
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = rel_tol * (s[0] if s.size else 0.0)
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (Vt.T * inv_s) @ U.T, rank


_GETRF = scipy.linalg.get_lapack_funcs("getrf", dtype=np.float64)
_TIKHONOV = 1e-9  # solve_kkt adds _TIKHONOV * trace(H)/n to the diagonal of H


def solve_kkt(H, g, Aeq, beq):
    """Solve ``min 1/2 v'Hv + g'v  s.t.  Aeq v = beq`` by direct factorization.

    The saddle system ``[[H + reg*I, Aeq'], [Aeq, 0]]`` is factorized with
    pivoted LU (LAPACK ``getrf``). The Tikhonov term ``reg = 1e-9 *
    trace(H)/n`` keeps PSD-singular Hessians factorable; the result records
    the LU factors and their smallest pivot. Stationarity and feasibility
    residuals are recomputed from the returned primal/dual pair and must fall
    below ``1e-9 * scale``; otherwise the system is reported as degenerate.

    Parameters
    ----------
    H : (n, n) ndarray
        Symmetric positive semidefinite Hessian.
    g : (n,) ndarray
        Linear cost term.
    Aeq : (m, n) ndarray
        Equality constraint matrix; m = 0 for an unconstrained quadratic.
    beq : (m,) ndarray
        Equality right-hand side.

    Raises
    ------
    DegenerateQpError
        If the LU factorization has an exactly zero pivot (raised before any
        solve, with ``min_pivot`` 0) or the residuals stay above tolerance.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = H.shape[0]
    if n == 0 or H.shape != (n, n) or g.shape != (n,):
        raise NumericError(f"inconsistent QP dimensions: H {H.shape}, g {g.shape}")
    sym_err = float(np.max(np.abs(H - H.T)))
    if sym_err > 1e-12 * max(1.0, float(np.max(np.abs(H)))):
        raise NumericError(f"H is not symmetric (max asymmetry {sym_err:.3e})")
    Aeq = np.asarray(Aeq, dtype=float)
    beq = np.asarray(beq, dtype=float)
    m = Aeq.shape[0]
    if Aeq.shape != (m, n) or beq.shape != (m,):
        raise NumericError(
            f"inconsistent constraint dimensions: Aeq {Aeq.shape}, beq {beq.shape}"
        )
    reg = _TIKHONOV * float(np.trace(H)) / n

    Hr = H + reg * np.eye(n)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = Hr
    kkt[:n, n:] = Aeq.T
    kkt[n:, :n] = Aeq
    rhs = np.concatenate([-g, beq])

    # getrf itself, not lu_factor: a zero pivot is reported through info
    # instead of a LinAlgWarning in the caller's warning stream
    lu, piv, info = _GETRF(kkt)
    min_pivot = float(np.abs(np.diag(lu)).min())
    if info > 0:
        raise DegenerateQpError(
            f"KKT matrix is singular: pivot {info} of its LU is exactly zero",
            min_pivot=min_pivot,
        )
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    v, lam = sol[:n], sol[n:]

    stat = Hr @ v + g + Aeq.T @ lam
    feas = Aeq @ v - beq
    scale_stat = 1.0 + float(np.linalg.norm(g)) + float(np.linalg.norm(Hr @ v))
    scale_feas = 1.0 + float(np.linalg.norm(beq))
    stat_res = float(np.linalg.norm(stat))
    feas_res = float(np.linalg.norm(feas))
    if (
        not np.all(np.isfinite(sol))
        or stat_res > 1e-9 * scale_stat
        or feas_res > 1e-9 * scale_feas
    ):
        raise DegenerateQpError(
            "KKT system is singular or inconsistent after regularization "
            f"(stationarity {stat_res:.3e}, feasibility {feas_res:.3e}, "
            f"smallest pivot {min_pivot:.3e})",
            min_pivot=min_pivot,
        )
    return KktResult(
        primal=v,
        dual=lam,
        stationarity_residual=stat_res,
        feasibility_residual=feas_res,
        min_pivot=min_pivot,
        factors=(lu, piv),
    )


def qp_sensitivity(kkt, grad, dH, dg, dAeq, dbeq):
    """Derivatives of a smooth phi(v) at the solution of :func:`solve_kkt`
    along k perturbations of the QP data.

    ``grad`` is the gradient of phi at ``kkt.primal``; ``dH`` (k, n, n),
    ``dg`` (k, n), ``dAeq`` (k, m, n) and ``dbeq`` (k, m) are the tangents of
    ``(H, g, Aeq, beq)`` along each direction. One adjoint solve with the LU
    factors of the saddle matrix ``K`` (symmetric, so ``K' y = K y``) gives
    ``y``, and each derivative is ``y' (dr - dK s)`` for the solution ``s =
    (v, lam)`` of ``K s = r``, the Tikhonov term's own tangent included.
    Returns the k derivatives; phi's explicit dependence on the data is the
    caller's.
    """
    v, lam = kkt.primal, kkt.dual
    rhs = np.concatenate([grad, np.zeros(lam.size)])
    y = scipy.linalg.lu_solve(kkt.factors, rhs, check_finite=False)
    dreg = _TIKHONOV * np.trace(dH, axis1=1, axis2=2) / v.size
    dstat = dH @ v + dreg[:, None] * v + dg + lam @ dAeq
    dfeas = dAeq @ v - dbeq
    return -(dstat @ y[: v.size]) - dfeas @ y[v.size :]
