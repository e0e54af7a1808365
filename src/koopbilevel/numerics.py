"""Dense numerical kernels.

Complex-step directional derivatives, eigendecomposition with the exact
zero-order hold of each mode, and equality-constrained QP solves through the
reduced KKT system of a diagonal-plus-low-rank Hessian, with their
sensitivities to the QP data.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.exceptions import ComplexWarning

from .errors import DegenerateQpError, NumericError

__all__ = [
    "KktResult",
    "complex_step",
    "eigenmodes",
    "zoh_discretize",
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
    direction, as far as f broadcasts over them. A ``ComplexWarning`` inside
    f or a real result, either of which would read as a zero derivative,
    raises ``NumericError``.
    """
    x = np.asarray(x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        try:
            fz = f(x + 1j * (_CS_STEP * np.asarray(v, dtype=float)))
        except ComplexWarning as exc:
            raise NumericError(f"f dropped the imaginary part of its input: {exc}") from exc
    if not np.iscomplexobj(fz):
        raise NumericError(f"complex step needs complex f, got {np.asarray(fz).dtype}")
    return np.imag(fz) / _CS_STEP


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
    h)) V^-1 B. ``h`` may be an array of steps; the results then have its
    shape followed by that of ``lam``.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise NumericError(f"ZOH step must be positive, got h={h}")
    z = np.multiply.outer(h, lam)
    zero = z == 0
    return np.exp(z), h[..., None] * np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))


@dataclass(frozen=True)
class KktResult:
    """Solution of an equality-constrained QP with post-hoc residuals.

    ``dual`` holds the multipliers of ``Aeq``. ``min_pivot`` is the smallest
    ``|diag(U)|`` of the LU factorization of the reduced matrix of
    :func:`solve_kkt`, and ``factors`` is ``(dinv, C, lu, piv)``: 1/d on the
    positive entries of the Hessian's diagonal d and 0 on the others, C =
    [G; Aeq] and that factorization, which :func:`qp_sensitivity` solves
    with again.
    """

    primal: np.ndarray
    dual: np.ndarray
    stationarity_residual: float
    feasibility_residual: float
    min_pivot: float
    factors: tuple


# getrf and getrs themselves, not lu_factor: a zero pivot shows in U's
# diagonal instead of as a LinAlgWarning in the caller's warning stream
_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


def _factor(dinv, C, r):
    """Pivoted LU (``getrf``) of each reduced matrix [[0, C0'], [C0, -(E +
    C D^+ C')]] of :func:`solve_kkt`, E = blockdiag(I_r, 0). D^+ = diag(dinv)
    is 1/d on d's positive entries and 0 on the others, so C D^+ C' = C+
    D+^-1 C+', and C0 holds C's columns at the others. Returns ``(lu, piv)``
    stacked over the batch, and each QP's smallest ``|diag(U)|``.

    ``compress`` lays each QP's C0 out C-contiguous, as the QP alone has it:
    a boolean index would lay it out by the batch size, and BLAS rounds by
    layout."""
    C0 = np.compress(dinv[0] == 0, C, axis=-1)
    n0, k = C0.shape[-1], C.shape[-2]
    R = np.zeros((len(C), n0 + k, n0 + k))
    R[:, :n0, n0:] = C0.transpose(0, 2, 1)
    R[:, n0:, :n0] = C0
    R[:, n0:, n0:] = (C * -dinv[:, None]) @ C.transpose(0, 2, 1)
    R[:, n0 : n0 + r, n0 : n0 + r] -= np.eye(r)
    lu, piv = np.empty_like(R), np.empty(R.shape[:2], dtype=np.int32)
    for i in range(len(R) if R.size else 0):
        lu[i], piv[i], _ = _GETRF(R[i])
    return lu, piv, np.abs(np.diagonal(lu, axis1=1, axis2=2)).min(axis=1, initial=np.inf)


def _reduced_solve(factors, a, c, rows):
    """``(x, nu)`` solving ``[[D, C'], [C, -E]] (x, nu) = (a, c)`` for the
    QPs ``rows`` of a batch, through the reduced LU of :func:`_factor`: the
    entries with d > 0 are D^+ (a - C' nu). The other QPs get NaN."""
    dinv, C, lu, piv = factors
    zero = dinv[0] == 0
    rhs = np.concatenate([np.compress(zero, a, axis=1),
                          c - (C @ (dinv * a)[..., None])[..., 0]], axis=1)
    sol = np.full(rhs.shape, np.nan)
    for i in rows if rhs.shape[1] else ():  # an empty system has no unknowns
        sol[i] = _GETRS(lu[i], piv[i], rhs[i])[0]
    n0 = rhs.shape[1] - C.shape[1]
    x = dinv * (a - (C.transpose(0, 2, 1) @ sol[:, n0:, None])[..., 0])
    x[:, zero] = sol[:, :n0]
    return x, sol[:, n0:]


def solve_kkt(d, G, g, Aeq, beq):
    """Solve ``min 1/2 v'Hv + g'v  s.t.  Aeq v = beq`` with H = diag(d) + G'G.

    With C = [G; Aeq] and mu = G v, the KKT conditions are the symmetric
    system ``[[D, C'], [C, -E]] (v, nu) = (-g, (0, beq))``, where nu = (mu,
    lam) and E = blockdiag(I_r, 0) for G's r rows. Every entry of v with d >
    0 is eliminated through D's inverse (the range-space method, Nocedal &
    Wright, *Numerical Optimization*, sec. 16.2). What is left is the
    bordered matrix ``[[0, C0'], [C0, -(E + C+ D+^-1 C+')]]`` over the
    entries with d = 0 and the rows of C, which is factorized with pivoted
    LU (LAPACK ``getrf``); the result records the factors and their smallest
    pivot. The saddle matrix ``[[H, Aeq'], [Aeq, 0]]`` has determinant
    +-det(D+) times the reduced one's, so the reduced matrix is singular
    exactly when it is. The QP is solved as posed: H positive definite on
    the null space of ``Aeq``, with ``Aeq`` of full row rank, makes it
    nonsingular (ibid., sec. 16.1). Stationarity and feasibility residuals
    are recomputed from the returned primal/dual pair, through d and G, and
    must fall below ``1e-9 * scale``; otherwise the system is reported as
    degenerate. Any symmetric positive semidefinite H is d = 0 with G a
    factor of H = G'G.

    Every argument may carry one leading batch axis, over QPs that share
    n, r and m and the pattern of positive entries of d; each QP of a batch
    is solved as it would be alone.

    Parameters
    ----------
    d : (n,) ndarray
        Nonnegative diagonal of H.
    G : (r, n) ndarray
        Low-rank part of H; r = 0 for a diagonal H.
    g : (n,) ndarray
        Linear cost term.
    Aeq : (m, n) ndarray
        Equality constraint matrix; m = 0 for an unconstrained quadratic.
    beq : (m,) ndarray
        Equality right-hand side.

    Returns
    -------
    A :class:`KktResult`; for a batch, a list holding for each QP its
    ``KktResult`` or the ``DegenerateQpError`` that it would raise alone.

    Raises
    ------
    DegenerateQpError
        If the reduced LU has an exactly zero pivot (raised before any
        solve, with ``min_pivot`` 0) or the residuals stay above tolerance.
    """
    single = np.ndim(g) == 1
    d, G, g, Aeq, beq = (np.asarray(a, dtype=float)[None] if single
                         else np.asarray(a, dtype=float) for a in (d, G, g, Aeq, beq))
    if g.ndim != 2 or g.shape[1] == 0 or d.shape != g.shape:
        raise NumericError(f"inconsistent QP dimensions: d {d.shape}, g {g.shape}")
    (P, n), r, m = g.shape, G.shape[-2], Aeq.shape[-2]
    if G.shape != (P, r, n) or Aeq.shape != (P, m, n) or beq.shape != (P, m):
        raise NumericError(f"inconsistent QP dimensions: G {G.shape}, "
                           f"Aeq {Aeq.shape}, beq {beq.shape} for n = {n}")
    positive = d > 0
    if (d < 0).any() or not (positive == positive[0]).all():
        raise NumericError("d must be nonnegative, with one pattern of positive "
                           "entries across a batch")

    C = np.concatenate([G, Aeq], axis=1)
    dinv = 1.0 / np.where(positive, d, np.inf)
    lu, piv, min_pivot = _factor(dinv, C, r)
    factors = (dinv, C, lu, piv)
    v, nu = _reduced_solve(factors, -g, np.concatenate([np.zeros((P, r)), beq], axis=1),
                           np.flatnonzero(min_pivot))
    lam = nu[:, r:]

    Hv = d * v + (G.transpose(0, 2, 1) @ (G @ v[..., None]))[..., 0]
    stat = Hv + g + (Aeq.transpose(0, 2, 1) @ lam[..., None])[..., 0]
    feas = (Aeq @ v[..., None])[..., 0] - beq
    # per QP: the 2-norms of its residuals, Hv, g and beq, and the sum of v
    # and lam, which a non-finite entry makes non-finite
    norms = np.sqrt([(x * x).sum(axis=1) for x in (stat, feas, Hv, g, beq)]).T.tolist()
    sums = (v.sum(axis=1) + lam.sum(axis=1)).tolist()
    results = []
    for i, pivot in enumerate(min_pivot.tolist()):
        s, f, norm_Hv, norm_g, norm_beq = norms[i]
        if pivot == 0.0:
            results.append(DegenerateQpError(
                "KKT matrix is singular: its reduced LU has an exactly zero pivot",
                min_pivot=0.0))
        elif not (s <= 1e-9 * (1.0 + norm_g + norm_Hv) and f <= 1e-9 * (1.0 + norm_beq)
                  and math.isfinite(s + f + sums[i])):
            results.append(DegenerateQpError(
                "KKT system is singular or inconsistent (stationarity "
                f"{s:.3e}, feasibility {f:.3e}, smallest pivot {pivot:.3e})",
                min_pivot=pivot))
        else:
            results.append(KktResult(
                primal=v[i], dual=lam[i], stationarity_residual=s,
                feasibility_residual=f, min_pivot=pivot,
                factors=(dinv[i], C[i], lu[i], piv[i])))
    if not single:
        return results
    if isinstance(results[0], DegenerateQpError):
        raise results[0]
    return results[0]


def qp_sensitivity(kkt, grad, dd, dG, dg, dAeq, dbeq):
    """Derivatives of a smooth phi(v) at the solution of :func:`solve_kkt`
    along k perturbations of the QP data.

    ``grad`` is the gradient of phi at ``kkt.primal``; ``dd`` (k, n), ``dG``
    (k, r, n), ``dg`` (k, n), ``dAeq`` (k, m, n) and ``dbeq`` (k, m) are the
    tangents of ``(d, G, g, Aeq, beq)`` along each direction. One adjoint
    solve with the reduced LU of the symmetric matrix ``K`` = [[D, C'], [C,
    -E]] gives ``y``, and each derivative is ``y' (dr - dK s)`` for the
    solution ``s = (v, mu, lam)`` of ``K s = r``. Returns the k derivatives;
    phi's explicit dependence on the data is the caller's.
    """
    C = kkt.factors[1]
    v, lam = kkt.primal, kkt.dual
    r = C.shape[0] - lam.size
    y, y_nu = (a[0] for a in _reduced_solve(
        [f[None] for f in kkt.factors], grad[None], np.zeros((1, C.shape[0])), [0]))
    dstat = dd * v + dg + (C[:r] @ v) @ dG + lam @ dAeq
    dcon = np.concatenate([dG @ v, dAeq @ v - dbeq], axis=1)
    return -(dstat @ y) - dcon @ y_nu
