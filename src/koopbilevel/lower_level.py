"""Convex lower level: lifted LTI trajectory QP for fixed boundaries and period.

For fixed (x0, xT, T) the bilinear surrogate is linearized about a lifted
boundary point, discretized exactly with matrix exponentials at step T/N, and
condensed: intermediate lifted states are eliminated by forward propagation so
the decision vector is the initial lifted state (where free) plus the input
knots. Three boundary formulations are supported:

* ``b0``   - lift the initial boundary: z(0) = psi(x0) (eliminated by
  substitution), terminal constraint C z(N) = xT.
* ``bT``   - lift the terminal boundary: C z(0) = x0 and z(N) = psi(xT).
* ``soft`` - both boundaries pinned only through C, with the lifted boundary
  mismatch added to the objective at weight w in (0, 1).

No step of a solve loops over the knots in Python. The blocks Ad^j Bd of the
condensing map come from doubling, in about 2 log2 N matrix products. A solve
ends at the inputs and the running cost, the only part the upper search
reads; the lifted trajectory is rebuilt from those blocks on its first read.

The running cost's exact derivatives in (x0, xT, T) come from the solved QP
(``LowerLevelSolution.cost_gradient``; Amos & Kolter, *OptNet*, ICML 2017).
They need d(Ad^j Bd)/dh = (j+1) Ad^(j+1) B - j Ad^j B and one more
exponential for the moved linearization point, and then one adjoint solve
with the LU factors of the KKT solve (``numerics.qp_sensitivity``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BuildError, ConfigError, DegenerateQpError, LowerLevelError
from .gedmd import linearize
from .lifting import lift, manifold_defect
from .numerics import KktResult, qp_sensitivity, solve_kkt, zoh_discretize
from .systems import running_cost

__all__ = [
    "BoundaryVariant",
    "LowerLevelProblem",
    "LowerLevelSolution",
    "choose_linearization_point",
    "build_qp",
    "solve_lower",
]

_VARIANT_KINDS = ("b0", "bT", "soft")


@dataclass(frozen=True)
class BoundaryVariant:
    """Boundary-condition formulation; hard variants carry weight 0."""

    kind: str
    w: float = 0.0

    def __post_init__(self):
        if self.kind not in _VARIANT_KINDS:
            raise ConfigError(f"variant kind must be one of {_VARIANT_KINDS}")
        if self.kind == "soft":
            if not 0.0 < self.w < 1.0:
                raise ConfigError(
                    f"soft-constraint weight must lie strictly in (0,1), got {self.w}"
                )
        elif self.w != 0.0:
            raise ConfigError(f"hard variant '{self.kind}' must have w=0")

    @property
    def label(self):
        return self.kind if self.kind != "soft" else f"soft_w{self.w:g}"


@dataclass(frozen=True)
class LowerLevelProblem:
    """One lower-level instance: model + variant + boundary data + grid.

    It also carries the lifted boundaries ``psi0 = psi(x0)`` and
    ``psiT = psi(xT)``, computed once, in one dictionary evaluation, when the
    problem is built; the QP assembly and the solve read them from here.
    """

    model: object
    variant: BoundaryVariant
    x0: np.ndarray
    xT: np.ndarray
    T: float
    N: int
    psi0: np.ndarray = field(init=False)
    psiT: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "xT", np.asarray(self.xT, dtype=float))
        n_x = self.model.dictionary.n_x
        if self.x0.shape != (n_x,) or self.xT.shape != (n_x,):
            raise BuildError(
                f"boundary states must have shape ({n_x},), got "
                f"{self.x0.shape} and {self.xT.shape}"
            )
        if not self.T > 0:
            raise BuildError(f"period must be positive, got T={self.T}")
        if self.N < 2:
            raise BuildError(f"need at least 2 knots, got N={self.N}")
        psi0, psiT = lift(self.model.dictionary, np.stack([self.x0, self.xT]))
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "psiT", psiT)


@dataclass(frozen=True)
class LowerLevelSolution:
    """Inputs, running cost and KKT result; the lifted trajectory on demand.

    ``problem`` is the :class:`LowerLevelProblem` that was solved; the
    variant, period, grid, dictionary and lifted boundaries are read from it.
    The upper search reads only ``c``, so a solve stops at the inputs. The
    lifted trajectory ``z_traj``, the boundary mismatch ``c_hat`` and the
    blend ``weighted_total`` are computed on first read and kept, as are
    ``manifold_defects`` (the distance of each knot of ``z_traj`` from the
    lift manifold of the problem's dictionary, in one batched
    ``manifold_defect`` call). For that the solution keeps ``Ad``, the
    condensing map ``S`` of ``build_qp`` (the blocks Ad^j Bd) and the
    initial lifted state ``z0``: ``z_traj`` is the free response Ad^k z0, by
    doubling, plus one block-Toeplitz product of ``S`` with the inputs.
    """

    u_traj: np.ndarray
    c: float
    kkt: KktResult
    problem: LowerLevelProblem
    Ad: np.ndarray
    S: np.ndarray
    z0: np.ndarray

    @property
    def times(self):
        return np.linspace(0.0, self.problem.T, self.problem.N + 1)

    @cached_property
    def z_traj(self):
        return _trajectory(self.Ad, self.S, self.z0, self.u_traj)

    @cached_property
    def c_hat(self):
        z, p = self.z_traj, self.problem
        return float(np.sum((z[0] - p.psi0) ** 2) + np.sum((z[-1] - p.psiT) ** 2))

    @cached_property
    def weighted_total(self):
        w = self.problem.variant.w
        return (1.0 - w) * self.c + w * self.c_hat

    @cached_property
    def manifold_defects(self):
        return manifold_defect(self.problem.model.dictionary, self.z_traj)

    def cost_gradient(self, J):
        """Derivatives of ``c`` along the columns of ``J``, (2 n_x + 1, k):
        each column a direction of (x0, xT, T), stacked in that order. ``J``
        the identity gives the gradient in (x0, xT, T); a reduction's
        Jacobian gives the gradient in its parameters. Exact up to rounding,
        the Tikhonov term of ``solve_kkt`` included."""
        p, u = self.problem, self.u_traj.ravel()
        # of c in the QP's decision vector, and in T at fixed inputs
        grad = 2.0 * p.T / p.N * u
        if p.variant.kind != "b0":  # the vector is (z0, u)
            grad = np.concatenate([np.zeros(p.model.n_z), grad])
        dc_dT = (u @ u) / p.N
        return J[-1] * dc_dT + qp_sensitivity(self.kkt, grad, *_qp_tangents(self, J))


def choose_linearization_point(variant, psi0, psiT):
    """Lifted linearization point: the boundary that carries the full lift.

    Selects one of the already lifted boundaries, it lifts nothing: ``b0``
    uses psi0 = psi(x0), ``bT`` uses psiT = psi(xT). For soft constraints
    either boundary works; psi0 is used for determinism.
    """
    if variant.kind == "bT":
        return psiT
    return psi0


@dataclass(frozen=True)
class QpBuild:
    """Condensed QP data with the maps that rebuild z: Ad, Bd and S."""

    H: np.ndarray
    g: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray
    Ad: np.ndarray
    Bd: np.ndarray
    S: np.ndarray
    z0_fixed: Optional[np.ndarray]


def _powers(Ad, K, count):
    """[K, Ad K, ..., Ad^(count-1) K] side by side, by doubling.

    Each pass appends Ad^m times the m blocks built so far and then squares
    Ad^m, so ``count`` blocks take about 2 log2(count) matrix products.
    """
    cols = count * K.shape[1]
    blocks, M = K, Ad
    while blocks.shape[1] < cols:
        blocks = np.hstack([blocks, M @ blocks[:, : cols - blocks.shape[1]]])
        M = M @ M
    return blocks


def _condense(Ad, Bd, psi0, N):
    """S with ``z_N = Ad^N z_0 + S u`` (u stacked knot-major), and Ad^N psi0.

    S holds the blocks Ad^(N-1-j) Bd of the knots j = 0..N-1. Both come from
    one doubling seeded with ``[Bd | psi0]``.
    """
    n_z, n_u = Bd.shape
    P = _powers(Ad, np.column_stack([Bd, psi0]), N + 1)
    P = P.reshape(n_z, N + 1, n_u + 1)
    return P[:, N - 1 :: -1, :n_u].reshape(n_z, N * n_u), P[:, N, n_u]


def _trajectory(Ad, S, z0, u):
    """Lifted states z_0..z_N of ``z_{k+1} = Ad z_k + Bd u_k``.

    ``z_k = Ad^k z_0 + sum_{j<k} Ad^(k-1-j) Bd u_j``: the free response by
    doubling, plus one block-Toeplitz product. Row k-1 of that product is the
    inputs shifted right by N-k knots, so that u_j meets the block of S
    (``_condense``) that holds Ad^(k-1-j) Bd.
    """
    N, n_u = u.shape
    Z = _powers(Ad, z0[:, None], N + 1).T
    shifted = np.concatenate([np.zeros((N - 1) * n_u), u.ravel()])
    lagged = np.lib.stride_tricks.sliding_window_view(shifted, N * n_u)[::n_u]
    Z[1:] += lagged @ S.T
    return Z


def _qp_tangents(sol, J):
    """Tangents (dH, dg, dAeq, dbeq) of ``build_qp``'s data along the
    columns of ``J`` (see ``LowerLevelSolution.cost_gradient``), stacked over
    them.

    The blocks Ad^j Bd of S move with h = T/N, by (j+1) Ad^(j+1) B - j Ad^j B
    per unit h, and with B at the linearization point, by Ad^j times the ZOH
    input block of the moved B. One doubling gives both. That ZOH is a call
    of its own, so the value's ZOH rounds as it did.
    """
    p = sol.problem
    model, variant, N = p.model, p.variant, p.N
    n_x, n_z, n_u, k = model.dictionary.n_x, model.n_z, model.n_u, J.shape[1]
    h, dT, dh = p.T / N, J[-1], J[-1] / N
    dx0, dxT = J[:n_x], J[n_x : 2 * n_x]
    jac0, jacT = model.dictionary.grad(np.stack([p.x0, p.xT]))
    dpsi0, dpsiT = jac0 @ dx0, jacT @ dxT
    A, B = linearize(model, choose_linearization_point(variant, p.psi0, p.psiT))
    dzbar = dpsiT if variant.kind == "bT" else dpsi0
    dB = model.surrogate.input_map(dzbar.T)  # (k, n_z, n_u)
    Gam = zoh_discretize(A, np.hstack(list(dB)), h).Bd
    P = _powers(sol.Ad, np.hstack([B, Gam]), N + 1).reshape(n_z, N + 1, k + 1, n_u)
    j = np.arange(N - 1, -1, -1)  # knot m holds Ad^(N-1-m) Bd
    dS_dh = (j + 1)[:, None] * P[:, j + 1, 0] - j[:, None] * P[:, j, 0]
    dS = (dh[:, None, None] * dS_dh.reshape(n_z, N * n_u)
          + np.moveaxis(P[:, j, 1:], 2, 0).reshape(k, n_z, N * n_u))
    AdN = np.linalg.matrix_power(sol.Ad, N)
    dAdN = dT[:, None, None] * (A @ AdN)  # d exp(A T)/dT = A exp(A T)
    if variant.kind == "b0":  # inputs only, z0 = psi0 substituted
        dH = 2.0 * dh[:, None, None] * np.eye(N * n_u)
        dbeq = dxT.T - (dAdN @ p.psi0 + (AdN @ dpsi0).T)[:, :n_x]
        return dH, np.zeros((k, N * n_u)), dS[:, :n_x], dbeq
    nv = n_z + N * n_u
    dF = np.concatenate([dAdN, dS], axis=2)
    dP_u = np.zeros((k, nv, nv))
    dP_u[:, n_z:, n_z:] = 2.0 * dh[:, None, None] * np.eye(N * n_u)
    zero_rows = np.zeros((k, n_x, nv))
    if variant.kind == "bT":
        dAeq = np.concatenate([zero_rows, dF], axis=1)
        dbeq = np.concatenate([dx0.T, dpsiT.T], axis=1)
        return dP_u, np.zeros((k, nv)), dAeq, dbeq
    w = variant.w
    F = np.hstack([AdN, sol.S])
    FtdF = F.T @ dF
    dH = (1.0 - w) * dP_u + 2.0 * w * (FtdF + FtdF.transpose(0, 2, 1))
    dg = -2.0 * w * (dF.transpose(0, 2, 1) @ p.psiT + dpsiT.T @ F)
    dg[:, :n_z] -= 2.0 * w * dpsi0.T
    dAeq = np.concatenate([zero_rows, dF[:, :n_x]], axis=1)
    dbeq = np.concatenate([dx0.T, dxT.T], axis=1)
    return dH, dg, dAeq, dbeq


def build_qp(problem):
    """Assemble (H, g, Aeq, beq) for the condensed lower-level QP.

    Decision vector: inputs only for ``b0`` (z0 substituted), otherwise
    (z0, u0..u_{N-1}). The running cost is the exact piecewise-constant
    discretization h * sum ||u_k||^2 with h = T/N.
    """
    model = problem.model
    variant = problem.variant
    n_z, n_u, N = model.n_z, model.n_u, problem.N
    n_x = model.dictionary.n_x
    h = problem.T / N

    psi0, psiT = problem.psi0, problem.psiT
    A, B = linearize(model, choose_linearization_point(variant, psi0, psiT))
    zoh = zoh_discretize(A, B, h)
    S, AdN_psi0 = _condense(zoh.Ad, zoh.Bd, psi0, N)

    C = np.zeros((n_x, n_z))
    C[:, :n_x] = np.eye(n_x)

    if variant.kind == "b0":
        nv = N * n_u
        H = 2.0 * h * np.eye(nv)
        g = np.zeros(nv)
        Aeq = C @ S
        beq = problem.xT - C @ AdN_psi0
        z0_fixed = psi0
    else:
        nv = n_z + N * n_u
        AdN = np.linalg.matrix_power(zoh.Ad, N)
        F = np.hstack([AdN, S])  # z_N as an affine map of (z0, u)
        E0 = np.hstack([np.eye(n_z), np.zeros((n_z, N * n_u))])
        P_u = np.zeros((nv, nv))
        P_u[n_z:, n_z:] = np.eye(N * n_u)
        C0 = np.hstack([C, np.zeros((n_x, N * n_u))])
        if variant.kind == "bT":
            H = 2.0 * h * P_u
            g = np.zeros(nv)
            Aeq = np.vstack([C0, F])
            beq = np.concatenate([problem.x0, psiT])
        else:
            w = variant.w
            H = 2.0 * (1.0 - w) * h * P_u + 2.0 * w * (E0.T @ E0 + F.T @ F)
            g = -2.0 * w * (E0.T @ psi0 + F.T @ psiT)
            Aeq = np.vstack([C0, C @ F])
            beq = np.concatenate([problem.x0, problem.xT])
        z0_fixed = None

    return QpBuild(
        H=H, g=g, Aeq=Aeq, beq=beq, Ad=zoh.Ad, Bd=zoh.Bd, S=S,
        z0_fixed=z0_fixed,
    )


def solve_lower(problem):
    """Solve the condensed QP for the inputs and the running cost.

    The solve computes the original running cost ``c``, the only part the
    upper level consumes. The lifted trajectory, the lifted boundary
    mismatch ``c_hat`` and the trajectory's manifold defects wait for their
    first read (see ``LowerLevelSolution``). The dictionary is evaluated
    once, for the boundaries, when ``problem`` is built.
    """
    qp = build_qp(problem)
    try:
        kkt = solve_kkt(qp.H, qp.g, qp.Aeq, qp.beq)
    except DegenerateQpError as exc:
        raise LowerLevelError(
            f"lower level degenerate for variant {problem.variant.label} at "
            f"T={problem.T:.6g}: {exc}"
        ) from exc

    N, n_z, n_u = problem.N, problem.model.n_z, problem.model.n_u
    if qp.z0_fixed is not None:
        z0 = qp.z0_fixed
        u = kkt.primal.reshape(N, n_u)
    else:
        z0 = kkt.primal[:n_z]
        u = kkt.primal[n_z:].reshape(N, n_u)

    return LowerLevelSolution(
        u_traj=u,
        c=running_cost(problem.T, u),
        kkt=kkt,
        problem=problem,
        Ad=qp.Ad,
        S=qp.S,
        z0=z0,
    )
