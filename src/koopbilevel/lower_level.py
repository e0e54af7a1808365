"""Convex lower level: lifted LTI trajectory QP for fixed boundaries and period.

For fixed (x0, xT, T) the bilinear surrogate is linearized about a lifted
boundary point (A = L0, B its input map there), discretized exactly with a
zero-order hold at step h = T/N, and condensed: intermediate lifted states are
eliminated so the decision vector is the initial lifted state (where free)
plus the input knots. Three boundary formulations are supported:

* ``b0``   - lift the initial boundary: z(0) = psi(x0) (eliminated by
  substitution), terminal constraint C z(N) = xT.
* ``bT``   - lift the terminal boundary: C z(0) = x0 and z(N) = psi(xT).
* ``soft`` - both boundaries pinned only through C, with the lifted boundary
  mismatch added to the objective at weight w in (0, 1).

Each map is elementwise in the eigenbasis of L0 = V diag(lam) V^-1, computed
once per model (``GeneratorModel.modes``): the condensing blocks Ad^j Bd =
V diag(e^(j lam h) h phi1(lam h)) V^-1 B, Ad^N psi0 and the free response
Ad^k z0, in complex arithmetic with real results out. No step of a solve
loops over the knots in Python. A solve ends at the inputs and the running
cost, the only part the upper search reads; the lifted trajectory is rebuilt
on its first read.

The running cost's exact derivatives in (x0, xT, T) come from the solved QP
(``LowerLevelSolution.cost_gradient``; Amos & Kolter, *OptNet*, ICML 2017):
elementwise tangents of the same maps, with the lifted boundaries' tangents
as complex steps of the dictionary, then one adjoint solve with the LU
factors of the KKT solve (``numerics.qp_sensitivity``).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BuildError, ConfigError, DegenerateQpError, LowerLevelError
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
    ``manifold_defect`` call). For that, and for the cost gradient, the
    solution keeps the solved ``QpBuild`` ``qp`` and the initial lifted
    state ``z0``.
    """

    u_traj: np.ndarray
    c: float
    kkt: KktResult
    problem: LowerLevelProblem
    qp: "QpBuild"
    z0: np.ndarray

    @property
    def times(self):
        return np.linspace(0.0, self.problem.T, self.problem.N + 1)

    @cached_property
    def z_traj(self):
        return _trajectory(self.problem.model.modes, self.qp.powers, self.qp.S,
                           self.z0, self.u_traj)

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
    either boundary works; psi0 is used for determinism. Given the
    boundaries' tangents instead, it picks the point's tangent by the same
    rule.
    """
    if variant.kind == "bT":
        return psiT
    return psi0


@dataclass(frozen=True)
class QpBuild:
    """Condensed QP data with the modal maps of ``_discretize``, which
    rebuild z and give the data's tangents."""

    H: np.ndarray
    g: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray
    S: np.ndarray
    powers: np.ndarray
    q: np.ndarray
    Bm: np.ndarray


def _from_modes(V, weights, K):
    """Real parts of V diag(w) K for each column w of ``weights``, side by
    side, as one real product [Re V, -Im V] [Re W; Im W]: with two OpenBLAS
    threads a complex GEMM of some of these sizes stalls for milliseconds.
    """
    W = (weights[:, :, None] * K[:, None, :]).reshape(V.shape[0], -1)
    return np.hstack([V.real, -V.imag]) @ np.vstack([W.real, W.imag])


def _discretize(modes, B, h, N):
    """Exact ZOH of ``dz/dt = L0 z + B u`` at step h, in L0's eigenbasis.

    Returns ``powers[:, j]`` = e^(j lam h) for j = 0..N, q = h phi1(lam h),
    Bm = V^-1 B, and S with ``z_N = Ad^N z_0 + S u`` (u stacked knot-major),
    whose block of knot m is Ad^(N-1-m) Bd = V diag(e^((N-1-m) lam h) q) Bm.
    """
    lam, V, Vinv = modes
    _, q = zoh_discretize(lam, h)
    powers = np.exp(np.multiply.outer(lam, h * np.arange(N + 1)))
    Bm = Vinv @ B
    return powers, q, Bm, _from_modes(V, powers[:, N - 1 :: -1] * q[:, None], Bm)


def _trajectory(modes, powers, S, z0, u):
    """Lifted states z_0..z_N of ``z_{k+1} = Ad z_k + Bd u_k``.

    ``z_k = Ad^k z_0 + sum_{j<k} Ad^(k-1-j) Bd u_j``: the free response V
    diag(e^(k lam h)) V^-1 z_0, plus one block-Toeplitz product. Row k-1 of
    that product is the inputs shifted right by N-k knots, so that u_j meets
    the block of S (``_discretize``) that holds Ad^(k-1-j) Bd.
    """
    _, V, Vinv = modes
    N, n_u = u.shape
    free = _from_modes(V, powers[:, 1:], (Vinv @ z0)[:, None]).T
    shifted = np.concatenate([np.zeros((N - 1) * n_u), u.ravel()])
    lagged = np.lib.stride_tricks.sliding_window_view(shifted, N * n_u)[::n_u]
    return np.vstack([z0, free + lagged @ S.T])


def _qp_tangents(sol, J):
    """Tangents (dH, dg, dAeq, dbeq) of ``build_qp``'s data along the
    columns of ``J`` (see ``LowerLevelSolution.cost_gradient``), stacked over
    them.

    Each is elementwise in L0's eigenbasis. The blocks e^(j lam h) q Bm of S
    move with h = T/N, by (j+1) e^((j+1) lam h) - j e^(j lam h) per unit h,
    and with B at the linearization point, by e^(j lam h) q V^-1 dB. Ad^N
    moves by V diag(lam e^(lam T)) V^-1 per unit T. The lifted boundaries
    move by psi's derivative along (dx0, dxT), from one
    ``ObservableDictionary.derivative`` over all k directions.
    """
    p, qp = sol.problem, sol.qp
    model, variant, N = p.model, p.variant, p.N
    n_x, n_z, n_u, k = model.dictionary.n_x, model.n_z, model.n_u, J.shape[1]
    dT, dh = J[-1], J[-1] / N
    dx0, dxT = J[:n_x], J[n_x : 2 * n_x]
    dpsi0, dpsiT = np.moveaxis(model.dictionary.derivative(
        np.stack([p.x0, p.xT]), np.stack([dx0.T, dxT.T], axis=1)), 0, -1)
    dzbar = choose_linearization_point(variant, dpsi0, dpsiT)
    dB = model.surrogate.input_map(dzbar.T)  # (k, n_z, n_u)
    lam, V, Vinv = model.modes
    E, eT = qp.powers, qp.powers[:, N]
    j = np.arange(N - 1, -1, -1)  # knot m holds Ad^(N-1-m) Bd
    dS_dh = _from_modes(V, (j + 1) * E[:, j + 1] - j * E[:, j], qp.Bm)
    dS_dB = _from_modes(V, E[:, j] * qp.q[:, None], Vinv @ np.hstack(list(dB)))
    dS = (dh[:, None, None] * dS_dh
          + np.moveaxis(dS_dB.reshape(n_z, N, k, n_u), 2, 0).reshape(k, n_z, N * n_u))
    AdN = _from_modes(V, eT[:, None], Vinv)
    dAdN = dT[:, None, None] * _from_modes(V, (lam * eT)[:, None], Vinv)
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
    F = np.hstack([AdN, qp.S])
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
    B = model.surrogate.input_map(choose_linearization_point(variant, psi0, psiT))
    _, V, Vinv = model.modes
    powers, q, Bm, S = _discretize(model.modes, B, h, N)
    eT = powers[:, N]  # e^(lam T)

    C = np.zeros((n_x, n_z))
    C[:, :n_x] = np.eye(n_x)

    if variant.kind == "b0":
        nv = N * n_u
        H = 2.0 * h * np.eye(nv)
        g = np.zeros(nv)
        Aeq = C @ S
        AdN_psi0 = _from_modes(V, eT[:, None], (Vinv @ psi0)[:, None])[:, 0]
        beq = problem.xT - C @ AdN_psi0
    else:
        nv = n_z + N * n_u
        # z_N as an affine map of (z0, u)
        F = np.hstack([_from_modes(V, eT[:, None], Vinv), S])
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

    return QpBuild(H=H, g=g, Aeq=Aeq, beq=beq, S=S, powers=powers, q=q, Bm=Bm)


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
    if problem.variant.kind == "b0":  # z0 = psi0 was substituted
        z0 = problem.psi0
        u = kkt.primal.reshape(N, n_u)
    else:
        z0 = kkt.primal[:n_z]
        u = kkt.primal[n_z:].reshape(N, n_u)

    return LowerLevelSolution(
        u_traj=u,
        c=running_cost(problem.T, u),
        kkt=kkt,
        problem=problem,
        qp=qp,
        z0=z0,
    )
