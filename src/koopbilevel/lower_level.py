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
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BuildError, ConfigError, DegenerateQpError, LowerLevelError
from .gedmd import linearize
from .lifting import lift, manifold_defect
from .numerics import KktResult, solve_kkt, zoh_discretize

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
    """Lifted trajectory, inputs, both cost components, and KKT residuals.

    ``manifold_defects`` (the distance of each knot of ``z_traj`` from the
    lift manifold of ``dictionary``) is computed on first read, in one
    batched ``manifold_defect`` call, and kept: the upper search reads only
    the costs, so the solves it makes never pay for the diagnostic.
    """

    z_traj: np.ndarray
    u_traj: np.ndarray
    c: float
    c_hat: float
    weighted_total: float
    kkt: KktResult
    dictionary: object
    variant: BoundaryVariant
    T: float
    N: int

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.N + 1)

    @cached_property
    def manifold_defects(self):
        return manifold_defect(self.dictionary, self.z_traj)


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
    """Condensed QP data with the affine maps needed to reconstruct z."""

    H: np.ndarray
    g: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray
    Ad: np.ndarray
    Bd: np.ndarray
    z0_fixed: Optional[np.ndarray]
    n_z: int
    n_u: int
    N: int


def _condense(Ad, Bd, N):
    """Map S with z_N = Ad^N z_0 + S u, u stacked knot-major."""
    n_z, n_u = Bd.shape
    S = np.zeros((n_z, N * n_u))
    P = np.eye(n_z)
    for j in range(N - 1, -1, -1):
        S[:, j * n_u : (j + 1) * n_u] = P @ Bd
        P = P @ Ad
    return S, P


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
    lti = linearize(model, choose_linearization_point(variant, psi0, psiT))
    zoh = zoh_discretize(lti.A, lti.B, h)
    S, AdN = _condense(zoh.Ad, zoh.Bd, N)

    C = np.zeros((n_x, n_z))
    C[:, :n_x] = np.eye(n_x)

    if variant.kind == "b0":
        nv = N * n_u
        H = 2.0 * h * np.eye(nv)
        g = np.zeros(nv)
        Aeq = C @ S
        beq = problem.xT - C @ (AdN @ psi0)
        z0_fixed = psi0
    else:
        nv = n_z + N * n_u
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
        H=H, g=g, Aeq=Aeq, beq=beq, Ad=zoh.Ad, Bd=zoh.Bd,
        z0_fixed=z0_fixed, n_z=n_z, n_u=n_u, N=N,
    )


def solve_lower(problem):
    """Solve the condensed QP and reconstruct the lifted trajectory.

    Both cost components are reported: the original running cost ``c`` (the
    only part the upper level consumes) and the lifted boundary mismatch
    ``c_hat``. The dictionary is evaluated once, for the boundaries, when
    ``problem`` is built; the trajectory's manifold defects wait for their
    first read.
    """
    qp = build_qp(problem)
    try:
        kkt = solve_kkt(qp.H, qp.g, qp.Aeq, qp.beq)
    except DegenerateQpError as exc:
        raise LowerLevelError(
            f"lower level degenerate for variant {problem.variant.label} at "
            f"T={problem.T:.6g}: {exc}"
        ) from exc

    N, n_z, n_u = qp.N, qp.n_z, qp.n_u
    if qp.z0_fixed is not None:
        z0 = qp.z0_fixed
        u = kkt.primal.reshape(N, n_u)
    else:
        z0 = kkt.primal[:n_z]
        u = kkt.primal[n_z:].reshape(N, n_u)

    Z = np.empty((N + 1, n_z))
    Z[0] = z0
    for k in range(N):
        Z[k + 1] = qp.Ad @ Z[k] + qp.Bd @ u[k]

    h = problem.T / N
    c = h * float(np.sum(u**2))
    c_hat = float(
        np.sum((Z[0] - problem.psi0) ** 2) + np.sum((Z[N] - problem.psiT) ** 2)
    )
    w = problem.variant.w
    weighted = (1.0 - w) * c + w * c_hat

    return LowerLevelSolution(
        z_traj=Z,
        u_traj=u,
        c=c,
        c_hat=c_hat,
        weighted_total=weighted,
        kkt=kkt,
        dictionary=problem.model.dictionary,
        variant=problem.variant,
        T=float(problem.T),
        N=N,
    )

