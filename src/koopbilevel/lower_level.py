"""Convex lower level: lifted LTI trajectory QP for fixed boundaries and period.

For fixed (x0, xT, T) the bilinear surrogate is linearized about a lifted
boundary point z (A = L0, B = G(z) of its fields), discretized exactly with a
zero-order hold at step h = T/N, and condensed: intermediate lifted states are
eliminated. Each boundary formulation pins the leading k0 entries of z(0) to
psi(x0) and the leading kN entries of z(N) to psi(xT), either the whole lift
(n_z) or its state copy alone (n_x, as psi(x)[:n_x] = x):

* ``b0``   - lift the initial boundary: (k0, kN) = (n_z, n_x).
* ``bT``   - lift the terminal boundary: (k0, kN) = (n_x, n_z).
* ``soft`` - pin only the states, (n_x, n_x), and add the lifted boundary
  mismatch to the objective at weight w in (0, 1).

The decision vector is z(0)'s n_z - k0 free entries, then the input knots.
Its Hessian is diagonal plus at most rank n_z, H = diag(d) + G'G: d is 2(1 -
w)h on the inputs and 2w on z(0)'s free entries, and G = sqrt(2w) F for the
map z(N) = zN + F v, with no rows for the hard variants. ``numerics.solve_kkt``
eliminates every entry with d > 0 and LU-factors what is left, at most 2 n_z
wide: n_x for ``b0``, 2 n_z - n_x for ``bT`` (whose free z(0) entries cost
nothing), n_z + n_x for ``soft``.

Each map is elementwise in the eigenbasis of L0 = V diag(lam) V^-1, computed
once per model (``GeneratorModel.modes``): the condensing blocks Ad^j Bd =
V diag(e^(j lam h) h phi1(lam h)) V^-1 B, Ad^N on z(0) and the free response
Ad^k z0, in complex arithmetic with real results out. No step of a solve
loops over the knots in Python. Every step also runs over a leading batch
axis of problems that share model, variant and N: ``sweep_lower`` solves a
period grid in blocks of ``_SWEEP_BLOCK`` problems, and ``solve_lower`` is a
batch of one. Each problem of a batch is solved as it would be alone. A
solve ends at the inputs and the running cost, the only part the upper
search reads; the lifted trajectory is rebuilt on its first read.

The running cost's exact derivatives in (x0, xT, T) come from the solved QP
(``LowerLevelSolution.cost_gradient``; Amos & Kolter, *OptNet*, ICML 2017):
elementwise tangents of the same maps, with the lifted boundaries' tangents
the dictionary's forward-mode derivative (``ObservableDictionary.derivative``),
then one adjoint solve with the reduced LU factors of the KKT solve
(``numerics.qp_sensitivity``).
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import BuildError, ConfigError
from .lifting import lift, manifold_defect, unlift
from .numerics import KktResult, qp_sensitivity, solve_kkt, zoh_discretize
from .systems import running_cost

__all__ = [
    "BoundaryVariant",
    "LowerLevelProblem",
    "LowerLevelSolution",
    "choose_linearization_point",
    "build_qp",
    "solve_lower",
    "sweep_lower",
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

    Building one checks the data; ``build_qp`` lifts the boundaries of a
    whole batch of problems in one dictionary evaluation.
    """

    model: object
    variant: BoundaryVariant
    x0: np.ndarray
    xT: np.ndarray
    T: float
    N: int

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


@dataclass(frozen=True)
class LowerLevelSolution:
    """Inputs, running cost and KKT result; the lifted trajectory on demand.

    ``problem`` is the :class:`LowerLevelProblem` that was solved; the
    variant, period, grid and dictionary are read from it. The upper search
    reads only ``c``, so a solve stops at the inputs. The lifted trajectory
    ``z_traj`` and the boundary mismatch ``c_hat`` are computed on first
    read and kept, as are ``manifold_defects`` (the distance of each knot of
    ``z_traj`` from the lift manifold of the problem's dictionary, in one
    batched ``manifold_defect`` call) and ``trajectory``, the ``(times,
    states, inputs)`` triple with ``z_traj`` unlifted to the original
    states: the one form in which a trajectory is written, compared and used
    as a warm start. For that, and for the cost gradient, the solution keeps
    the solved ``QpBuild`` ``qp``, which holds the lifted boundaries, and
    the initial lifted state ``z0``.
    """

    u_traj: np.ndarray
    c: float
    kkt: KktResult
    problem: LowerLevelProblem
    qp: "QpBuild"
    z0: np.ndarray

    @cached_property
    def z_traj(self):
        return _trajectory(self.problem.model.real_modes, self.qp.powers, self.qp.S,
                           self.z0, self.u_traj)

    @cached_property
    def trajectory(self):
        p = self.problem
        times = np.linspace(0.0, p.T, p.N + 1)
        return times, unlift(p.model.dictionary, self.z_traj), self.u_traj

    @cached_property
    def c_hat(self):
        z, qp = self.z_traj, self.qp
        return float(np.sum((z[0] - qp.psi0) ** 2) + np.sum((z[-1] - qp.psiT) ** 2))

    @cached_property
    def manifold_defects(self):
        return manifold_defect(self.problem.model.dictionary, self.z_traj)

    def cost_gradient(self, J):
        """Derivatives of ``c`` along the columns of ``J``, (2 n_x + 1, k):
        each column a direction of (x0, xT, T), stacked in that order. ``J``
        the identity gives the gradient in (x0, xT, T); a reduction's
        Jacobian gives the gradient in its parameters. Exact up to rounding:
        the gradient of the QP as posed, which ``solve_kkt`` solves."""
        p, u = self.problem, self.u_traj.ravel()
        # of c in the QP's decision vector (free z0 entries, u), and in T at
        # fixed inputs
        grad = np.concatenate([np.zeros(self.kkt.primal.size - u.size),
                               2.0 * p.T / p.N * u])
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


def _pinned(variant, n_x, n_z):
    """(k0, kN) of the module docstring: how many leading entries of z(0)
    and of z(N) the variant pins to psi(x0) and psi(xT)."""
    return {"b0": (n_z, n_x), "bT": (n_x, n_z), "soft": (n_x, n_x)}[variant.kind]


@dataclass(frozen=True)
class QpBuild:
    """Condensed QP data in v = (z(0)'s free entries, inputs), with Hessian
    diag(d) + G'G and z(N) = zN + F v (``build_qp``), the lifted boundaries
    ``psi0 = psi(x0)`` and ``psiT = psi(xT)``, and the modal maps of
    ``_discretize``, which rebuild z and give the data's tangents. Each
    field carries the batch axis of the problems it was built for."""

    d: np.ndarray
    G: np.ndarray
    g: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray
    zN: np.ndarray
    F: np.ndarray
    S: np.ndarray
    powers: np.ndarray
    q: np.ndarray
    Bm: np.ndarray
    psi0: np.ndarray
    psiT: np.ndarray


def _from_modes(V, weights, K):
    """Real parts of V diag(w) K for each column w of ``weights``, side by
    side, as one real product of ``V`` = [Re V, -Im V] and [Re W; Im W];
    ``weights`` and ``K`` may carry matching leading batch axes. At
    one OpenBLAS thread the complex GEMM ``(V @ W).real`` is no faster (a
    ``solve_lower`` and its ``cost_gradient`` took the same time within 2 %
    on fig1 and walker), and it rounds otherwise: walker's T* would move by
    4.8e-8 relative. With two threads a complex GEMM of some sizes stalls.
    """
    W = weights[..., :, :, None] * K[..., :, None, :]
    W = W.reshape(*W.shape[:-2], -1)
    return V @ np.concatenate([W.real, W.imag], axis=-2)


def _discretize(modes, B, h, N):
    """Exact ZOH of ``dz/dt = L0 z + B u`` at step h, in L0's eigenbasis.

    Returns ``powers[..., j]`` = e^(j lam h) for j = 0..N, q = h phi1(lam h),
    Bm = V^-1 B, and S with ``z_N = Ad^N z_0 + S u`` (u stacked knot-major),
    whose block of knot m is Ad^(N-1-m) Bd = V diag(e^((N-1-m) lam h) q) Bm.
    ``h`` and ``B`` may carry a leading batch axis.
    """
    lam, V, Vinv = modes
    _, q = zoh_discretize(lam, h)
    powers = np.exp(lam[:, None] * np.multiply.outer(h, np.arange(N + 1))[..., None, :])
    Bm = Vinv @ B
    return powers, q, Bm, _from_modes(V, powers[..., N - 1 :: -1] * q[..., None], Bm)


def _trajectory(modes, powers, S, z0, u):
    """Lifted states z_0..z_N of ``z_{k+1} = Ad z_k + Bd u_k``.

    ``z_k = Ad^k z_0 + sum_{j<k} Ad^(k-1-j) Bd u_j``: the free response V
    diag(e^(k lam h)) V^-1 z_0, plus one block-Toeplitz product. Row k-1 of
    that product is the inputs shifted right by N-k knots, so that u_j meets
    the block of S (``_discretize``) that holds Ad^(k-1-j) Bd. Each argument
    may carry a leading batch axis; the shifted inputs are a strided view,
    so no (N, N n_u) operand is built.
    """
    _, V, Vinv = modes
    N, n_u = u.shape[-2:]
    free = np.swapaxes(_from_modes(V, powers[..., 1:], Vinv @ z0[..., None]), -1, -2)
    flat = u.reshape(*u.shape[:-2], N * n_u)
    shifted = np.concatenate([np.zeros((*flat.shape[:-1], (N - 1) * n_u)), flat], axis=-1)
    lagged = np.lib.stride_tricks.sliding_window_view(shifted, N * n_u, axis=-1)[..., ::n_u, :]
    return np.concatenate([z0[..., None, :], free + lagged @ np.swapaxes(S, -1, -2)],
                          axis=-2)


def _qp_tangents(sol, J):
    """Tangents (dd, dG, dg, dAeq, dbeq) of ``build_qp``'s data along the
    columns of ``J`` (see ``LowerLevelSolution.cost_gradient``), stacked over
    them.

    Each is elementwise in L0's eigenbasis. The blocks e^(j lam h) q Bm of S
    move with h = T/N, by (j+1) e^((j+1) lam h) - j e^(j lam h) per unit h,
    and with B at the linearization point, by e^(j lam h) q V^-1 dB. Ad^N
    moves by V diag(lam e^(lam T)) V^-1 per unit T. The lifted boundaries
    move by psi's derivative along (dx0, dxT), from one
    ``ObservableDictionary.derivative`` over all k directions: forward-mode
    tangents in real arithmetic, one walk of the dictionary for both
    boundaries.
    """
    p, qp = sol.problem, sol.qp
    model, N, w = p.model, p.N, p.variant.w
    n_x, n_z, n_u, k = model.dictionary.n_x, model.n_z, model.n_u, J.shape[1]
    k0, kN = _pinned(p.variant, n_x, n_z)
    dT, dh = J[-1], J[-1] / N
    dx0, dxT = J[:n_x], J[n_x : 2 * n_x]
    dpsi0, dpsiT = np.moveaxis(model.dictionary.derivative(
        np.stack([p.x0, p.xT]), np.stack([dx0.T, dxT.T], axis=1)), 0, -1)
    dzbar = choose_linearization_point(p.variant, dpsi0, dpsiT)
    dB = model.surrogate.fields(dzbar.T)[1]  # (k, n_z, n_u)
    lam, V, Vinv = model.real_modes
    E, eT = qp.powers, qp.powers[:, N]
    j = np.arange(N - 1, -1, -1)  # knot m holds Ad^(N-1-m) Bd
    dS_dh = _from_modes(V, (j + 1) * E[:, j + 1] - j * E[:, j], qp.Bm)
    dS_dB = _from_modes(V, E[:, j] * qp.q[:, None], Vinv @ np.hstack(list(dB)))
    dS = (dh[:, None, None] * dS_dh
          + np.moveaxis(dS_dB.reshape(n_z, N, k, n_u), 2, 0).reshape(k, n_z, N * n_u))
    AdN = _from_modes(V, eT[:, None], Vinv)
    dAdN = dT[:, None, None] * _from_modes(V, (lam * eT)[:, None], Vinv)
    # tangents of zN and F in z(N) = zN + F v (build_qp)
    dzN = dAdN[:, :, :k0] @ qp.psi0[:k0] + (AdN[:, :k0] @ dpsi0[:k0]).T
    dF = np.concatenate([dAdN[:, :, k0:], dS], axis=2)
    nf, nv = n_z - k0, dF.shape[2]
    dd = np.zeros((k, nv))
    dd[:, nf:] = 2.0 * (1.0 - w) * dh[:, None]
    dg = np.zeros((k, nv))
    if w:
        dg = 2.0 * w * (dF.transpose(0, 2, 1) @ (qp.zN - qp.psiT) + (dzN - dpsiT.T) @ qp.F)
        dg[:, :nf] -= 2.0 * w * dpsi0[k0:].T
    dG = np.sqrt(2.0 * w) * dF if w else dF[:, :0]
    return dd, dG, dg, dF[:, :kN], dpsiT.T[:, :kN] - dzN[:, :kN]


def build_qp(problems):
    """Assemble the condensed lower-level QP of each problem, stacked on a
    leading batch axis; the problems share model, variant and N. Their
    boundaries are lifted in one dictionary evaluation.

    The decision vector v is z(0)'s n_z - k0 free entries, then
    u0..u_{N-1}; the equality rows are the first kN of z(N) = zN + F v, with
    (k0, kN) the variant's pinned counts (module docstring). The objective is
    1 - w times the running cost, the exact piecewise-constant discretization
    h * sum ||u_k||^2 with h = T/N, plus w times the lifted boundary mismatch
    ||z(0) - psi0||^2 + ||z(N) - psiT||^2. Its Hessian is diag(d) + G'G, with
    d = 2(1 - w)h on the inputs and 2w on z(0)'s free entries, and G =
    sqrt(2w) F, which has no rows for a hard variant. An empty batch raises
    ``BuildError``.
    """
    if not problems:
        raise BuildError("a batch of lower-level problems is empty")
    model, variant, N = problems[0].model, problems[0].variant, problems[0].N
    if any(p.model is not model or p.variant != variant or p.N != N for p in problems):
        raise BuildError("the problems of a batch must share model, variant and N")
    n_x, n_z = model.dictionary.n_x, model.n_z
    k0, kN = _pinned(variant, n_x, n_z)
    P, nf = len(problems), n_z - k0
    w, h = variant.w, np.array([p.T for p in problems], dtype=float) / N

    psi0, psiT = np.split(lift(model.dictionary, np.concatenate(
        [[p.x0 for p in problems], [p.xT for p in problems]])), 2)
    B = model.surrogate.fields(choose_linearization_point(variant, psi0, psiT))[1]
    _, V, Vinv = model.real_modes
    powers, q, Bm, S = _discretize(model.real_modes, B, h, N)

    # Ad^N takes z(0)'s pinned entries to zN and its free ones into F
    K = np.empty((P, n_z, 1 + nf), dtype=Vinv.dtype)
    K[..., :1] = Vinv[:, :k0] @ psi0[:, :k0, None]
    K[..., 1:] = Vinv[:, k0:]
    AdN_z0 = _from_modes(V, powers[..., N, None], K)  # e^(lam T)
    zN, F = AdN_z0[..., 0], np.concatenate([AdN_z0[..., 1:], S], axis=-1)
    d = np.empty((P, F.shape[-1]))
    d[:, :nf] = 2.0 * w
    d[:, nf:] = 2.0 * (1.0 - w) * h[:, None]
    g = np.zeros(d.shape)
    if w:
        g = (F.transpose(0, 2, 1) @ (zN - psiT)[..., None])[..., 0]
        g[:, :nf] -= psi0[:, k0:]
        g *= 2.0 * w
    return QpBuild(d=d, G=np.sqrt(2.0 * w) * F if w else F[:, :0], g=g, Aeq=F[:, :kN],
                   beq=psiT[:, :kN] - zN[:, :kN], zN=zN, F=F, S=S, powers=powers,
                   q=q, Bm=Bm, psi0=psi0, psiT=psiT)


def _split_primal(psi0, primal, N, n_u):
    """z(0) and the ``(N, n_u)`` inputs of the QP's primal, over any
    leading batch axis: z(0)'s free entries lead the vector."""
    nf = primal.shape[-1] - N * n_u
    z0 = np.concatenate([psi0[..., : psi0.shape[-1] - nf], primal[..., :nf]], axis=-1)
    return z0, primal[..., nf:].reshape(*primal.shape[:-1], N, n_u)


def _solve_qps(problems):
    """``build_qp`` of the problems and ``solve_kkt``'s result for each."""
    qp = build_qp(problems)
    return qp, solve_kkt(qp.d, qp.G, qp.g, qp.Aeq, qp.beq)


def solve_lower(problem):
    """Solve the condensed QP for the inputs and the running cost.

    A batch of one of the solve that ``sweep_lower`` runs on each block. It
    computes the original running cost ``c``, the only part the upper level
    consumes. The lifted trajectory, the lifted boundary mismatch ``c_hat``
    and the trajectory's manifold defects wait for their first read (see
    ``LowerLevelSolution``). The dictionary is evaluated once, for the
    boundaries, in ``build_qp``. A KKT system that ``solve_kkt`` rejects
    raises its ``DegenerateQpError``, with ``min_pivot``.
    """
    qp, (kkt,) = _solve_qps([problem])
    if not isinstance(kkt, KktResult):
        raise kkt
    qp = QpBuild(*(getattr(qp, f.name)[0] for f in fields(QpBuild)))
    z0, u = _split_primal(qp.psi0, kkt.primal, problem.N, problem.model.n_u)
    return LowerLevelSolution(
        u_traj=u,
        c=running_cost(problem.T, u),
        kkt=kkt,
        problem=problem,
        qp=qp,
        z0=z0,
    )


# problems that sweep_lower solves at a time; bounds the batch temporaries
# of build_qp, solve_kkt and _trajectory. fig1's reproduce (a 137-period
# sweep) in a fresh process on a 2-core Xeon (median of 3) peaked at 84.9,
# 84.9, 85.0, 85.2 and 88.5 MB RSS with blocks of 8, 16, 32, 64 and 137; its
# sweep took 11-12 ms (best of 3) from 16 up, and 15 ms at 8
_SWEEP_BLOCK = 32


def _sweep_rows(problems):
    """``sweep_lower``'s rows of one batch of problems: one ``build_qp``,
    one ``solve_kkt``, one ``_trajectory`` and one ``manifold_defect``."""
    qp, results = _solve_qps(problems)
    rows = np.full((len(problems), 3), np.nan)
    ok = [i for i, kkt in enumerate(results) if isinstance(kkt, KktResult)]
    if not ok:
        return rows
    model, N = problems[0].model, problems[0].N
    z0, u = _split_primal(qp.psi0[ok], np.stack([results[i].primal for i in ok]), N,
                          model.n_u)
    z = _trajectory(model.real_modes, qp.powers[ok], qp.S[ok], z0, u)
    rows[ok, 2] = manifold_defect(model.dictionary, z).max(axis=1)
    rows[ok, :2] = [(running_cost(problems[i].T, u_i),
                     max(results[i].stationarity_residual, results[i].feasibility_residual))
                    for i, u_i in zip(ok, u)]
    return rows


def sweep_lower(problems):
    """Rows ``(c, kkt_residual, manifold_defect_max)`` of the problems'
    solutions, as a ``(len(problems), 3)`` array; no problems give a
    ``(0, 3)`` array.

    The problems share model, variant and N. They are solved in blocks of
    ``_SWEEP_BLOCK``, so a block's temporaries are the most held at once,
    and the defects of every knot of a block's trajectories come from one
    ``manifold_defect`` call. ``kkt_residual`` is the larger of the
    stationarity and feasibility residuals. Each row equals what
    ``solve_lower`` gives for its problem alone; a problem whose QP
    ``solve_kkt`` rejects gets a row of NaN.
    """
    rows = np.empty((len(problems), 3))
    for start in range(0, len(problems), _SWEEP_BLOCK):
        rows[start:start + _SWEEP_BLOCK] = _sweep_rows(problems[start:start + _SWEEP_BLOCK])
    return rows
