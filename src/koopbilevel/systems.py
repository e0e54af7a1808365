"""Benchmark control-affine systems and their one-step RK4 integrator.

Every system's vector fields broadcast over leading batch axes so that
sampling, integration, and data assembly can run vectorized. Hybrid systems
(the compass-gait walker) carry their reset machinery in
:class:`HybridExtras`; resets are only ever applied at trajectory endpoints.
They also broadcast over leading axes and run in complex arithmetic, so a
boundary reduction built from them takes its complex steps along every
direction in one call.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainEvaluationError, IntegrationError

__all__ = [
    "ControlAffineSystem",
    "HybridExtras",
    "eval_rhs",
    "rk4_step",
    "running_cost",
    "get_system",
    "SYSTEM_PRESETS",
]


@dataclass(frozen=True)
class HybridExtras:
    """Reset machinery for systems with an endpoint impact.

    ``jump_map`` resets velocities at impact (generalized positions are
    preserved), and ``flip_map`` relabels the legs and is an involution;
    both broadcast over leading axes of the state and keep a complex state
    complex. Where the impact happens is not part of the system: the
    walker's gait constraint pins th_st + th_sw = 0 at the endpoint, which
    puts both feet on the ground.
    """

    jump_map: Callable[[np.ndarray], np.ndarray]
    flip_map: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine dynamics ``dx/dt = f(x) + G(x) @ u``.

    ``fields(x)`` returns the drift f and the input map G from one
    evaluation, shaped ``(..., n_x)`` and ``(..., n_x, n_u)`` for states
    ``x`` of shape ``(..., n_x)``. ``state_box`` is the default identification box of a true system; a
    surrogate, which is never sampled, has none.
    """

    name: str
    n_x: int
    n_u: int
    fields: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    state_box: Optional[np.ndarray]
    hybrid: Optional[HybridExtras] = None
    params: dict = field(default_factory=dict)


def eval_rhs(system, x, u):
    """Evaluate ``f(x) + G(x) @ u`` from one ``fields(x)``; broadcasts over
    batches, and ``u`` may carry leading axes of inputs ahead of x's."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape[-1] != system.n_x:
        raise DomainEvaluationError(
            f"{system.name}: state has dim {x.shape[-1]}, expected {system.n_x}"
        )
    if u.shape[-1] != system.n_u:
        raise DomainEvaluationError(
            f"{system.name}: input has dim {u.shape[-1]}, expected {system.n_u}"
        )
    f, G = system.fields(x)
    if not np.isfinite(f).all():
        raise DomainEvaluationError(f"{system.name}: drift returned non-finite values")
    if not np.isfinite(G).all():
        raise DomainEvaluationError(
            f"{system.name}: input map returned non-finite values"
        )
    return f + (G @ u[..., None])[..., 0]


def rk4_step(system, x, u, h):
    """One classical fourth-order Runge-Kutta step with u held constant; ``h``
    may be an array of positive steps that broadcasts against ``x``. An error
    names one offending step, not the whole array."""
    if not np.all(h > 0):
        # the smallest step, or nan when any step is nan
        raise IntegrationError(
            f"step size must be positive, got h={float(np.min(h))}"
        )
    k1 = eval_rhs(system, x, u)
    k2 = eval_rhs(system, x + 0.5 * h * k1, u)
    k3 = eval_rhs(system, x + 0.5 * h * k2, u)
    k4 = eval_rhs(system, x + h * k3, u)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        # the step of the first non-finite entry
        h_bad = float(np.broadcast_to(h, out.shape)[~np.isfinite(out)][0])
        raise IntegrationError(
            f"{system.name}: RK4 produced non-finite state at step size h={h_bad}"
        )
    return out


def running_cost(T, U):
    """Input energy ``(T/N) sum_k ||u_k||^2`` of the ``(N, n_u)`` inputs ``U``
    held piecewise constant over the period ``T``."""
    return float(T / U.shape[0]) * float(np.sum(U**2))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Conventional damped harmonic oscillator; unit natural frequency puts the
# energy-optimal periods at integer multiples of 2*pi.
_A_OSCILLATOR = np.array([[0.0, 1.0], [-1.0, -0.2]])
_B_OSCILLATOR = np.array([[0.0], [1.0]])


def make_linear_system(A, B, name="linear", state_box=None):
    """Linear system dx/dt = A x + B u as a ControlAffineSystem."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n_x, n_u = B.shape
    if state_box is None:
        state_box = np.column_stack([-np.ones(n_x), np.ones(n_x)])

    def fields(x):
        return (np.einsum("ij,...j->...i", A, x),
                np.broadcast_to(B, np.shape(x)[:-1] + B.shape))

    return ControlAffineSystem(
        name=name,
        n_x=n_x,
        n_u=n_u,
        fields=fields,
        state_box=np.asarray(state_box, dtype=float),
        params={"A": A, "B": B},
    )


def make_oscillator():
    return make_linear_system(_A_OSCILLATOR, _B_OSCILLATOR, name="oscillator")


def make_pendulum(damping=0.1):
    """Normalized pendulum: d2q/dt2 = -sin q - damping*dq/dt + u.

    Gravity, length, and mass are normalized to 1. The viscous term is
    required for the energy-optimal periodic problem to have a nonzero
    optimum; damping=0.1 reproduces the benchmark cost level.
    """

    def fields(x):
        f = np.empty(np.shape(x))
        f[..., 0] = x[..., 1]
        f[..., 1] = -np.sin(x[..., 0]) - damping * x[..., 1]
        G = np.zeros(np.shape(x)[:-1] + (2, 1))
        G[..., 1, 0] = 1.0
        return f, G

    box = np.array([[-np.pi / 2, np.pi / 2], [-2.0, 2.0]])
    return ControlAffineSystem(
        name="pendulum",
        n_x=2,
        n_u=1,
        fields=fields,
        state_box=box,
        params={"damping": damping},
    )


def make_compass_gait(hip_mass=2.0, leg_mass=1.0, leg_length=1.0, com_from_hip=0.5,
                      gravity=1.0):
    """Planar compass-gait walker with hip torque, normalized units.

    State ``x = (th_st, th_sw, dth_st, dth_sw)``: stance/swing leg angles
    measured from the downward vertical (positive when the leg's foot is ahead
    of the hip), plus their rates. Point masses: ``hip_mass`` at the hip and
    ``leg_mass`` per leg at distance ``com_from_hip`` below the hip. The
    stance foot is the pivot; the swing foot touches down when both feet are
    at ground height, after which the inelastic impact resets velocities and
    the legs are relabeled.
    """
    mh, m, ell, r, grav = hip_mass, leg_mass, leg_length, com_from_hip, gravity
    if not (0.0 < r < ell):
        raise ConfigError("leg center of mass must lie strictly between hip and foot")
    m11 = mh * ell**2 + m * (ell - r) ** 2 + m * ell**2
    m22 = m * r**2
    mlr = m * ell * r
    g_st = grav * (mh * ell + m * (ell - r) + m * ell)
    g_sw = grav * m * r

    def fields(x):
        th_st, th_sw = x[..., 0], x[..., 1]
        w_st, w_sw = x[..., 2], x[..., 3]
        c = np.cos(th_st - th_sw)
        s = np.sin(th_st - th_sw)
        m12 = -mlr * c
        # rhs of M(q) ddq = -C(q, dq) dq - grad V
        b1 = mlr * s * w_sw**2 + g_st * np.sin(th_st)
        b2 = -mlr * s * w_st**2 - g_sw * np.sin(th_sw)
        det = m11 * m22 - m12**2
        f = np.empty(np.shape(x))
        f[..., :2] = x[..., 2:]
        f[..., 2] = (m22 * b1 - m12 * b2) / det
        f[..., 3] = (m11 * b2 - m12 * b1) / det
        # hip torque acts as tau = (-u, +u) on (th_st, th_sw)
        G = np.zeros(np.shape(x)[:-1] + (4, 1))
        G[..., 2, 0] = (-m22 - m12) / det
        G[..., 3, 0] = (m11 + m12) / det
        return f, G

    def _floating_mass_matrix(th_st, th_sw, M):
        # coordinates (x_hip, y_hip, th_st, th_sw), point masses only, written
        # into the zeros M, one matrix per entry of the angles' leading axes;
        # complex angles need a complex M, for the complex step of jump_map
        M[..., 0, 0] = M[..., 1, 1] = mh + 2.0 * m
        M[..., 0, 2] = M[..., 2, 0] = m * r * np.cos(th_st)
        M[..., 1, 2] = M[..., 2, 1] = m * r * np.sin(th_st)
        M[..., 0, 3] = M[..., 3, 0] = m * r * np.cos(th_sw)
        M[..., 1, 3] = M[..., 3, 1] = m * r * np.sin(th_sw)
        M[..., 2, 2] = M[..., 3, 3] = m * r**2
        return M

    def _pre_impact_velocity(x):
        # floating-base velocities (x_hip', y_hip', w_st, w_sw) of the states x
        qd = np.empty_like(x)
        qd[..., 0] = -ell * np.cos(x[..., 0]) * x[..., 2]
        qd[..., 1] = -ell * np.sin(x[..., 0]) * x[..., 2]
        qd[..., 2:] = x[..., 2:]
        return qd

    def jump_map(x):
        """Inelastic impact at the swing foot; labels are not swapped here.

        Solved in floating-base coordinates: the ground impulse at the new
        contact point changes velocities so the swing foot sticks; angular
        positions are untouched. Complex x is solved in complex arithmetic.
        ``x`` may carry leading axes: every state's saddle system is solved
        by one ``np.linalg.solve``, each as it would be alone.
        """
        x = np.asarray(x)
        x = x.astype(np.result_type(x.dtype, float), copy=False)
        # saddle system [[M, -J^T], [J, 0]] (qd+, impulse) = (M qd-, 0)
        kkt = np.zeros(x.shape[:-1] + (6, 6), dtype=x.dtype)
        M = _floating_mass_matrix(x[..., 0], x[..., 1], kkt[..., :4, :4])
        J = kkt[..., 4:, :4]
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 0, 3] = ell * np.cos(x[..., 1])
        J[..., 1, 3] = ell * np.sin(x[..., 1])
        kkt[..., :4, 4:] = -np.swapaxes(J, -1, -2)
        rhs = np.zeros(x.shape[:-1] + (6, 1), dtype=x.dtype)
        rhs[..., :4, :] = M @ _pre_impact_velocity(x)[..., None]
        qd_plus = np.linalg.solve(kkt, rhs)
        out = x.copy()
        out[..., 2:] = qd_plus[..., 2:4, 0]
        return out

    def flip_map(x):
        return np.asarray(x)[..., [1, 0, 3, 2]]

    box = np.array(
        [[-0.35, 0.35], [-0.35, 0.35], [-1.5, 1.5], [-1.5, 1.5]]
    )
    extras = HybridExtras(jump_map=jump_map, flip_map=flip_map)
    return ControlAffineSystem(
        name="compass_gait",
        n_x=4,
        n_u=1,
        fields=fields,
        state_box=box,
        hybrid=extras,
        params={
            "hip_mass": mh,
            "leg_mass": m,
            "leg_length": ell,
            "com_from_hip": r,
            "gravity": grav,
        },
    )


def step_length(system, x):
    """Horizontal distance between the feet: l*(sin th_sw - sin th_st), one
    per state of the leading axes of x."""
    ell = system.params["leg_length"]
    x = np.asarray(x, dtype=float)
    return ell * (np.sin(x[..., 1]) - np.sin(x[..., 0]))


SYSTEM_PRESETS = {
    "oscillator": make_oscillator,
    "pendulum": make_pendulum,
    "compass_gait": make_compass_gait,
}


def get_system(name, **params):
    """Instantiate a named system preset with optional parameter overrides."""
    if name not in SYSTEM_PRESETS:
        raise ConfigError(
            f"unknown system preset '{name}'; available: {sorted(SYSTEM_PRESETS)}"
        )
    try:
        return SYSTEM_PRESETS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system '{name}': {exc}") from exc
