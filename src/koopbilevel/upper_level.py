"""Upper level: a global search over the boundary-constraint manifold.

The upper problem minimizes the original running cost, evaluated by solving
the convex lower level, over (x0, xT, T) subject to the mixed boundary
constraints b(x0, xT, T) = 0. Each constraint preset parametrizes the
solution set of b = 0 explicitly, p -> (x0, xT, T) with the period T as p's
first entry, so the upper level is a search over a
low-dimensional box of p. ``solve_reduced`` runs DIRECT
(Jones, Perttunen & Stuckman, *Lipschitzian optimization without the
Lipschitz constant*, 1993, in the locally biased form of Gablonsky & Kelley,
2001) over that box and polishes its best point with bounded L-BFGS-B. The
landscape over T has several local minima, one basin per added period, so a
local method alone is not enough. DIRECT stops at whichever comes first: the
box holding its best point is resolved, smaller than ``_DIRECT_LEN_TOL`` of
the search box, which is where the polish can take over, or it reaches its
evaluation cap ``_DIRECT_MAXFUN``. The bundles' 1-D period searches stop by
resolution, walker's 3-D search at the cap. The polish reads the exact
gradient of the upper cost: the lower level's cost gradient in (x0, xT, T),
from its KKT solution, times the reduction's Jacobian, its complex step.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import Bounds, direct, minimize

from .errors import (
    ConfigError,
    KoopbilevelError,
    LowerLevelError,
    NoSolutionError,
)
from .lower_level import LowerLevelProblem, solve_lower, sweep_lower
from .numerics import complex_step
from .systems import step_length

__all__ = [
    "MixedBoundaryConstraint",
    "UpperConfig",
    "BilevelSolution",
    "solve_reduced",
    "sweep_period",
    "make_periodic_amplitude_anchor",
    "make_walker_gait",
]


@dataclass(frozen=True)
class MixedBoundaryConstraint:
    """Implicit boundary coupling b(x0, xT, T) = 0, optionally with an
    explicit parametrization of its solution set, ``reduction(p) -> (x0, xT,
    T)``.

    Both broadcast over leading axes, as the vector fields do. ``eval``
    takes x0 and xT of shape ``(..., n_x)`` and T of shape ``(...)`` and
    returns the ``(..., n_g)`` rows, each as it would be alone: the NLP
    baseline differences the boundary rows in one call. ``reduction`` takes
    p of shape ``(..., p_dim)`` and returns x0 and xT that broadcast to
    ``(..., n_x)`` and T of shape ``(...)``. It must also run unchanged on
    complex p (no ``float`` casts, range checks on ``.real``):
    ``reduction_jacobian`` is its complex step along every entry of p at
    once."""

    eval: Callable
    n_g: int
    n_x: int
    name: str = "custom"
    reduction: Optional[Callable] = None
    # (lo, hi) rows of p after the period, whose row is UpperConfig's bracket;
    # they keep surrogate queries inside the region the model was identified on
    p_bounds: tuple = ()

    @property
    def p_dim(self):
        return 1 + len(self.p_bounds)

    def residual(self, x0, xT, T):
        """b(x0, xT, T) as a 1-D float array."""
        return np.atleast_1d(np.asarray(self.eval(x0, xT, T), dtype=float))

    def reduction_jacobian(self, p):
        """d(x0, xT, T)/dp, shape (2 n_x + 1, p_dim), rows in that order: the
        complex steps along every entry of p from one call of the reduction
        on the stacked directions."""
        p = np.asarray(p, dtype=float)

        def stacked(q):
            x0, xT, T = self.reduction(q)
            lead = np.shape(T) + (self.n_x,)
            return np.concatenate([np.broadcast_to(x0, lead), np.broadcast_to(xT, lead),
                                   np.asarray(T)[..., None]], axis=-1)

        return complex_step(stacked, p, np.eye(p.size)).T


_DIRECT_MAXFUN = 200  # evaluation cap of the DIRECT stage of solve_reduced
# DIRECT stops once the box holding its best point is smaller than this
# fraction of the search box (scipy's len_tol); at 1e-2 walker's 3-D search
# would stop early and move, at 1e-3 it still runs to the cap
_DIRECT_LEN_TOL = 1e-3
_POLISH_FTOL = 1e-15  # L-BFGS-B tolerances of the polish stage
_POLISH_GTOL = 1e-10


@dataclass(frozen=True)
class UpperConfig:
    """The period bracket [T_min, T_max] of the upper level.

    ``solve_reduced`` keeps T inside it. Everything else is a module
    constant: DIRECT stops when the box holding its best point is smaller
    than ``_DIRECT_LEN_TOL`` (1e-3) of the search box, or after
    ``_DIRECT_MAXFUN`` (200) evaluations, and the L-BFGS-B polish runs at
    ``ftol`` ``_POLISH_FTOL`` (1e-15) and ``gtol`` ``_POLISH_GTOL`` (1e-10).
    """

    T_min: float
    T_max: float

    def __post_init__(self):
        if not 0 < self.T_min < self.T_max:
            raise ConfigError(
                f"need 0 < T_min < T_max, got [{self.T_min}, {self.T_max}]"
            )


@dataclass(frozen=True)
class BilevelSolution:
    """The kept lower solution of a bilevel solve and the search's records.

    ``lower`` is the :class:`~koopbilevel.lower_level.LowerLevelSolution` of
    the point the polish records: its ``problem`` holds the variant,
    boundaries ``x0``, ``xT`` and period ``T``, its ``c`` is the running cost
    and its ``trajectory`` the ``(times, states, inputs)`` triple.
    ``start_records`` holds one record per search stage (see
    :func:`solve_reduced`).
    """

    lower: object
    start_records: tuple

    @property
    def eval_count(self):
        """Objective calls over every stage, one lower solve each."""
        return sum(stage["nfev"] for stage in self.start_records)


def _reduce(model, variant, mbc, p, N):
    """The lower-level problem at p: ``mbc.reduction(p)`` = (x0, xT, T)."""
    x0, xT, T = mbc.reduction(p)
    return LowerLevelProblem(model=model, variant=variant, x0=x0, xT=xT, T=T, N=N)


def _lower_eval(model, variant, mbc, p, N):
    """Upper cost at p: reduce p to (x0, xT, T) and solve the lower level.

    Returns (cost, lower solution, None), or (+inf, None, the exception) when
    the reduction or the lower solve fails.
    """
    try:
        sol = solve_lower(_reduce(model, variant, mbc, p, N))
    except KoopbilevelError as exc:
        return np.inf, None, exc
    return sol.c, sol, None


def solve_reduced(model, variant, mbc, config, N):
    """DIRECT over the box of p, then an L-BFGS-B polish of its best point.

    The box is [T_min, T_max] for the period followed by the rows of
    ``mbc.p_bounds``. The polish gets the cost and its exact gradient in one
    call: ``LowerLevelSolution.cost_gradient`` along the columns of
    ``mbc.reduction_jacobian(p)``. Every objective call is one lower solve,
    a point asked for twice included, and a failed point costs +inf, with a
    zero gradient. The polish keeps the lower solution of its cheapest point,
    the later of equal ones, and returns it as ``lower``, with no solve after
    the search; a polish with no finite point raises ``NoSolutionError``.
    DIRECT keeps none: the polish starts at its point, and L-BFGS-B accepts
    no ascent.

    Each stage leaves one record: point ``p_star``, cost ``c_star``,
    objective calls ``nfev`` and ``failures``, the calls that were +inf by
    exception type name, both counted as the calls are made. DIRECT's point
    and cost are scipy's, and its record also has its iteration count
    ``nit`` and scipy's ``message``, which says whether the resolution
    (``len_tol``) or the cap (``maxfun``) ended the search. The polish
    records its kept point, with the box faces it is on (``active_bounds``),
    ``projected_grad_norm``, the inf-norm of its exact gradient without the
    components on those faces, and L-BFGS-B's iteration count ``nit``. These
    records are written to ``<label>_solution.json``, and ``audit`` rebuilds
    them whole by running the search again.
    """
    if mbc.reduction is None:
        raise ConfigError(f"constraint '{mbc.name}' provides no reduction")
    box = np.array([(config.T_min, config.T_max), *mbc.p_bounds], dtype=float)

    def evaluate(record, p):
        p = np.array(p, dtype=float)
        cost, sol, err = _lower_eval(model, variant, mbc, p, N)
        record["nfev"] += 1
        if sol is None:
            record["failures"][type(err).__name__] += 1
        return p, cost, sol

    coarse = {"stage": "direct", "nfev": 0, "failures": Counter()}
    res = direct(lambda p: evaluate(coarse, p)[1], Bounds(*box.T),
                 maxfun=_DIRECT_MAXFUN, len_tol=_DIRECT_LEN_TOL)
    coarse.update(p_star=res.x.tolist(), c_star=float(res.fun), nit=int(res.nit),
                  message=str(res.message), failures=dict(coarse["failures"]))
    if not np.isfinite(coarse["c_star"]):
        raise NoSolutionError(
            f"DIRECT found no finite upper cost for '{mbc.name}' in "
            f"{coarse['nfev']} evaluations"
        )
    polish = {"stage": "polish", "nfev": 0, "failures": Counter()}
    kept = []  # (p, lower solution, gradient) of the cheapest point so far

    def objective(p):
        p, cost, sol = evaluate(polish, p)
        if sol is None:
            return cost, np.zeros(p.size)
        grad = sol.cost_gradient(mbc.reduction_jacobian(p))
        if not kept or cost <= kept[1].c:
            kept[:] = p, sol, grad
        return cost, grad

    res = minimize(objective, np.asarray(coarse["p_star"]), jac=True,
                   method="L-BFGS-B", bounds=box,
                   options={"ftol": _POLISH_FTOL, "gtol": _POLISH_GTOL})
    if not kept:
        raise NoSolutionError(f"the polish found no finite upper cost for "
                              f"'{mbc.name}' in {polish['nfev']} evaluations")
    p, lower, grad = kept
    on_face = p[:, None] == box
    polish.update(p_star=p.tolist(), c_star=lower.c, nit=int(res.nit),
                  failures=dict(polish["failures"]), projected_grad_norm=float(
                      np.max(np.abs(grad[~on_face.any(axis=1)]), initial=0.0)))
    polish["active_bounds"] = [
        {"index": int(i), "side": ("lower", "upper")[j], "value": float(box[i, j])}
        for i, j in zip(*np.nonzero(on_face))
    ]
    return BilevelSolution(lower=lower, start_records=(coarse, polish))


def sweep_period(model, variant, mbc, T_grid, N):
    """Evaluate the upper objective on a period grid (no refinement).

    Returns one row per grid point with the lower-level diagnostics of
    ``lower_level.sweep_lower``: the points that reduce are solved in
    blocks, and each row equals the point's own ``solve_lower``. A point whose
    reduction raises, or whose QP ``solve_kkt`` rejects, carries NaNs, so a
    sweep never dies on an isolated degenerate period.
    """
    if mbc.reduction is None or mbc.p_dim != 1:
        raise ConfigError("period sweeps need a one-dimensional reduction")
    T_grid = np.asarray(T_grid, dtype=float)
    problems, reduced = [], []
    for i, T in enumerate(T_grid):
        try:
            problems.append(_reduce(model, variant, mbc, np.asarray([T]), N))
        except KoopbilevelError:
            continue
        reduced.append(i)
    values = np.full((T_grid.size, 3), np.nan)
    values[reduced] = sweep_lower(problems)
    return [{"T": float(T), **dict(zip(
        ("c_star", "kkt_residual", "manifold_defect_max"), row.tolist()))}
        for T, row in zip(T_grid, values)]


# ---------------------------------------------------------------------------
# constraint presets
# ---------------------------------------------------------------------------


def make_periodic_amplitude_anchor(amplitude):
    """Periodic orbit at a prescribed amplitude, anchored at zero velocity.

    Rows: x(T) - x(0) = 0 (periodicity), x1(0) = amplitude, x2(0) = 0. The
    constraints fix both boundaries explicitly, so the solution manifold is
    parametrized by the period alone.
    """
    a = float(amplitude)
    anchor = np.array([a, 0.0])

    def b(x0, xT, T):
        return np.concatenate([xT - x0, x0 - anchor], axis=-1)

    def reduction(p):
        T = np.asarray(p)[..., 0][()]  # a scalar for one point
        if (T.real <= 0).any():
            raise LowerLevelError(f"period must be positive, got T={np.min(T.real):.3g}")
        return anchor.copy(), anchor.copy(), T

    return MixedBoundaryConstraint(
        eval=b,
        n_g=4,
        n_x=2,
        name=f"periodic_amplitude_anchor(a={a:g})",
        reduction=reduction,
    )


def make_walker_gait(system, v_avg, rate_bound):
    """Symmetric single-step gait at a prescribed average forward speed.

    Rows: x(0) - flip(jump(x(T))) = 0 (periodicity across the impact and
    relabel), step_length(x(T))/T - v_avg = 0 (operating speed), and
    th_st(T) + th_sw(T) = 0 (anchor: symmetric touchdown configuration).
    The reduction parametrizes the manifold by p = (T, terminal leg rates):
    the touchdown angles follow from the speed constraint. ``rate_bound``
    bounds both rates, ``p_bounds`` = [-rate_bound, rate_bound]^2: typically
    the rates the surrogate was identified on, so the search cannot wander
    into extrapolation.
    """
    if system.hybrid is None:
        raise ConfigError("walker gait constraint needs a hybrid system")
    if rate_bound is None or not rate_bound > 0:
        raise ConfigError(f"rate_bound must be > 0, got {rate_bound}")
    extras = system.hybrid
    ell = system.params["leg_length"]
    v_avg = float(v_avg)
    rb = float(rate_bound)

    def reset(xT):
        return extras.flip_map(extras.jump_map(xT))

    def b(x0, xT, T):
        return np.concatenate([
            x0 - reset(xT),
            (step_length(system, xT) / T - v_avg)[..., None],
            (xT[..., 0] + xT[..., 1])[..., None],
        ], axis=-1)

    def reduction(p):
        p = np.asarray(p)
        T = p[..., 0][()]  # a scalar for one point
        if (T.real <= 0).any():
            raise LowerLevelError(f"period must be positive, got T={np.min(T.real):.3g}")
        arg = v_avg * T / (2.0 * ell)
        if not (abs(arg.real) < 1.0).all():
            outside = np.ravel(arg.real)[~(abs(np.ravel(arg.real)) < 1.0)]
            raise LowerLevelError(
                f"step geometry infeasible: v_avg*T/(2l) = {outside[0]:.3g}"
            )
        alpha = np.arcsin(arg)
        xT = np.empty(p.shape[:-1] + (4,), dtype=np.result_type(alpha, p))
        xT[..., 0] = -alpha
        xT[..., 1] = alpha
        xT[..., 2:] = p[..., 1:3]
        return reset(xT), xT, T

    return MixedBoundaryConstraint(
        eval=b,
        n_g=6,
        n_x=4,
        name=f"walker_gait(v_avg={v_avg:g})",
        reduction=reduction,
        p_bounds=((-rb, rb), (-rb, rb)),
    )
