import dataclasses
import tracemalloc

import numpy as np
import pytest

from koopbilevel import (
    BoundaryVariant,
    ConfigError,
    DegenerateQpError,
    LowerLevelProblem,
    MixedBoundaryConstraint,
    UpperConfig,
    get_dictionary,
    make_periodic_amplitude_anchor,
    make_walker_gait,
    solve_lower,
    solve_reduced,
    sweep_period,
)
from koopbilevel import lower_level, upper_level
from koopbilevel.errors import LowerLevelError, NoSolutionError, NumericError
from koopbilevel.numerics import complex_step

TWO_PI = 2.0 * np.pi
A_30 = np.deg2rad(30.0)

# continuous-limit minimum-energy optimum computed from the controllability
# Gramian of the benchmark oscillator (independent oracle, frozen)
ORACLE_T_STAR = 1.00503788 * TWO_PI
ORACLE_COST = 0.03351846


@pytest.fixture(scope="module")
def osc_config():
    return UpperConfig(T_min=0.7 * TWO_PI, T_max=5.0 * TWO_PI)


@pytest.fixture(scope="module")
def osc_solution(oscillator_model, osc_config):
    mbc = make_periodic_amplitude_anchor(A_30)
    return solve_reduced(
        oscillator_model, BoundaryVariant("b0"), mbc, osc_config, 101
    )


def _anchor_at_amplitude(p):
    # broadcasts over leading axes of p, as reduction_jacobian asks
    p = np.asarray(p)
    anchor = np.stack([p[..., 1], np.zeros_like(p[..., 1])], axis=-1)
    return anchor, anchor.copy(), p[..., 0]


# p = (T, amplitude): a constraint given only as eval and reduction
FREE_AMPLITUDE = MixedBoundaryConstraint(
    eval=lambda x0, xT, T: np.concatenate([xT - x0, [x0[1]]]),
    n_g=3, n_x=2, reduction=_anchor_at_amplitude, p_bounds=((0.4, 0.6),),
)


@pytest.fixture(scope="module")
def free_amplitude_solution(oscillator_model):
    cfg = UpperConfig(T_min=0.9 * TWO_PI, T_max=1.1 * TWO_PI)
    return solve_reduced(oscillator_model, BoundaryVariant("b0"), FREE_AMPLITUDE,
                         cfg, 101)


# p = (T,) -> both boundaries at the origin, whatever the sign of T
AT_REST = MixedBoundaryConstraint(
    eval=lambda x0, xT, T: np.concatenate([x0, xT]), n_g=4, n_x=2,
    reduction=lambda p: (np.zeros(2), np.zeros(2), float(p[0])),
)


class TestUpperObjective:
    def test_equilibrium_costs_nothing(self, oscillator_model):
        for kind in ("b0", "bT"):
            c, sol, err = upper_level._lower_eval(
                oscillator_model, BoundaryVariant(kind), AT_REST, [TWO_PI], 50)
            assert c <= 1e-18
            assert sol.c == c and err is None

    def test_failure_maps_to_infinite_cost(self, oscillator_model):
        # the lower problem rejects T = -1; the reduction rejects nothing
        c, sol, err = upper_level._lower_eval(
            oscillator_model, BoundaryVariant("b0"), AT_REST, [-1.0], 50)
        assert np.isinf(c)
        assert sol is None and "period must be positive" in str(err)

    def test_failures_keep_their_type(self, model_from_matrices):
        # a surrogate with no input authority has a singular KKT matrix; the
        # anchor's reduction rejects a negative period
        L0 = np.zeros((3, 3))
        model = model_from_matrices(L0, (L0,), get_dictionary("linear_const", 2))
        anchor = make_periodic_amplitude_anchor(A_30)
        _, sol, err = upper_level._lower_eval(model, BoundaryVariant("b0"), anchor,
                                              [TWO_PI], 50)
        assert sol is None and type(err) is DegenerateQpError
        assert err.min_pivot == 0.0
        _, sol, err = upper_level._lower_eval(model, BoundaryVariant("b0"), anchor,
                                              [-1.0], 50)
        assert sol is None and type(err) is LowerLevelError


class TestSolveReduced:
    def test_finds_global_basin(self, osc_solution):
        assert osc_solution.lower.problem.T == pytest.approx(ORACLE_T_STAR, rel=2e-3)
        assert osc_solution.lower.c == pytest.approx(ORACLE_COST, rel=5e-3)
        p = osc_solution.lower.problem
        mbc = make_periodic_amplitude_anchor(A_30)
        assert np.linalg.norm(mbc.residual(p.x0, p.xT, p.T)) <= 1e-12

    def test_second_basin_costs_about_twice_the_optimum(self, osc_solution,
                                                         oscillator_model):
        # the next basin, one period up, is a worse local minimum
        mbc = make_periodic_amplitude_anchor(A_30)
        grid = np.linspace(1.8 * TWO_PI, 2.2 * TWO_PI, 21)
        costs = [r["c_star"] for r in sweep_period(
            oscillator_model, BoundaryVariant("b0"), mbc, grid, 101)]
        i = int(np.argmin(costs))
        assert 0 < i < len(grid) - 1
        assert costs[i] == pytest.approx(2 * 0.0306649, rel=2e-2)
        assert costs[i] > 1.5 * osc_solution.lower.c

    def test_multistart_dominance(self, osc_solution):
        # the two stages are the starts: DIRECT's point seeds the polish,
        # and the solution is no worse than either
        coarse, polish = osc_solution.start_records
        assert (coarse["stage"], polish["stage"]) == ("direct", "polish")
        assert polish["c_star"] <= coarse["c_star"]
        assert osc_solution.lower.c == polish["c_star"]
        assert osc_solution.lower.c <= min(
            r["c_star"] for r in osc_solution.start_records)
        assert osc_solution.eval_count == coarse["nfev"] + polish["nfev"]

    def test_resolved_search_finds_the_budgeted_optimum(
            self, osc_solution, oscillator_model, osc_config, monkeypatch):
        # DIRECT stops once its best box is resolved, well inside its cap;
        # at scipy's default len_tol it runs to the cap, and the polish
        # lands on the same optimum
        coarse, _ = osc_solution.start_records
        assert coarse["nfev"] < upper_level._DIRECT_MAXFUN
        assert "len_tol" in coarse["message"]
        assert isinstance(coarse["nit"], int) and coarse["nit"] >= 1
        monkeypatch.setattr(upper_level, "_DIRECT_LEN_TOL", 1e-6)
        budgeted = solve_reduced(oscillator_model, BoundaryVariant("b0"),
                                 make_periodic_amplitude_anchor(A_30),
                                 osc_config, 101)
        assert "maxfun" in budgeted.start_records[0]["message"]
        assert osc_solution.lower.problem.T == pytest.approx(
            budgeted.lower.problem.T, rel=1e-7)
        assert osc_solution.lower.c == pytest.approx(budgeted.lower.c, rel=1e-12)

    def test_seed_costs_are_the_objective_at_the_seeds(self, osc_solution,
                                                       oscillator_model):
        # each stage's recorded cost is the objective at its point, and
        # DIRECT's point is the seed of the polish
        mbc = make_periodic_amplitude_anchor(A_30)
        for rec in osc_solution.start_records:
            cost, _, _ = upper_level._lower_eval(
                oscillator_model, BoundaryVariant("b0"), mbc,
                np.asarray(rec["p_star"]), 101,
            )
            assert rec["c_star"] == cost

    def test_every_evaluation_stays_in_the_period_bracket(
            self, oscillator_model, monkeypatch):
        calls = []
        original = upper_level.solve_lower

        def recording(problem):
            calls.append(problem.T)
            return original(problem)

        monkeypatch.setattr(upper_level, "solve_lower", recording)
        mbc = make_periodic_amplitude_anchor(A_30)
        cfg = UpperConfig(T_min=TWO_PI, T_max=TWO_PI + 0.1)
        sol = solve_reduced(oscillator_model, BoundaryVariant("b0"), mbc, cfg, 101)
        assert calls
        assert all(cfg.T_min <= T <= cfg.T_max for T in calls)
        # one solve per objective call, and none after the search: the
        # solution is the cheapest point's, kept from its solve
        assert len(calls) == sol.eval_count
        assert sol.lower.problem.T in calls
        assert not any(r["failures"] for r in sol.start_records)

    def test_cost_reproducible_from_lower_level(self, osc_solution,
                                                oscillator_model):
        p = osc_solution.lower.problem
        lower = solve_lower(LowerLevelProblem(
            model=oscillator_model, variant=BoundaryVariant("b0"),
            x0=p.x0, xT=p.xT, T=p.T, N=101,
        ))
        assert abs(lower.c - osc_solution.lower.c) <= 1e-10

    def test_single_start_at_optimum_stays_put(self, oscillator_model):
        mbc = make_periodic_amplitude_anchor(A_30)
        cfg = UpperConfig(T_min=ORACLE_T_STAR, T_max=ORACLE_T_STAR + 1e-9)
        sol = solve_reduced(oscillator_model, BoundaryVariant("b0"), mbc, cfg, 101)
        assert abs(sol.lower.problem.T - ORACLE_T_STAR) <= 1e-4

    def test_deterministic(self, oscillator_model, osc_config, osc_solution):
        mbc = make_periodic_amplitude_anchor(A_30)
        again = solve_reduced(
            oscillator_model, BoundaryVariant("b0"), mbc, osc_config, 101
        )
        assert again.lower.problem.T == osc_solution.lower.problem.T
        assert again.lower.c == osc_solution.lower.c

    def test_requires_reduction(self, oscillator_model, osc_config):
        mbc = MixedBoundaryConstraint(
            eval=lambda x0, xT, T: xT - x0, n_g=2, n_x=2
        )
        with pytest.raises(ConfigError):
            solve_reduced(oscillator_model, BoundaryVariant("b0"), mbc,
                          osc_config, 20)

    def test_custom_reduction_needs_no_jacobian(self, oscillator_model,
                                                free_amplitude_solution):
        # the polish's gradient is the complex step of FREE_AMPLITUDE's
        # reduction
        mbc, sol = FREE_AMPLITUDE, free_amplitude_solution
        _, polish = sol.start_records
        # the cost grows with the amplitude, so the polish ends on its floor
        assert {"index": 1, "side": "lower", "value": 0.4} in polish["active_bounds"]
        p = sol.lower.problem
        assert np.linalg.norm(mbc.residual(p.x0, p.xT, p.T)) <= 1e-12

        def cost(q):
            return upper_level._lower_eval(
                oscillator_model, BoundaryVariant("b0"), mbc, q, 101)[0]

        for p in (np.asarray(polish["p_star"]), np.array([6.0, 0.5])):
            _, lower, _ = upper_level._lower_eval(
                oscillator_model, BoundaryVariant("b0"), mbc, p, 101)
            got = lower.cost_gradient(mbc.reduction_jacobian(p))
            step = 1e-6
            want = np.array([(cost(p + e) - cost(p - e)) / (2 * step)
                             for e in step * np.eye(2)])
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_solution_is_the_point_the_polish_records(self, osc_solution,
                                                      free_amplitude_solution):
        # on an interior optimum and on one with an active face
        for sol, mbc in ((osc_solution, make_periodic_amplitude_anchor(A_30)),
                         (free_amplitude_solution, FREE_AMPLITUDE)):
            _, polish = sol.start_records
            x0, xT, T = mbc.reduction(np.asarray(polish["p_star"]))
            p = sol.lower.problem
            assert np.array_equal(x0, p.x0) and np.array_equal(xT, p.xT)
            assert T == p.T
            assert polish["c_star"] == sol.lower.c

    def test_polish_without_a_finite_point_raises(self, oscillator_model,
                                                  monkeypatch):
        # a polish that asks only for a negative period, which the
        # reduction rejects
        monkeypatch.setattr(upper_level, "minimize", lambda f, x0, **kw: f(-x0))
        cfg = UpperConfig(T_min=TWO_PI, T_max=TWO_PI + 0.1)
        with pytest.raises(NoSolutionError, match="polish .* 1 evaluations"):
            solve_reduced(oscillator_model, BoundaryVariant("b0"),
                          make_periodic_amplitude_anchor(A_30), cfg, 101)

    def test_reduction_that_drops_the_imaginary_part_raises(self):
        base = make_periodic_amplitude_anchor(A_30)
        mbc = MixedBoundaryConstraint(
            eval=base.eval, n_g=4, n_x=2,
            reduction=lambda p: (*base.reduction(p)[:2],
                                 np.asarray(p)[..., 0].astype(float)),
        )
        with pytest.raises(NumericError, match="imaginary part"):
            mbc.reduction_jacobian([TWO_PI])

    def test_polish_objective_is_only_called_for_value_and_gradient(
            self, oscillator_model, monkeypatch):
        seen = []
        original = upper_level.minimize

        def recording(f, x0, **kwargs):
            seen.append(kwargs)

            def g(p):
                value, grad = f(p)
                assert np.isfinite(value) and grad.shape == np.shape(p)
                return value, grad

            return original(g, x0, **kwargs)

        monkeypatch.setattr(upper_level, "minimize", recording)
        cfg = UpperConfig(T_min=TWO_PI, T_max=TWO_PI + 0.1)
        solve_reduced(oscillator_model, BoundaryVariant("b0"),
                      make_periodic_amplitude_anchor(A_30), cfg, 101)
        assert len(seen) == 1
        assert seen[0]["jac"] is True and seen[0]["method"] == "L-BFGS-B"

    def test_polish_record_reports_its_stationarity(self, osc_solution,
                                                    oscillator_model):
        # projected_grad_norm is the exact gradient at the polish's point,
        # recomputed from one lower solve there
        mbc = make_periodic_amplitude_anchor(A_30)
        _, polish = osc_solution.start_records
        p = np.asarray(polish["p_star"])
        _, sol, _ = upper_level._lower_eval(
            oscillator_model, BoundaryVariant("b0"), mbc, p, 101)
        grad = sol.cost_gradient(mbc.reduction_jacobian(p))
        assert polish["active_bounds"] == []
        assert polish["projected_grad_norm"] == np.max(np.abs(grad))
        assert polish["projected_grad_norm"] <= 1e-6
        assert isinstance(polish["nit"], int) and polish["nit"] >= 1

    def test_stage_records_count_failures_by_type(self, oscillator_model):
        base = make_periodic_amplitude_anchor(A_30)

        def guarded_reduction(p):
            if p[0] > TWO_PI + 0.07:
                raise LowerLevelError("outside the trusted horizon")
            return base.reduction(p)

        mbc = MixedBoundaryConstraint(
            eval=base.eval, n_g=4, n_x=2, reduction=guarded_reduction,
        )
        cfg = UpperConfig(T_min=TWO_PI, T_max=TWO_PI + 0.1)
        sol = solve_reduced(oscillator_model, BoundaryVariant("b0"), mbc, cfg, 101)
        coarse, polish = sol.start_records
        assert coarse["failures"]["LowerLevelError"] > 0
        for rec in sol.start_records:
            assert sum(rec["failures"].values()) <= rec["nfev"]
            assert set(rec["failures"]) <= {"LowerLevelError"}

    @pytest.mark.parametrize("rate_bound", [None, 0.0])
    def test_search_box_must_be_finite_and_nonempty(self, walker, rate_bound):
        # the rate rows of the box come from rate_bound, which has no default
        with pytest.raises(ConfigError):
            make_walker_gait(walker, 0.05, rate_bound=rate_bound)

    def test_walker_box_is_the_bracket_then_the_rate_rows(
            self, oscillator_model, walker, monkeypatch):
        boxes = []

        class Searched(Exception):
            pass

        def stop(f, bounds, **kwargs):
            boxes.append(np.column_stack([bounds.lb, bounds.ub]))
            raise Searched

        monkeypatch.setattr(upper_level, "direct", stop)
        cfg = UpperConfig(T_min=1.7, T_max=2.9)
        mbc = make_walker_gait(walker, 0.05, rate_bound=0.15)
        with pytest.raises(Searched):
            solve_reduced(oscillator_model, BoundaryVariant("b0"), mbc, cfg, 20)
        assert mbc.p_dim == 3
        np.testing.assert_array_equal(
            boxes[0], [[1.7, 2.9], [-0.15, 0.15], [-0.15, 0.15]])


class TestSweep:
    def test_single_point_grid(self, oscillator_model):
        mbc = make_periodic_amplitude_anchor(A_30)
        rows = sweep_period(
            oscillator_model, BoundaryVariant("b0"), mbc, [TWO_PI], 101
        )
        assert len(rows) == 1
        assert rows[0]["c_star"] > 0
        assert rows[0]["kkt_residual"] <= 1e-9 * 10

    def test_failed_points_are_nan(self, oscillator_model):
        base = make_periodic_amplitude_anchor(A_30)

        def guarded_reduction(p):
            if p[0] > 10.0:
                raise LowerLevelError("outside the trusted horizon")
            return base.reduction(p)

        mbc = MixedBoundaryConstraint(
            eval=base.eval, n_g=4, n_x=2, reduction=guarded_reduction,
        )
        rows = sweep_period(
            oscillator_model, BoundaryVariant("b0"), mbc, [6.0, 11.0], 60
        )
        assert np.isfinite(rows[0]["c_star"])
        assert np.isnan(rows[1]["c_star"])

    @pytest.mark.parametrize("kind,w", [("b0", 0.0), ("bT", 0.0), ("soft", 0.5)])
    def test_rows_equal_the_single_solves(self, pendulum_model, kind, w):
        # the grid is solved in blocks of lower_level._SWEEP_BLOCK; each row
        # is what the grid period's own solve_lower gives
        variant = BoundaryVariant(kind, w=w)
        mbc = make_periodic_amplitude_anchor(np.deg2rad(40.0))
        grid = np.linspace(1.5 * np.pi, 3.0 * np.pi, 9)
        rows = sweep_period(pendulum_model, variant, mbc, grid, 60)
        assert [row["T"] for row in rows] == grid.tolist()
        for T, row in zip(grid, rows):
            _, sol, _ = upper_level._lower_eval(pendulum_model, variant, mbc, [T], 60)
            single = {
                "c_star": sol.c,
                "kkt_residual": max(sol.kkt.stationarity_residual,
                                    sol.kkt.feasibility_residual),
                "manifold_defect_max": float(np.max(sol.manifold_defects)),
            }
            for key, value in single.items():
                assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0), (T, key)

    @pytest.mark.parametrize("kind,w", [("b0", 0.0), ("bT", 0.0), ("soft", 0.5)])
    def test_rows_equal_the_single_solves_across_block_edges(
            self, pendulum_model, monkeypatch, kind, w):
        # blocks of 4 over 2 * 4 + 5 periods, whose reductions fail at grid
        # indices 3 and 4, either side of the grid's first block edge: the 11
        # points that reduce are solved in blocks of 4, 4 and 3, and each row
        # is bitwise what the period's own solve_lower gives
        monkeypatch.setattr(lower_level, "_SWEEP_BLOCK", 4)
        variant = BoundaryVariant(kind, w=w)
        base = make_periodic_amplitude_anchor(np.deg2rad(40.0))
        grid = np.linspace(1.5 * np.pi, 3.0 * np.pi, 2 * 4 + 5)

        def reduction(p):
            if p[0] in grid[3:5]:
                raise LowerLevelError("outside the trusted horizon")
            return base.reduction(p)

        mbc = MixedBoundaryConstraint(eval=base.eval, n_g=4, n_x=2, reduction=reduction)
        rows = sweep_period(pendulum_model, variant, mbc, grid, 60)
        assert [row["T"] for row in rows] == grid.tolist()
        for i, (T, row) in enumerate(zip(grid, rows)):
            _, sol, err = upper_level._lower_eval(pendulum_model, variant, mbc, [T], 60)
            values = (row["c_star"], row["kkt_residual"], row["manifold_defect_max"])
            if i in (3, 4):
                assert type(err) is LowerLevelError
                assert all(np.isnan(values)), row
                continue
            assert values == (sol.c, max(sol.kkt.stationarity_residual,
                                         sol.kkt.feasibility_residual),
                              float(np.max(sol.manifold_defects))), T

    def test_sweep_holds_one_block_at_a_time(self, oscillator_model):
        # fig1's grid, N and variant: the peak traced allocation of a sweep
        # of four blocks stays near that of one block
        mbc = make_periodic_amplitude_anchor(A_30)
        variant, block = BoundaryVariant("b0"), lower_level._SWEEP_BLOCK
        peaks = []
        for points in (block, 4 * block):
            grid = np.linspace(0.7 * TWO_PI, 5.0 * TWO_PI, points)
            sweep_period(oscillator_model, variant, mbc, grid, 101)  # warm caches
            tracemalloc.start()
            try:
                sweep_period(oscillator_model, variant, mbc, grid, 101)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_a_grid_that_never_reduces_is_one_empty_batch(
            self, oscillator_model, monkeypatch):
        batches = []

        def recording(problems):
            batches.append(list(problems))
            return lower_level.sweep_lower(problems)

        def reduction(p):
            raise LowerLevelError("outside the trusted horizon")

        monkeypatch.setattr(upper_level, "sweep_lower", recording)
        mbc = MixedBoundaryConstraint(eval=None, n_g=4, n_x=2, reduction=reduction)
        rows = sweep_period(oscillator_model, BoundaryVariant("b0"), mbc, [6.0, 7.0], 30)
        assert batches == [[]]
        assert [row["T"] for row in rows] == [6.0, 7.0]
        assert all(np.isnan(row[key]) for row in rows
                   for key in ("c_star", "kkt_residual", "manifold_defect_max"))

    def test_failed_points_mid_grid_leave_their_neighbours(self, model_from_matrices):
        # input authority (0, x1, 0) vanishes at x1 = 0: the middle period
        # reduces to x0 = xT = 0, whose QP has a zero pivot, and the period
        # after it fails in its reduction
        L0 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        L1 = L0.copy()
        L1[1, 0] += 1.0
        model = model_from_matrices(L0, (L1,), get_dictionary("linear_const", 2))
        grid = np.linspace(5.0, 7.0, 5)

        def reduction(p):
            if p[0] == grid[3]:
                raise LowerLevelError("outside the trusted horizon")
            anchor = np.array([0.2 * (p[0] - 6.0), 0.0])
            return anchor, anchor.copy(), p[0]

        mbc = MixedBoundaryConstraint(eval=None, n_g=4, n_x=2, reduction=reduction)
        variant = BoundaryVariant("b0")
        rows = sweep_period(model, variant, mbc, grid, 30)
        _, _, err = upper_level._lower_eval(model, variant, mbc, [grid[2]], 30)
        assert type(err) is DegenerateQpError and err.min_pivot == 0.0
        for i in (2, 3):
            assert all(np.isnan(rows[i][key]) for key in
                       ("c_star", "kkt_residual", "manifold_defect_max")), rows[i]
        # the other rows are those of a sweep without the failed points
        alone = sweep_period(model, variant, mbc, grid[[0, 1, 4]], 30)
        assert [rows[i] for i in (0, 1, 4)] == alone
        assert all(row["c_star"] > 0.0 for row in alone)

    def test_needs_one_dimensional_reduction(self, oscillator_model, walker):
        mbc = make_walker_gait(walker, 0.05, rate_bound=0.15)
        with pytest.raises(ConfigError):
            sweep_period(oscillator_model, BoundaryVariant("b0"), mbc,
                         [2.0], 20)


def stacked_reduction(mbc, p):
    """(x0, xT, T) of the points p, side by side on the last axis."""
    x0, xT, T = mbc.reduction(p)
    lead = np.shape(T) + (mbc.n_x,)
    return np.concatenate([np.broadcast_to(x0, lead), np.broadcast_to(xT, lead),
                           np.asarray(T)[..., None]], axis=-1)


def preset_constraint(preset, walker):
    return (make_periodic_amplitude_anchor(A_30) if preset == "anchor"
            else make_walker_gait(walker, 0.05, rate_bound=0.15))


@pytest.mark.parametrize("preset,points", [
    ("anchor", [[6.3], [9.1]]),
    ("walker", [[2.06, -0.09, -0.14], [2.5, 0.1, -0.05], [1.8, 0.0, 0.15]]),
])
def test_reduction_jacobians_match_central_differences(walker, preset, points):
    mbc = preset_constraint(preset, walker)
    step = 1e-6
    for p in np.asarray(points):
        fd = np.column_stack([
            (stacked_reduction(mbc, p + e) - stacked_reduction(mbc, p - e))
            / (2 * step) for e in step * np.eye(p.size)
        ])
        got = mbc.reduction_jacobian(p)
        assert got.shape == (2 * mbc.n_x + 1, mbc.p_dim)
        assert np.max(np.abs(got - fd)) <= 1e-8


@pytest.mark.parametrize("preset", ["anchor", "walker"])
def test_batched_boundary_rows_equal_per_row_calls(walker, preset):
    mbc = preset_constraint(preset, walker)
    rng = np.random.default_rng(33)
    X0, XT = rng.uniform(-0.3, 0.3, size=(2, 3, 5, mbc.n_x))
    T = rng.uniform(1.5, 2.5, size=(3, 5))
    rows = mbc.residual(X0, XT, T)
    assert rows.shape == (3, 5, mbc.n_g)
    assert np.array_equal(rows, np.reshape(
        [mbc.residual(a, b, t) for a, b, t in
         zip(X0.reshape(-1, mbc.n_x), XT.reshape(-1, mbc.n_x), T.ravel())],
        rows.shape))


@pytest.mark.parametrize("preset,p", [
    ("anchor", [6.3]),
    ("walker", [2.06, -0.09, -0.14]),
])
def test_batched_reduction_equals_per_point_calls(walker, preset, p):
    # real points, and complex ones as reduction_jacobian passes them
    mbc = preset_constraint(preset, walker)
    rng = np.random.default_rng(34)
    P = np.asarray(p) * (1.0 + 0.05 * rng.normal(size=(6, len(p))))
    for batch in (P, P + 1j * 2.0**-100 * rng.normal(size=P.shape)):
        stacked = stacked_reduction(mbc, batch)
        assert np.array_equal(stacked, [stacked_reduction(mbc, q) for q in batch])


@pytest.mark.parametrize("preset,p", [
    ("anchor", [6.3]),
    ("walker", [2.06, -0.09, -0.14]),
])
def test_reduction_jacobian_is_one_reduction_call(walker, preset, p):
    # every entry's complex step from one call on the stacked directions,
    # bitwise the steps taken one entry at a time
    base = preset_constraint(preset, walker)
    calls = []

    def counted(q):
        calls.append(np.shape(q))
        return base.reduction(q)

    mbc = dataclasses.replace(base, reduction=counted)
    p = np.asarray(p)
    J = mbc.reduction_jacobian(p)
    assert calls == [(p.size, p.size)]
    one_by_one = np.column_stack([
        complex_step(lambda q: stacked_reduction(base, q), p, e) for e in np.eye(p.size)])
    assert np.array_equal(J, one_by_one)


class TestWalkerConstraint:
    def test_reduction_parametrizes_constraint_manifold(self, walker):
        mbc = make_walker_gait(walker, 0.05, rate_bound=0.15)
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = np.array([
                rng.uniform(1.5, 3.0),
                rng.uniform(-0.3, 0.0),
                rng.uniform(-0.4, 0.0),
            ])
            x0, xT, T = mbc.reduction(p)
            assert np.linalg.norm(mbc.eval(x0, xT, T)) <= 1e-10

    def test_infeasible_step_geometry_rejected(self, walker):
        mbc = make_walker_gait(walker, 0.9, rate_bound=0.15)  # needs sin(alpha) > 1 at T ~ 3
        with pytest.raises(LowerLevelError):
            mbc.reduction(np.array([3.0, -0.1, -0.1]))

    def test_trust_region_bounds_expose_limits(self, walker):
        mbc = make_walker_gait(walker, 0.05, rate_bound=0.15)
        assert mbc.p_bounds == ((-0.15, 0.15), (-0.15, 0.15))
