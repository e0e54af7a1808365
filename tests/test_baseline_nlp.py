import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from koopbilevel import (
    BoundaryVariant,
    BuildError,
    MixedBoundaryConstraint,
    TranscribedNlp,
    UpperConfig,
    check_trajectory,
    make_periodic_amplitude_anchor,
    make_walker_gait,
    solve_lower,
    solve_nlp,
    solve_reduced,
)
from koopbilevel import baseline_nlp
from koopbilevel.lower_level import LowerLevelProblem
from koopbilevel.systems import rk4_step

TWO_PI = 2.0 * np.pi
A_40 = np.deg2rad(40.0)


def jacobian_oracle(nlp, v):
    """Constraint Jacobian with one central RK4 difference per state, input
    and period direction, each batched over the knots only."""
    X, U, T = nlp.unpack(v)
    N, n_x, n_u = nlp.N, nlp.n_x, nlp.n_u
    h, eps = T / N, baseline_nlp._FD_STEP
    epsT = eps * max(1.0, abs(T))
    J = np.zeros((nlp.n_con, nlp.n_var))
    rows = np.arange(N * n_x)
    J[rows, rows + n_x] = 1.0
    rows = rows.reshape(N, n_x)
    for d in range(n_x):
        Xp, Xm = X[:N].copy(), X[:N].copy()
        Xp[:, d] += eps
        Xm[:, d] -= eps
        dS = (rk4_step(nlp.system, Xp, U, h)
              - rk4_step(nlp.system, Xm, U, h)) / (2.0 * eps)
        J[rows, (np.arange(N) * n_x + d)[:, None]] = -dS
    for d in range(n_u):
        Up, Um = U.copy(), U.copy()
        Up[:, d] += eps
        Um[:, d] -= eps
        dS = (rk4_step(nlp.system, X[:N], Up, h)
              - rk4_step(nlp.system, X[:N], Um, h)) / (2.0 * eps)
        J[rows, (nlp.n_states + np.arange(N) * n_u + d)[:, None]] = -dS
    dS = (rk4_step(nlp.system, X[:N], U, (T + epsT) / N)
          - rk4_step(nlp.system, X[:N], U, (T - epsT) / N)) / (2.0 * epsT)
    J[: nlp.n_defects, -1] = -dS.ravel()
    fill_boundary_rows(J, nlp, X[0], X[N], T)
    return J


def fill_boundary_rows(J, nlp, x0, xN, T):
    """Boundary rows of the Jacobian, one central difference per column."""
    n_x, S = nlp.n_x, nlp.n_segments
    eps = baseline_nlp._FD_STEP
    epsT = eps * max(1.0, abs(T))
    mbc_of = nlp.mbc.residual
    for d in range(n_x):
        e = np.zeros(n_x)
        e[d] = eps
        J[nlp.n_defects:, d] = (mbc_of(x0 + e, xN, T)
                                - mbc_of(x0 - e, xN, T)) / (2 * eps)
        J[nlp.n_defects:, S * n_x + d] = (mbc_of(x0, xN + e, T)
                                          - mbc_of(x0, xN - e, T)) / (2 * eps)
    J[nlp.n_defects:, -1] = (mbc_of(x0, xN, T + epsT)
                             - mbc_of(x0, xN, T - epsT)) / (2 * epsT)


def segment_jacobian_oracle(nlp, v):
    """Constraint Jacobian of a shooting problem one direction at a time: a
    central difference of separate + and - shoots per node-state channel,
    per input of each step of a segment, and for the period."""
    X, U, T = nlp.unpack(v)
    N, S, L, n_x, n_u = nlp.N, nlp.n_segments, nlp.segment, nlp.n_x, nlp.n_u
    h, eps = T / N, baseline_nlp._FD_STEP
    epsT = eps * max(1.0, abs(T))
    U_seg = nlp._segment_inputs(U)

    def ends(Xn, Us, step):
        return nlp._shoot(Xn, Us, step)[:, -1]

    J = np.zeros((nlp.n_con, nlp.n_var))
    rows = np.arange(S * n_x)
    J[rows, rows + n_x] = 1.0
    rows = rows.reshape(S, n_x)
    for d in range(n_x):
        Xp, Xm = X[:S].copy(), X[:S].copy()
        Xp[:, d] += eps
        Xm[:, d] -= eps
        dS = (ends(Xp, U_seg, h) - ends(Xm, U_seg, h)) / (2.0 * eps)
        J[rows, (np.arange(S) * n_x + d)[:, None]] = -dS
    for j in range(L):
        # the knot that step j of each segment leaves; none past knot N - 1
        k = np.arange(S) * L + j
        live = k < N
        for d in range(n_u):
            Up, Um = U_seg.copy(), U_seg.copy()
            Up[:, j, d] += eps
            Um[:, j, d] -= eps
            dS = (ends(X[:S], Up, h) - ends(X[:S], Um, h)) / (2.0 * eps)
            J[rows[live], (nlp.n_states + k[live] * n_u + d)[:, None]] = -dS[live]
    dS = (ends(X[:S], U_seg, (T + epsT) / N)
          - ends(X[:S], U_seg, (T - epsT) / N)) / (2.0 * epsT)
    J[: nlp.n_defects, -1] = -dS.ravel()
    fill_boundary_rows(J, nlp, X[0], X[S], T)
    return J


def random_point(nlp, rng, T):
    box = nlp.system.state_box
    X = rng.uniform(box[:, 0], box[:, 1], size=(nlp.N + 1, nlp.n_x))
    U = rng.normal(size=(nlp.N, nlp.n_u))
    return nlp.pack(X, U, T * (1.0 + 0.1 * rng.normal()))


def gait_or_anchor(name, system):
    """The walker bundle's gait constraint, or the pendulum's 40° anchor."""
    return (make_walker_gait(system, 0.05, rate_bound=0.15)
            if name == "walker" else make_periodic_amplitude_anchor(A_40))


@pytest.fixture
def rk4_calls(monkeypatch):
    """Arguments of each ``rk4_step`` call that ``baseline_nlp`` makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rk4_step(*args)

    monkeypatch.setattr(baseline_nlp, "rk4_step", counted)
    return calls


@pytest.fixture(scope="module")
def pendulum_bilevel_n40(pendulum_model):
    mbc = make_periodic_amplitude_anchor(A_40)
    cfg = UpperConfig(T_min=0.8 * TWO_PI, T_max=1.4 * TWO_PI)
    return solve_reduced(pendulum_model, BoundaryVariant("b0"), mbc, cfg,
                         40).lower.trajectory


@pytest.fixture(scope="module")
def pendulum_nlp_n40(pendulum):
    return TranscribedNlp(pendulum, make_periodic_amplitude_anchor(A_40), 40)


@pytest.fixture
def slsqp_sizes(monkeypatch):
    """Size of the decision vector each SLSQP run of ``solve_nlp`` starts from."""
    sizes = []

    def recorded(fun, x0, **kwargs):
        sizes.append(x0.size)
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(baseline_nlp, "minimize", recorded)
    return sizes


class TestTranscription:
    def test_variable_and_constraint_counts(self, pendulum):
        nlp = TranscribedNlp(pendulum, make_periodic_amplitude_anchor(A_40), 101)
        # (N+1) n_x states + N n_u inputs + the free period
        assert nlp.n_var == 102 * 2 + 101 * 1 + 1 == 306
        assert nlp.n_defects == 202
        assert nlp.n_con == 202 + 4

    def test_equilibrium_trajectory_has_zero_defects(self, pendulum):
        nlp = TranscribedNlp(pendulum, make_periodic_amplitude_anchor(0.0), 25)
        v = nlp.pack(np.zeros((26, 2)), np.zeros((25, 1)), TWO_PI)
        c = nlp.constraints(v)
        assert np.max(np.abs(c[: nlp.n_defects])) == 0.0
        assert np.max(np.abs(c[nlp.n_defects :])) == 0.0

    def test_objective_and_gradient(self, pendulum):
        nlp = TranscribedNlp(pendulum, make_periodic_amplitude_anchor(A_40), 12)
        rng = np.random.default_rng(18)
        v = rng.normal(size=nlp.n_var)
        v[-1] = 5.0
        g = nlp.objective_grad(v)
        for _ in range(5):
            d = rng.normal(size=nlp.n_var)
            h = 1e-7
            fd = (nlp.objective(v + h * d) - nlp.objective(v - h * d)) / (2 * h)
            assert fd == pytest.approx(g @ d, rel=1e-6, abs=1e-10)

    def test_constraint_jacobian_against_dense_fd(self, pendulum):
        nlp = TranscribedNlp(pendulum, make_periodic_amplitude_anchor(A_40), 6)
        rng = np.random.default_rng(19)
        v = 0.3 * rng.normal(size=nlp.n_var)
        v[-1] = 4.0
        J = nlp.constraint_jacobian(v)
        h = 1e-6
        J_fd = np.zeros_like(J)
        for j in range(nlp.n_var):
            e = np.zeros(nlp.n_var)
            e[j] = h
            J_fd[:, j] = (nlp.constraints(v + e) - nlp.constraints(v - e)) / (2 * h)
        assert np.max(np.abs(J - J_fd)) <= 1e-7

    @pytest.mark.parametrize("name,N,T", [("pendulum", 12, 5.0),
                                          ("walker", 8, 2.2)])
    def test_constraint_jacobian_is_two_sweeps_equal_to_per_direction_oracle(
        self, request, rk4_calls, name, N, T
    ):
        system = request.getfixturevalue(name)
        nlp = TranscribedNlp(system, gait_or_anchor(name, system), N)
        rng = np.random.default_rng(24)
        for _ in range(3):
            v = random_point(nlp, rng, T)
            rk4_calls.clear()
            J = nlp.constraint_jacobian(v)
            assert len(rk4_calls) == 1
            assert np.array_equal(J, jacobian_oracle(nlp, v))

    @pytest.mark.parametrize("name,T", [("pendulum", 5.0), ("walker", 2.2)])
    def test_boundary_rows_are_differenced_in_one_constraint_call(
        self, request, name, T
    ):
        # the nominal point and each of the 2 n_x + 1 coordinates of (x0, xN,
        # T) stepped both ways, stacked on one leading axis
        system = request.getfixturevalue(name)
        base = gait_or_anchor(name, system)
        periods = []

        def counted(x0, xT, T):
            periods.append(np.shape(T))
            return base.eval(x0, xT, T)

        nlp = TranscribedNlp(system, dataclasses.replace(base, eval=counted), 8)
        v = random_point(nlp, np.random.default_rng(28), T)
        nlp.linearize(v)
        assert periods == [(2 * (2 * nlp.n_x + 1) + 1,)]

    @pytest.mark.parametrize("N,segment", [(12, 5), (3, 10), (10, 5)])
    def test_segments_step_the_every_knot_trajectory(self, pendulum,
                                                     monkeypatch, N, segment):
        nlp = baseline_nlp.TranscribedNlp(
            pendulum, make_periodic_amplitude_anchor(A_40), N, segment=segment)
        rng = np.random.default_rng(26)
        U, T = 0.3 * rng.normal(size=(N, 1)), 5.0
        X = np.empty((N + 1, 2))
        X[0] = [0.4, -0.2]
        for k in range(N):
            X[k + 1] = rk4_step(pendulum, X[k], U[k], T / N)
        stepped = []

        def counted(system, x, u, h):
            stepped.append(x.shape[0])
            return rk4_step(system, x, u, h)

        monkeypatch.setattr(baseline_nlp, "rk4_step", counted)
        v = nlp.pack(X[nlp.nodes], U, T)
        assert np.all(nlp.constraints(v)[: nlp.n_defects] == 0.0)
        # no step runs past knot N
        assert sum(stepped) == N
        assert np.array_equal(nlp.knot_states(v), X)

    @pytest.mark.parametrize("name,N,segment,T", [("pendulum", 12, 5, 5.0),
                                                  ("pendulum", 3, 10, 5.0),
                                                  ("walker", 8, 5, 2.2)])
    def test_segment_jacobian_against_dense_fd(self, request, rk4_calls,
                                               name, N, segment, T):
        # ragged grids: segments of 5, 5, 2 knots; one segment of 3 knots,
        # shorter than the segment length; segments of 5, 3 knots
        system = request.getfixturevalue(name)
        nlp = baseline_nlp.TranscribedNlp(system, gait_or_anchor(name, system),
                                          N, segment=segment)
        L = min(segment, N)
        assert nlp.nodes[-1] == N and np.all(np.diff(nlp.nodes) <= L)
        rng = np.random.default_rng(25)
        box = system.state_box
        X = rng.uniform(box[:, 0], box[:, 1], size=(len(nlp.nodes), nlp.n_x))
        v = nlp.pack(X, 0.3 * rng.normal(size=(N, nlp.n_u)), T)
        J = nlp.constraint_jacobian(v)
        assert len(rk4_calls) == L
        h = baseline_nlp._FD_STEP
        J_fd = np.zeros_like(J)
        for j in range(nlp.n_var):
            e = np.zeros(nlp.n_var)
            e[j] = h
            J_fd[:, j] = (nlp.constraints(v + e) - nlp.constraints(v - e)) / (2 * h)
        assert np.max(np.abs(J - J_fd)) <= 1e-7 * max(1.0, np.max(np.abs(J)))

    @pytest.mark.parametrize("name,N,segment,T", [("pendulum", 101, 1, 6.5),
                                                  ("walker", 51, 1, 2.1),
                                                  ("pendulum", 12, 5, 5.0),
                                                  ("pendulum", 3, 10, 5.0),
                                                  ("walker", 8, 5, 2.2)])
    def test_linearize_is_one_shoot_equal_to_constraints_and_oracle(
        self, request, rk4_calls, name, N, segment, T
    ):
        # every-knot grids of the pendulum and walker bundles, and the ragged
        # shooting grids of test_segment_jacobian_against_dense_fd
        system = request.getfixturevalue(name)
        nlp = baseline_nlp.TranscribedNlp(system, gait_or_anchor(name, system),
                                          N, segment=segment)
        oracle = jacobian_oracle if segment == 1 else segment_jacobian_oracle
        rng = np.random.default_rng(27)
        box = system.state_box
        for _ in range(3):
            X = rng.uniform(box[:, 0], box[:, 1], size=(len(nlp.nodes), nlp.n_x))
            v = nlp.pack(X, 0.3 * rng.normal(size=(N, nlp.n_u)),
                         T * (1.0 + 0.1 * rng.normal()))
            rk4_calls.clear()
            c, J = nlp.linearize(v)
            assert len(rk4_calls) == min(segment, N)
            assert np.array_equal(c, nlp.constraints(v))
            assert np.array_equal(J, oracle(nlp, v))

    def test_bilevel_warm_start_defect_is_small(self, pendulum_bilevel_n40,
                                                pendulum_nlp_n40):
        nlp = pendulum_nlp_n40
        times, X, U = pendulum_bilevel_n40
        v = nlp.pack(X, U, times[-1])
        defect = np.max(np.abs(nlp.constraints(v)[: nlp.n_defects]))
        # surrogate accuracy measured, not pinned: the warm start should be
        # close to dynamically feasible
        assert defect <= 5e-2


class TestSolveNlp:
    def test_feasible_stationary_warm_start_is_fixed_point(
        self, pendulum, pendulum_nlp_n40, pendulum_bilevel_n40
    ):
        nlp = pendulum_nlp_n40
        first = solve_nlp(nlp, pendulum_bilevel_n40)
        again = solve_nlp(nlp, (first.times, first.states, first.inputs))
        assert again.converged
        assert again.outer_iterations <= 1
        assert abs(again.cost - first.cost) <= 1e-8
        assert np.max(np.abs(again.states - first.states)) <= 1e-6

    def test_converged_solution_meets_feasibility_gates(
        self, pendulum_nlp_n40, pendulum_bilevel_n40
    ):
        nlp = pendulum_nlp_n40
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        assert sol.converged
        assert sol.max_defect <= 1e-6
        assert sol.max_mbc_violation <= 1e-6
        # converged also means stationary: grad f + J^T lam vanishes for the
        # least-squares multipliers lam at the returned point
        v = nlp.pack(sol.states, sol.inputs, sol.T)
        J = nlp.constraint_jacobian(v)
        g = nlp.objective_grad(v)
        lam, *_ = np.linalg.lstsq(J.T, -g, rcond=None)
        stationarity = np.max(np.abs(g + J.T @ lam))
        assert stationarity <= baseline_nlp._TOL_FEAS
        assert sol.kkt_residual == pytest.approx(stationarity, rel=1e-6,
                                                 abs=1e-12)

    def test_budget_cut_solve_is_never_reported_converged(
        self, pendulum_nlp_n40, pendulum_bilevel_n40, monkeypatch
    ):
        monkeypatch.setattr(baseline_nlp, "_MAXITER", 3)
        sol = solve_nlp(pendulum_nlp_n40, pendulum_bilevel_n40)
        assert not sol.converged
        assert sol.outer_iterations <= 3

    def test_local_optimality_probe(self, pendulum_nlp_n40,
                                    pendulum_bilevel_n40):
        nlp = pendulum_nlp_n40
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        v = nlp.pack(sol.states, sol.inputs, sol.T)
        J = nlp.constraint_jacobian(v)
        Q, _ = np.linalg.qr(J.T, mode="complete")
        Z = Q[:, J.shape[0]:]
        rng = np.random.default_rng(20)
        base = nlp.objective(v)
        for _ in range(20):
            d = Z @ rng.normal(size=Z.shape[1])
            d *= 1e-3 / np.linalg.norm(d)
            assert nlp.objective(v + d) >= base - 1e-8

    def test_warm_start_beats_cold_start(self, pendulum, pendulum_nlp_n40,
                                         pendulum_bilevel_n40):
        nlp = pendulum_nlp_n40
        warm = solve_nlp(nlp, pendulum_bilevel_n40)
        cold_guess = (np.linspace(0, TWO_PI, 41), np.zeros((41, 2)),
                      np.zeros((40, 1)))
        cold = solve_nlp(nlp, cold_guess)
        assert warm.inner_iterations <= cold.inner_iterations

    def test_oscillator_fixed_period_matches_qp(self, oscillator,
                                                oscillator_model, rk4_oracle):
        # with linear dynamics and pinned period the NLP is the convex QP
        T0, N = TWO_PI, 101
        a = np.deg2rad(30.0)
        anchor = np.array([a, 0.0])

        def b(x0, xT, T):
            return np.concatenate([xT - x0, x0 - anchor, (T - T0)[..., None]], axis=-1)

        mbc = MixedBoundaryConstraint(eval=b, n_g=5, n_x=2)
        nlp = TranscribedNlp(oscillator, mbc, N)
        qp_sol = solve_lower(LowerLevelProblem(
            model=oscillator_model, variant=BoundaryVariant("b0"),
            x0=anchor, xT=anchor, T=T0, N=N,
        ))
        X = rk4_oracle(oscillator, anchor, qp_sol.u_traj, T0, substeps=8)
        sol = solve_nlp(nlp, (np.linspace(0, T0, N + 1), X, qp_sol.u_traj))
        assert sol.converged
        assert abs(sol.T - T0) <= 1e-9
        assert np.max(np.abs(sol.inputs - qp_sol.u_traj)) <= 1e-6

    def test_infeasible_problem_returns_nonconverged_iterate(self, pendulum,
                                                             monkeypatch):
        def b(x0, xT, T):
            return np.stack([x0[..., 0] - 0.3, x0[..., 0] - 0.6], axis=-1)

        mbc = MixedBoundaryConstraint(eval=b, n_g=2, n_x=2)
        nlp = TranscribedNlp(pendulum, mbc, 10)
        guess = (np.linspace(0, 5.0, 11), np.zeros((11, 2)), np.zeros((10, 1)))
        monkeypatch.setattr(baseline_nlp, "_MAXITER", 180)
        sol = solve_nlp(nlp, guess)
        assert not sol.converged
        assert sol.max_mbc_violation > 1e-3

    def test_returned_states_step_exactly_inside_each_segment(
        self, pendulum_nlp_n40, pendulum_bilevel_n40
    ):
        nlp = pendulum_nlp_n40
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        c = nlp.constraints(nlp.pack(sol.states, sol.inputs, sol.T))
        d = np.abs(c[: nlp.n_defects])
        d = d.reshape(nlp.N, nlp.n_x)
        # defect k closes the interval into knot k + 1; only the interval into
        # a shooting node carries SLSQP's residual, every other knot is the
        # RK4 step of the one before
        into_node = (np.arange(1, nlp.N + 1) % baseline_nlp._SEGMENT == 0)
        into_node[-1] = True
        assert np.max(d[into_node]) <= 1e-12
        assert np.all(d[~into_node] == 0.0)
        assert sol.max_defect == np.max(d)

    @pytest.mark.parametrize("N", [40, 12])
    def test_slsqp_sees_one_state_per_segment(self, pendulum, slsqp_sizes, N):
        nlp = TranscribedNlp(pendulum, make_periodic_amplitude_anchor(A_40), N)
        guess = (np.linspace(0, TWO_PI, N + 1), np.zeros((N + 1, 2)),
                 np.full((N, 1), 0.1))
        solve_nlp(nlp, guess)
        S = -(-N // baseline_nlp._SEGMENT)
        assert slsqp_sizes == [(S + 1) * nlp.n_x + N * nlp.n_u + 1]

    def test_matches_every_knot_slsqp_oracle(self, pendulum_nlp_n40,
                                             pendulum_bilevel_n40, slsqp_sizes):
        nlp = pendulum_nlp_n40
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        assert slsqp_sizes[0] < nlp.n_var
        # SLSQP on every knot (x_0..x_N, u, T) with solve_nlp's options and box
        times, X, U = pendulum_bilevel_n40
        T0 = times[-1]
        oracle = minimize(
            nlp.objective, nlp.pack(X, U, T0),
            jac=nlp.objective_grad, method="SLSQP",
            bounds=[(None, None)] * (nlp.n_var - 1) + [(0.2 * T0, 5.0 * T0)],
            constraints={"type": "eq", "fun": nlp.constraints,
                         "jac": nlp.constraint_jacobian},
            options={"maxiter": baseline_nlp._MAXITER, "ftol": 1e-14},
        )
        assert oracle.success and sol.converged
        assert abs(sol.T - oracle.x[-1]) <= 1e-7 * oracle.x[-1]
        assert abs(sol.cost - oracle.fun) <= 1e-9 * oracle.fun


    def test_each_point_is_linearized_once(self, pendulum_nlp_n40,
                                           pendulum_bilevel_n40, monkeypatch):
        nlp = pendulum_nlp_n40
        linearized, iterates = [], []
        linearize = baseline_nlp.TranscribedNlp.linearize

        def counted(self, v):
            linearized.append((self.segment, v.tobytes()))
            return linearize(self, v)

        def recorded(fun, x0, callback, **kwargs):
            def seen(x):
                iterates.append(x.copy())
                callback(x)

            return minimize(fun, x0, callback=seen, **kwargs)

        monkeypatch.setattr(baseline_nlp.TranscribedNlp, "linearize", counted)
        monkeypatch.setattr(baseline_nlp, "minimize", recorded)
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        assert sol.converged
        # SLSQP's constraints, Jacobian and history at a point, and the
        # every-knot check at the end, share one linearization each
        assert len(set(linearized)) == len(linearized)
        assert (1, nlp.pack(sol.states, sol.inputs, sol.T).tobytes()) in linearized
        shoot = baseline_nlp.TranscribedNlp(nlp.system, nlp.mbc, nlp.N,
                                            segment=baseline_nlp._SEGMENT)
        assert len(sol.history) == len(iterates) > 0
        for entry, x in zip(sol.history, iterates):
            assert entry["feas"] == np.max(np.abs(shoot.constraints(x)))
            assert entry["cost"] == shoot.objective(x)

    @pytest.mark.parametrize("inputs,T,off_grid,match", [
        (np.zeros((39, 1)), TWO_PI, 1.0,
         r"inputs have shape \(39, 1\), expected \(40, 1\)"),
        (np.zeros((40, 1)), -1.0, 1.0, "finite and positive, got T=-1.0"),
        (np.zeros((40, 1)), np.nan, 1.0, "finite and positive, got T=nan"),
        # one interior time off the knot grid by one part in 1e12
        (np.zeros((40, 1)), TWO_PI, 1.0 + 1e-12,
         r"times are not the 41 evenly spaced knots of \[0, T=6.28"),
    ], ids=["short_inputs", "negative_T", "nan_T", "time_off_the_grid"])
    def test_malformed_warm_start_is_a_build_error(self, pendulum_nlp_n40,
                                                   inputs, T, off_grid, match):
        times = np.linspace(0, T, 41)
        times[20] *= off_grid
        with pytest.raises(BuildError, match=match):
            solve_nlp(pendulum_nlp_n40, (times, np.zeros((41, 2)), inputs))


class TestCheckTrajectory:
    def test_rebuilds_the_solution_fields_bitwise(self, pendulum_nlp_n40,
                                                  pendulum_bilevel_n40):
        nlp = pendulum_nlp_n40
        sol = solve_nlp(nlp, pendulum_bilevel_n40)
        assert sol.converged
        record = check_trajectory(nlp, (sol.times, sol.states, sol.inputs), True)
        assert record == {name: getattr(sol, name) for name in
                          ("T", "cost", "max_defect", "max_mbc_violation",
                           "kkt_residual", "converged")}

