import numpy as np
import pytest
import scipy.linalg

from koopbilevel import (
    BoundaryVariant,
    BuildError,
    ConfigError,
    DegenerateQpError,
    LowerLevelProblem,
    NumericError,
    ObservableDictionary,
    build_qp,
    choose_linearization_point,
    get_dictionary,
    identify,
    lift,
    manifold_defect,
    solve_lower,
)
from koopbilevel import cli, config, lower_level, make_walker_gait, upper_level
from koopbilevel.numerics import eigenmodes, solve_kkt

TWO_PI = 2.0 * np.pi

# published minimum-energy sweep values at the benchmark grid (the published
# curve is the half-objective 1/2 * integral u^2; our cost is the full one)
PAPER_HALF_COST = {1.01: 0.0167997737931162, 2.01: 0.0306649101931638}


def loop_condense(Ad, Bd, N):
    """Per-knot oracle: S with z_N = Ad^N z_0 + S u, and Ad^N."""
    n_z, n_u = Bd.shape
    S = np.zeros((n_z, N * n_u))
    P = np.eye(n_z)
    for j in range(N - 1, -1, -1):
        S[:, j * n_u : (j + 1) * n_u] = P @ Bd
        P = P @ Ad
    return S, P


def loop_trajectory(Ad, Bd, z0, u):
    """Per-knot oracle: z_{k+1} = Ad z_k + Bd u_k."""
    Z = [z0]
    for u_k in u:
        Z.append(Ad @ Z[-1] + Bd @ u_k)
    return np.array(Z)


def hessian(qp):
    """The dense Hessian diag(d) + G'G of a batch of one ``build_qp``."""
    return np.diag(qp.d[0]) + qp.G[0].T @ qp.G[0]


def make_problem(model, kind, x0, xT, T, N, w=0.0):
    return LowerLevelProblem(
        model=model,
        variant=BoundaryVariant(kind, w=w),
        x0=np.asarray(x0, dtype=float),
        xT=np.asarray(xT, dtype=float),
        T=T,
        N=N,
    )


class TestVariantValidation:
    def test_soft_weight_range(self):
        with pytest.raises(ConfigError):
            BoundaryVariant("soft", w=0.0)
        with pytest.raises(ConfigError):
            BoundaryVariant("soft", w=1.0)

    def test_hard_variant_weight_must_be_zero(self):
        with pytest.raises(ConfigError):
            BoundaryVariant("b0", w=0.3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            BoundaryVariant("both")


class TestLinearizationPoint:
    def test_rule_per_variant(self):
        d = get_dictionary("pendulum12", 2)
        x0 = np.array([0.7, 0.0])
        xT = np.array([0.1, -0.2])
        psi0, psiT = lift(d, x0), lift(d, xT)
        assert np.array_equal(
            choose_linearization_point(BoundaryVariant("b0"), psi0, psiT),
            lift(d, x0),
        )
        assert np.array_equal(
            choose_linearization_point(BoundaryVariant("bT"), psi0, psiT),
            lift(d, xT),
        )
        assert np.array_equal(
            choose_linearization_point(BoundaryVariant("soft", w=0.5), psi0, psiT),
            lift(d, x0),
        )

    def test_periodic_case_is_variant_independent(self):
        d = get_dictionary("pendulum12", 2)
        x = np.array([0.5, 0.0])
        pts = [
            choose_linearization_point(v, lift(d, x), lift(d, x))
            for v in (BoundaryVariant("b0"), BoundaryVariant("bT"),
                      BoundaryVariant("soft", w=0.2))
        ]
        assert np.array_equal(pts[0], pts[1])
        assert np.array_equal(pts[0], pts[2])


class TestBuildQp:
    @pytest.mark.parametrize("kind,w,rows", [
        ("b0", 0.0, 2),        # kN = n_x
        ("bT", 0.0, 12),       # kN = n_z
        ("soft", 0.5, 2),      # kN = n_x
    ])
    def test_constraint_row_counts(self, pendulum_model, kind, w, rows):
        problem = make_problem(
            pendulum_model, kind, [0.5, 0.0], [0.5, 0.0], TWO_PI, 5, w=w
        )
        qp = build_qp([problem])
        assert qp.Aeq.shape[1] == rows

    def test_decision_vector_layout(self, pendulum_model):
        qp0 = build_qp([make_problem(pendulum_model, "b0", [0.5, 0], [0.5, 0], 6.0, 7)])
        assert qp0.d.shape == (1, 7)  # inputs only, z0 eliminated
        assert qp0.G.shape == (1, 0, 7)  # a hard variant's Hessian is diagonal
        qpT = build_qp([make_problem(pendulum_model, "bT", [0.5, 0], [0.5, 0], 6.0, 7)])
        assert qpT.d.shape == (1, 17)  # n_z - n_x free z0 entries + N
        # the free z0 entries cost nothing, and the inputs 2h each
        np.testing.assert_array_equal(qpT.d[0], [0.0] * 10 + [2.0 * 6.0 / 7] * 7)

    def test_hessian_psd(self, pendulum_model):
        for kind, w in (("b0", 0.0), ("bT", 0.0), ("soft", 0.3)):
            H = hessian(build_qp(
                [make_problem(pendulum_model, kind, [0.7, 0], [0.6, 0.1], 5.0, 8, w=w)]
            ))
            eigs = np.linalg.eigvalsh(H)
            assert eigs.min() >= -1e-10 * np.linalg.norm(H)

    @pytest.mark.parametrize("kind,w", [("b0", 0.0), ("bT", 0.0), ("soft", 0.5)])
    def test_hessian_positive_definite_on_the_constraint_null_space(
            self, pendulum_model, kind, w):
        # what solve_kkt needs of H: Z'HZ, with Z an orthonormal basis of
        # null(Aeq), is positive definite over the pendulum bundle's period
        # bracket. bT's free z(0) entries cost nothing, and Aeq pins them.
        # Its smallest eigenvalue over its largest is at least 2.5e-3 here.
        x = np.array([np.deg2rad(40.0), 0.0])
        for T in np.linspace(1.5 * np.pi, 3.0 * np.pi, 5):
            qp = build_qp([make_problem(pendulum_model, kind, x, x, T, 101, w=w)])
            Z = scipy.linalg.null_space(qp.Aeq[0])
            eigs = np.linalg.eigvalsh(Z.T @ hessian(qp) @ Z)
            assert eigs[0] >= 1e-4 * eigs[-1] > 0.0, (T, eigs[0], eigs[-1])

    def test_a_batch_shares_model_variant_and_grid(self, pendulum_model):
        problems = [make_problem(pendulum_model, kind, [0.5, 0], [0.5, 0], 6.0, N)
                    for kind, N in (("b0", 7), ("bT", 7), ("b0", 8))]
        assert build_qp(problems[::2][:1] * 2).d.shape == (2, 7)
        for mixed in (problems[:2], problems[::2]):
            with pytest.raises(BuildError, match="share"):
                build_qp(mixed)

    def test_an_empty_batch_is_a_build_error(self):
        with pytest.raises(BuildError, match="empty"):
            build_qp([])

    def test_dimension_mismatch_raises(self, pendulum_model):
        with pytest.raises(Exception):
            make_problem(pendulum_model, "b0", [0.5, 0.0, 0.0], [0.5, 0], 5.0, 8)


class TestSweepLower:
    def test_no_problems_give_no_rows(self):
        rows = lower_level.sweep_lower([])
        assert rows.shape == (0, 3) and rows.dtype == float


class TestSolveLower:
    def test_zero_boundaries_give_zero_input(self, oscillator_model):
        for kind in ("b0", "bT"):
            sol = solve_lower(
                make_problem(oscillator_model, kind, [0, 0], [0, 0], TWO_PI, 40)
            )
            assert np.max(np.abs(sol.u_traj)) <= 1e-9
            assert sol.c <= 1e-18

    def test_published_sweep_values(self, oscillator_model):
        a = np.deg2rad(30.0)
        for t_periods, half_cost in PAPER_HALF_COST.items():
            sol = solve_lower(
                make_problem(
                    oscillator_model, "b0", [a, 0], [a, 0], t_periods * TWO_PI, 101
                )
            )
            assert sol.c == pytest.approx(2.0 * half_cost, rel=2e-3)

    def test_dynamics_defects(self, pendulum_model, zoh_oracle):
        problem = make_problem(pendulum_model, "b0", [0.7, 0], [0.7, 0], 6.5, 30)
        sol = solve_lower(problem)
        B = pendulum_model.surrogate.fields(lift(pendulum_model.dictionary, problem.x0))[1]
        Ad, Bd = zoh_oracle(pendulum_model.L0, B, 6.5 / 30)
        for k in range(30):
            defect = sol.z_traj[k + 1] - Ad @ sol.z_traj[k] - Bd @ sol.u_traj[k]
            assert np.linalg.norm(defect) <= 1e-9 * (1 + np.linalg.norm(sol.z_traj[k]))

    def test_boundary_residuals_by_variant(self, pendulum_model):
        d = pendulum_model.dictionary
        x0 = np.array([0.7, 0.0])
        xT = np.array([0.65, 0.05])
        # the pinned entries of z(0) are eliminated, so they equal psi exactly
        b0 = solve_lower(make_problem(pendulum_model, "b0", x0, xT, 6.5, 40))
        assert np.array_equal(b0.z_traj[0], lift(d, x0))
        assert np.linalg.norm(b0.z_traj[-1][:2] - xT) <= 1e-9

        bT = solve_lower(make_problem(pendulum_model, "bT", x0, xT, 6.5, 40))
        assert np.array_equal(bT.z_traj[0][:2], x0)
        assert np.linalg.norm(bT.z_traj[-1] - lift(d, xT)) <= 1e-9

        soft = solve_lower(make_problem(pendulum_model, "soft", x0, xT, 6.5, 40, w=0.4))
        assert np.array_equal(soft.z_traj[0][:2], x0)
        assert np.linalg.norm(soft.z_traj[-1][:2] - xT) <= 1e-9

    def test_one_dictionary_evaluation_per_solve(self, pendulum_model,
                                                  monkeypatch):
        # the boundaries are lifted once; the trajectory's defects are left
        # to their first read, which the upper search never makes
        calls = []
        original = ObservableDictionary.eval

        def counting(self, x):
            calls.append(np.shape(x))
            return original(self, x)

        monkeypatch.setattr(ObservableDictionary, "eval", counting)
        sol = solve_lower(
            make_problem(pendulum_model, "b0", [0.7, 0], [0.7, 0], 6.5, 40)
        )
        assert np.isfinite(sol.c)
        assert calls == [(2, 2)]
        sol.manifold_defects
        sol.manifold_defects
        assert calls == [(2, 2), (41, 2)]

    def test_manifold_defect_series(self, pendulum_model):
        sol = solve_lower(
            make_problem(pendulum_model, "b0", [0.7, 0], [0.7, 0], 6.5, 40)
        )
        assert sol.manifold_defects.shape == (41,)
        assert sol.manifold_defects[0] <= 1e-9  # starts on the manifold
        assert sol.manifold_defects[-1] > sol.manifold_defects[0]
        d = pendulum_model.dictionary
        assert np.array_equal(
            sol.manifold_defects, [manifold_defect(d, z) for z in sol.z_traj]
        )

    def test_condensed_matches_uncondensed_oracle(self, pendulum_model,
                                                  zoh_oracle):
        """Full-transcription KKT oracle: all z_k kept as variables."""
        x0 = np.array([0.6, 0.0])
        xT = np.array([0.55, 0.1])
        T, N = 5.5, 8
        model = pendulum_model
        n_z, n_u = model.n_z, model.n_u
        d = model.dictionary
        for kind, w in (("b0", 0.0), ("bT", 0.0), ("soft", 0.25)):
            problem = make_problem(model, kind, x0, xT, T, N, w=w)
            sol = solve_lower(problem)

            variant = problem.variant
            z_bar = choose_linearization_point(variant, lift(d, x0), lift(d, xT))
            Ad, Bd = zoh_oracle(model.L0, model.surrogate.fields(z_bar)[1], T / N)
            nv = (N + 1) * n_z + N * n_u
            h = T / N

            def zs(k):
                return slice(k * n_z, (k + 1) * n_z)

            def us(k):
                return slice((N + 1) * n_z + k * n_u, (N + 1) * n_z + (k + 1) * n_u)

            rows = []
            rhs = []
            for k in range(N):
                row = np.zeros((n_z, nv))
                row[:, zs(k + 1)] = np.eye(n_z)
                row[:, zs(k)] = -Ad
                row[:, us(k)] = -Bd
                rows.append(row)
                rhs.append(np.zeros(n_z))
            C = np.zeros((2, n_z))
            C[:, :2] = np.eye(2)
            psi0, psiT = lift(d, x0), lift(d, xT)
            H = np.zeros((nv, nv))
            g = np.zeros(nv)
            for k in range(N):
                H[us(k), us(k)] = 2 * (1 - w) * h * np.eye(n_u)
            if kind == "b0":
                row = np.zeros((n_z, nv)); row[:, zs(0)] = np.eye(n_z)
                rows.append(row); rhs.append(psi0)
                row = np.zeros((2, nv)); row[:, zs(N)] = C
                rows.append(row); rhs.append(xT)
            elif kind == "bT":
                row = np.zeros((2, nv)); row[:, zs(0)] = C
                rows.append(row); rhs.append(x0)
                row = np.zeros((n_z, nv)); row[:, zs(N)] = np.eye(n_z)
                rows.append(row); rhs.append(psiT)
            else:
                row = np.zeros((2, nv)); row[:, zs(0)] = C
                rows.append(row); rhs.append(x0)
                row = np.zeros((2, nv)); row[:, zs(N)] = C
                rows.append(row); rhs.append(xT)
                H[zs(0), zs(0)] += 2 * w * np.eye(n_z)
                H[zs(N), zs(N)] += 2 * w * np.eye(n_z)
                g[zs(0)] -= 2 * w * psi0
                g[zs(N)] -= 2 * w * psiT
            # H is diagonal
            res = solve_kkt(np.diag(H), np.zeros((0, nv)), g, np.vstack(rows),
                            np.concatenate(rhs))
            u_oracle = res.primal[(N + 1) * n_z:].reshape(N, n_u)
            assert np.max(np.abs(u_oracle - sol.u_traj)) <= 1e-8

    def test_degenerate_lower_level_raises(self, model_from_matrices):
        # surrogate with zero input authority cannot meet a moved boundary
        L0 = np.zeros((3, 3))
        model = model_from_matrices(L0, (L0,), get_dictionary("linear_const", 2))
        with pytest.raises(DegenerateQpError) as err:
            solve_lower(make_problem(model, "b0", [0, 0], [1.0, 0], 1.0, 5))
        assert err.value.min_pivot == 0.0


class TestDoubling:
    def test_matches_the_per_knot_loop(self, zoh_oracle):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            n_z=st.integers(1, 30), n_u=st.integers(1, 2), N=st.integers(2, 130),
            h=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1),
        )
        def check(n_z, n_u, N, h, seed):
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(n_z, n_z)) / np.sqrt(n_z)
            B = rng.normal(size=(n_z, n_u))
            Ad, Bd = zoh_oracle(A, B, h)
            psi0 = rng.normal(size=n_z)
            u = rng.normal(size=(N, n_u))

            lam, V, Vinv = eigenmodes(A)
            modes = (lam, np.hstack([V.real, -V.imag]), Vinv)  # as real_modes
            powers, _, _, S = lower_level._discretize(modes, B, h, N)
            AdN_psi0 = lower_level._trajectory(
                modes, powers, S, psi0, np.zeros_like(u))[-1]
            S_loop, AdN = loop_condense(Ad, Bd, N)
            largest = np.max(np.abs(S_loop))
            assert np.max(np.abs(S - S_loop)) <= 1e-10 * largest
            assert np.max(np.abs(AdN_psi0 - AdN @ psi0)) <= 1e-10 * (
                np.max(np.abs(AdN)) * np.sum(np.abs(psi0)))

            Z = lower_level._trajectory(modes, powers, S, psi0, u)
            Z_loop = loop_trajectory(Ad, Bd, psi0, u)
            assert np.array_equal(Z[0], psi0)
            scale = np.max(np.abs(Z_loop)) + largest * np.sum(np.abs(u))
            assert np.max(np.abs(Z - Z_loop)) <= 1e-10 * scale

        check()


class TestLazyTrajectory:
    def test_search_solves_build_no_trajectory(self, monkeypatch):
        # the upper search reads only c: none of the fig1 bilevel solve's
        # lower solutions builds z_traj, and the kept one builds it on the
        # first read of its trajectory
        run = config.validate_config(cli.load_bundle("fig1")["config"])
        model = identify(run.system, run.dictionary, n_s=run.n_s,
                         seed=run.seed, box=run.box)
        builds, at_final = [], []
        trajectory = lower_level._trajectory
        minimize = upper_level.minimize

        def counting(*args):
            builds.append(1)
            return trajectory(*args)

        def final(*args, **kwargs):  # the polish, the search's last stage
            res = minimize(*args, **kwargs)
            at_final.append(len(builds))
            return res

        monkeypatch.setattr(lower_level, "_trajectory", counting)
        monkeypatch.setattr(upper_level, "minimize", final)
        sol = upper_level.solve_reduced(
            model, run.variants[0], run.mbc, run.upper, run.N)
        # many lower solves ran before the polish, and every one is counted
        # in a stage record
        coarse, polish = sol.start_records
        assert sol.eval_count == coarse["nfev"] + polish["nfev"]
        assert coarse["stage"] == "direct" and coarse["nfev"] > 20
        assert at_final == [0]
        assert len(builds) == 0
        _ = sol.lower.trajectory  # its first read
        assert len(builds) == 1
        assert "z_traj" in vars(sol.lower)

    def test_trajectory_waits_for_its_first_read(self, pendulum_model):
        problem = make_problem(
            pendulum_model, "soft", [0.7, 0], [0.65, 0.05], 6.5, 40, w=0.3)
        first, second = solve_lower(problem), solve_lower(problem)
        for sol in (first, second):
            assert not {"z_traj", "c_hat"} & set(vars(sol))
        c_hat_first = first.c_hat
        assert "z_traj" in vars(first)
        _ = second.trajectory  # z_traj read before c_hat
        assert second.c_hat == c_hat_first


class TestCostBreakdown:
    def test_hard_variants_blend_to_original_cost(self, pendulum_model):
        sol = solve_lower(
            make_problem(pendulum_model, "b0", [0.7, 0], [0.7, 0], 6.5, 30)
        )
        # w = 0: (1 - w) c + w c_hat is c
        assert sol.problem.variant.w == 0.0
        assert sol.c_hat >= 0.0

    def test_soft_reachable_boundaries_zero_defect(self, oscillator_model):
        sol = solve_lower(
            make_problem(oscillator_model, "soft", [0, 0], [0, 0], TWO_PI, 30, w=0.5)
        )
        assert sol.c_hat <= 1e-12
        assert sol.c <= 1e-12

    def test_cost_is_discretized_input_energy(self, pendulum_model):
        sol = solve_lower(
            make_problem(pendulum_model, "b0", [0.7, 0], [0.68, 0.02], 6.5, 25)
        )
        h = 6.5 / 25
        assert sol.c == pytest.approx(h * np.sum(sol.u_traj**2), abs=1e-15)


def central_difference(f, x, step):
    """Central differences of the scalar f along each coordinate of x."""
    return np.array([(f(x + e) - f(x - e)) / (2 * step)
                     for e in step * np.eye(x.size)])


class TestCostGradient:
    """``cost_gradient`` against central differences of ``c`` itself."""

    @pytest.mark.parametrize("kind,w", [("b0", 0.0), ("bT", 0.0), ("soft", 0.5)])
    def test_pendulum_gradient_in_boundaries_and_period(self, pendulum_model,
                                                        kind, w):
        def cost(theta):
            return solve_lower(make_problem(pendulum_model, kind, theta[:2],
                                            theta[2:4], theta[4], 101, w=w)).c

        theta = np.array([0.5, 0.1, 0.45, -0.05, 6.5])
        sol = solve_lower(make_problem(pendulum_model, kind, theta[:2],
                                       theta[2:4], theta[4], 101, w=w))
        got = sol.cost_gradient(np.eye(5))
        want = central_difference(cost, theta, 1e-5)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_walker_gradient_in_gait_parameters(self, walker):
        # b0 through the walker gait's reduction and its Jacobian
        model = identify(walker, get_dictionary("compass_gait29", 4), n_s=2000,
                         seed=20240, box=np.array([[-0.09, 0.09], [-0.09, 0.09],
                                                   [-0.15, 0.15], [-0.15, 0.15]]))
        mbc = make_walker_gait(walker, 0.05, rate_bound=0.15)

        def solve(p):
            x0, xT, T = mbc.reduction(p)
            return solve_lower(LowerLevelProblem(
                model=model, variant=BoundaryVariant("b0"), x0=x0, xT=xT, T=T,
                N=51))

        for p in ([2.06, -0.09, -0.14], [2.5, 0.1, -0.05]):
            p = np.asarray(p)
            got = solve(p).cost_gradient(mbc.reduction_jacobian(p))
            want = central_difference(lambda q: solve(q).c, p, 1e-6)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


class TestModalForm:
    def test_defective_generator_raises(self, model_from_matrices):
        # a 2x2 Jordan block has one eigenvector: L0 has no modal form
        L0 = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        L1 = L0.copy()
        L1[1, 2] = 1.0  # input authority on x2
        model = model_from_matrices(L0, (L1,), get_dictionary("linear_const", 2))
        with pytest.raises(NumericError):
            model.modes
        with pytest.raises(NumericError):
            solve_lower(make_problem(model, "b0", [0.1, 0], [0.2, 0], 1.0, 5))

    def test_walker_cost_is_smooth_in_the_period(self):
        # walker b0 at fixed boundaries at its bilevel optimum: over +-30
        # one-ulp steps of T, c departs from a quadratic fit by a relative
        # std of at most 1e-13, so the polish, whose ftol is 1e-15, does not
        # chase rounding that changes from one T to the next
        run = config.validate_config(cli.load_bundle("walker")["config"])
        model = identify(run.system, run.dictionary, n_s=run.n_s,
                         seed=run.seed, box=run.box)
        x0, xT, T_star = run.mbc.reduction(
            np.array([2.064490799966692, -0.09224900500819358, -0.15]))
        steps = np.arange(-30, 31)
        c = np.array([
            solve_lower(LowerLevelProblem(
                model=model, variant=run.variants[0], x0=x0, xT=xT,
                T=T_star + k * np.spacing(T_star), N=run.N)).c
            for k in steps])
        rest = c - np.polyval(np.polyfit(steps, c, 2), steps)
        assert np.std(rest) <= 1e-13 * np.mean(c)
