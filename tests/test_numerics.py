import warnings

import numpy as np
import pytest
import scipy.linalg

from koopbilevel import (
    BoundaryVariant,
    CorrelationError,
    DegenerateQpError,
    LowerLevelProblem,
    NumericError,
    build_qp,
    complex_step,
    get_dictionary,
    solve_lower,
    eigenmodes,
    qp_sensitivity,
    solve_kkt,
    zoh_discretize,
)
from koopbilevel.artifacts import trajectory_pcc


def truncated_series(M, terms=40):
    out = np.eye(M.shape[0])
    acc = np.eye(M.shape[0])
    for k in range(1, terms):
        acc = acc @ M / k
        out = out + acc
    return out


def expm(M):
    """The matrix exponential by the eigenvector method: V diag(e^lam) V^-1."""
    lam, V, Vinv = eigenmodes(M)
    return ((V * np.exp(lam)) @ Vinv).real


def modal_zoh(A, B, h):
    """(Ad, Bd) of ``dz/dt = A z + B u`` from the modes of A and their ZOH."""
    lam, V, Vinv = eigenmodes(A)
    e, q = zoh_discretize(lam, h)
    return ((V * e) @ Vinv).real, ((V * q) @ Vinv).real @ np.asarray(B, dtype=float)


class TestComplexStep:
    def test_matches_the_analytic_derivative_at_negative_points(self):
        # f' = 3x^2 sin x + x^3 cos x; no difference of nearby values cancels
        x = np.array([-1.3, -0.2, 0.7])
        got = complex_step(lambda z: z**3 * np.sin(z), x, np.ones(3))
        want = 3 * x**2 * np.sin(x) + x**3 * np.cos(x)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_leading_axis_of_directions(self):
        A = np.random.default_rng(3).normal(size=(3, 3))
        x = np.array([0.5, -1.0, 2.0])
        # the Jacobian of x -> A x, one direction per row of the identity
        J = complex_step(lambda z: z @ A.T, x, np.eye(3))
        assert np.array_equal(J.T, A)

    def test_real_result_raises(self):
        # a zero derivative from a result that lost its imaginary part
        with pytest.raises(NumericError, match="complex f"):
            complex_step(lambda z: np.abs(z) ** 2, np.array([0.5]), np.ones(1))


class TestExpm:
    """The exponential that ``eigenmodes`` gives every function of a matrix."""

    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = expm(np.diag([0.3, -1.2]))
        assert np.allclose(E, np.diag(np.exp([0.3, -1.2])), atol=1e-14)

    def test_planar_rotation_quarter_turn(self):
        theta = np.pi / 2
        E = expm(theta * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(E, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-13)

    def test_series_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            M = rng.normal(scale=0.2, size=(5, 5))
            assert np.max(np.abs(expm(M) - truncated_series(M))) <= 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.normal(size=(8, 8))
            A -= (np.max(np.real(np.linalg.eigvals(A))) + 0.5) * np.eye(8)
            s, t = rng.uniform(0, 1, 2)
            lhs = expm(A * (s + t))
            err = np.linalg.norm(lhs - expm(A * s) @ expm(A * t))
            assert err <= 1e-10 * np.linalg.norm(lhs)

    def test_rejects_bad_input(self):
        with pytest.raises(NumericError):
            expm(np.ones((2, 3)))
        with pytest.raises(NumericError):
            expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):  # a Jordan block has one eigenvector
            expm(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestZoh:
    def test_pure_integrator(self):
        B = np.array([[1.0], [2.0]])
        Ad, Bd = modal_zoh(np.zeros((2, 2)), B, 0.5)
        assert np.allclose(Ad, np.eye(2), atol=1e-14)
        assert np.allclose(Bd, 0.5 * B, atol=1e-14)

    def test_zero_eigenvalue_gives_exactly_h(self):
        # phi1 takes its limit 1 at 0: fig1's L0 has an exact zero eigenvalue
        e, q = zoh_discretize(np.array([0.0, 0.0j, -0.7]), 0.37)
        assert e[0] == e[1] == 1.0
        assert q[0] == q[1] == 0.37
        assert q[2] == pytest.approx(np.expm1(-0.7 * 0.37) / -0.7, rel=1e-15)

    def test_scalar_closed_form(self):
        a, b, h = -0.7, 1.3, 0.25
        e, q = zoh_discretize(np.array([a]), h)
        assert abs(e[0] - np.exp(a * h)) <= 1e-14
        assert abs(q[0] * b - (np.exp(a * h) - 1.0) * b / a) <= 1e-14

    def test_fine_rk4_oracle(self, oscillator, rk4_oracle):
        h = 0.1
        Ad, Bd = modal_zoh(oscillator.params["A"], oscillator.params["B"], h)
        x0 = np.array([0.4, -0.2])
        u = np.array([0.7])
        X = rk4_oracle(oscillator, x0, u[None], h, substeps=256)
        assert np.max(np.abs(Ad @ x0 + Bd @ u - X[-1])) <= 1e-10

    def test_rejects_nonpositive_step(self):
        with pytest.raises(NumericError):
            zoh_discretize(np.zeros(1), 0.0)


def no_rows(n):
    """The low-rank part of a diagonal Hessian: G with no rows."""
    return np.zeros((0, n))


def solve_one(d, G, g, Aeq, beq):
    """``solve_kkt``'s result for one QP: a ``KktResult`` or the
    ``DegenerateQpError`` that reports it, as a batch of one."""
    (res,) = solve_kkt(*(np.asarray(a, dtype=float)[None] for a in (d, G, g, Aeq, beq)))
    return res


def nullspace_elimination_oracle(H, g, A, b):
    """Solve the EQP by eliminating constraints with a QR of A^T."""
    Q, _ = np.linalg.qr(np.asarray(A).T, mode="complete")
    Z = Q[:, A.shape[0]:]
    v0, *_ = np.linalg.lstsq(A, b, rcond=None)
    y = np.linalg.solve(Z.T @ H @ Z, -Z.T @ (H @ v0 + g))
    return v0 + Z @ y


class TestSolveKkt:
    def test_unconstrained_quadratic(self):
        # every entry is eliminated, so the reduced matrix is empty; as G = I
        # with d = 0, it is 6 wide
        g = np.array([1.0, -2.0, 0.5])
        res = solve_one(np.ones(3), no_rows(3), g, np.zeros((0, 3)), np.zeros(0))
        assert np.allclose(res.primal, -g, atol=1e-9)
        assert res.min_pivot == np.inf
        res = solve_one(np.zeros(3), np.eye(3), g, np.zeros((0, 3)), np.zeros(0))
        assert np.allclose(res.primal, -g, atol=1e-9)
        assert res.factors[2].shape == (6, 6)

    def test_symmetric_two_variable(self):
        res = solve_one(
            np.ones(2), no_rows(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        assert np.allclose(res.primal, [1.0, 1.0], atol=1e-12)
        # stationarity v + lam (1, 1) = 0 at v = (1, 1)
        assert abs(res.dual[0] + 1.0) <= 1e-12

    def test_nullspace_elimination_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            R = rng.normal(size=(10, 10))
            H = R.T @ R + 0.1 * np.eye(10)
            g = rng.normal(size=10)
            A = rng.normal(size=(3, 10))
            b = rng.normal(size=3)
            res = solve_one(np.full(10, 0.1), R, g, A, b)
            oracle = nullspace_elimination_oracle(H, g, A, b)
            assert np.max(np.abs(res.primal - oracle)) <= 1e-9
            assert res.stationarity_residual <= 1e-9 * (1 + np.linalg.norm(g))
            assert res.feasibility_residual <= 1e-9 * (1 + np.linalg.norm(b))

    def test_stored_residuals_match_recomputation(self):
        rng = np.random.default_rng(6)
        R = rng.normal(size=(6, 6))
        H = R.T @ R
        g = rng.normal(size=6)
        A = rng.normal(size=(2, 6))
        b = rng.normal(size=2)
        res = solve_one(np.zeros(6), R, g, A, b)
        stat = np.linalg.norm(H @ res.primal + g + A.T @ res.dual)
        feas = np.linalg.norm(A @ res.primal - b)
        assert abs(stat - res.stationarity_residual) <= 1e-12
        assert abs(feas - res.feasibility_residual) <= 1e-12

    def test_feasible_perturbations_never_improve(self):
        rng = np.random.default_rng(7)
        R = rng.normal(size=(8, 8))
        H = R.T @ R + 0.01 * np.eye(8)
        g = rng.normal(size=8)
        A = rng.normal(size=(3, 8))
        b = rng.normal(size=3)
        res = solve_one(np.full(8, 0.01), R, g, A, b)

        def obj(v):
            return 0.5 * v @ H @ v + g @ v

        Q, _ = np.linalg.qr(A.T, mode="complete")
        Z = Q[:, 3:]
        base = obj(res.primal)
        for _ in range(20):
            d = Z @ rng.normal(size=5)
            d *= 1e-4 / np.linalg.norm(d)
            assert obj(res.primal + d) >= base - 1e-12

    def test_sensitivity_matches_central_differences(self):
        # phi(v) = w'v + |v|^2 / 2 along random tangents of all five QP data,
        # on a singular H = diag(d) + R'R, whose d is zero on four entries,
        # that is positive definite on null(A) alone
        rng = np.random.default_rng(8)
        R = rng.normal(size=(2, 7))
        d = np.concatenate([np.zeros(4), rng.uniform(0.5, 1.0, size=3)])
        g = rng.normal(size=7)
        A, b = rng.normal(size=(3, 7)), rng.normal(size=3)
        dd = rng.normal(size=(2, 7)) * (d > 0)
        dR, dg, dA, db = (rng.normal(size=(2,) + x.shape) for x in (R, g, A, b))
        w = rng.normal(size=7)

        def phi(t, i):
            v = solve_one(d + t * dd[i], R + t * dR[i], g + t * dg[i],
                          A + t * dA[i], b + t * db[i]).primal
            return w @ v + 0.5 * v @ v

        res = solve_one(d, R, g, A, b)
        got = qp_sensitivity(res, w + res.primal, dd, dR, dg, dA, db)
        step = 1e-6
        want = [(phi(step, i) - phi(-step, i)) / (2 * step) for i in range(2)]
        assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)

    def test_infeasible_constraints_raise(self):
        # two contradictory rows make the KKT system inconsistent
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([0.0, 1.0])
        err = solve_one(np.ones(2), no_rows(2), np.zeros(2), A, b)
        assert isinstance(err, DegenerateQpError)
        assert err.min_pivot is not None

    def test_hessian_singular_on_the_null_space_raises(self):
        # v2 is free and costs nothing: no minimizer exists, and the reduced
        # matrix has a zero row, so H is factored as given
        err = solve_one(np.array([1.0, 0.0]), no_rows(2), np.zeros(2),
                        np.array([[1.0, 0.0]]), np.array([1.0]))
        assert isinstance(err, DegenerateQpError)
        assert err.min_pivot == 0.0

    def test_rejects_negative_or_mixed_diagonals(self):
        A, b = np.array([[1.0, 1.0]]), np.array([1.0])
        with pytest.raises(NumericError, match="nonnegative"):
            solve_one(np.array([1.0, -0.5]), no_rows(2), np.zeros(2), A, b)
        # a batch shares which entries of d are eliminated
        with pytest.raises(NumericError, match="pattern"):
            solve_kkt(np.array([[1.0, 1.0], [1.0, 0.0]]), np.zeros((2, 0, 2)),
                      np.zeros((2, 2)), np.stack([A, A]), np.stack([b, b]))

    def test_rejects_a_qp_without_a_batch_axis(self):
        with pytest.raises(NumericError, match="inconsistent QP dimensions"):
            solve_kkt(np.ones(2), no_rows(2), np.zeros(2), np.array([[1.0, 1.0]]),
                      np.array([1.0]))

    def test_batch_solves_each_qp_as_alone(self):
        # a degenerate QP mid-batch is reported in its place, and its
        # neighbours are bitwise their own solves
        rng = np.random.default_rng(10)
        d = np.concatenate([np.zeros((5, 2)), rng.uniform(0.5, 2.0, size=(5, 4))], axis=1)
        G, g = rng.normal(size=(5, 2, 6)), rng.normal(size=(5, 6))
        A, b = rng.normal(size=(5, 3, 6)), rng.normal(size=(5, 3))
        A[2, 1] = A[2, 0]  # contradictory rows
        results = solve_kkt(d, G, g, A, b)
        assert isinstance(results[2], DegenerateQpError)
        for i in (0, 1, 3, 4):
            alone = solve_one(d[i], G[i], g[i], A[i], b[i])
            assert np.array_equal(results[i].primal, alone.primal)
            assert np.array_equal(results[i].dual, alone.dual)
            assert results[i].min_pivot == alone.min_pivot

    def test_singular_systems_raise_without_warnings(self, model_from_matrices):
        # both have an exactly zero LU pivot: contradictory constraint rows,
        # and a surrogate with no input authority asked to move its state
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        L0 = np.zeros((3, 3))
        model = model_from_matrices(L0, (L0,), get_dictionary("linear_const", 2))
        problem = LowerLevelProblem(
            model=model, variant=BoundaryVariant("b0"), x0=np.zeros(2),
            xT=np.array([1.0, 0.0]), T=1.0, N=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = solve_one(np.ones(2), no_rows(2), np.zeros(2), A, np.array([0.0, 1.0]))
            assert isinstance(err, DegenerateQpError) and err.min_pivot == 0.0
            with pytest.raises(DegenerateQpError) as err:
                solve_lower(problem)
            assert err.value.min_pivot == 0.0

    def test_result_carries_the_smallest_pivot(self, pendulum_model):
        # the smallest pivot of the reduced matrix, rebuilt here from the
        # QP's data: [[0, C0'], [C0, -(E + C+ D+^-1 C+')]] over the entries
        # with d = 0 and the rows of C = [G; Aeq]; n_x = 2 and n_z = 12 give
        # widths 2 (b0), 22 (bT) and 14 (soft)
        for kind, w, width in (("b0", 0.0, 2), ("bT", 0.0, 22), ("soft", 0.5, 14)):
            problem = LowerLevelProblem(
                model=pendulum_model, variant=BoundaryVariant(kind, w=w),
                x0=np.array([0.7, 0.0]), xT=np.array([0.7, 0.0]), T=6.5, N=40,
            )
            qp = build_qp([problem])
            d, G, g, A, b = (x[0] for x in (qp.d, qp.G, qp.g, qp.Aeq, qp.beq))
            res = solve_one(d, G, g, A, b)
            C, plus = np.vstack([G, A]), d > 0
            C0, Cp = C[:, ~plus], C[:, plus]
            E = np.diag(np.arange(C.shape[0]) < G.shape[0]).astype(float)
            reduced = np.block([[np.zeros((C0.shape[1],) * 2), C0.T],
                                [C0, -(E + (Cp / d[plus]) @ Cp.T)]])
            assert reduced.shape == (width, width)
            lu, _ = scipy.linalg.lu_factor(reduced)
            assert res.factors[2].shape == (width, width)
            assert res.min_pivot > 0.0
            assert res.min_pivot == pytest.approx(np.abs(np.diag(lu)).min(), rel=1e-12)
            assert solve_lower(problem).kkt.min_pivot == res.min_pivot

    def test_random_psd_problems_match_nullspace_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def problems(draw):
            # H = diag(d) + B'B: d is zero, positive on some entries, or
            # positive everywhere, and B has r rows
            n = draw(st.integers(2, 12))
            m = draw(st.integers(1, n))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            n_plus = draw(st.integers(0, n))
            d = np.zeros(n)
            d[rng.permutation(n)[:n_plus]] = rng.uniform(0.1, 2.0, size=n_plus)
            # rank(H) + m >= n, so null(H) and null(Aeq) meet only in 0
            r = draw(st.integers(max(n - m - n_plus, 0 if n_plus else 1), n))
            B = rng.normal(size=(r, n))
            return d, B, rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(problems())
        def check(qp):
            d, B, g, A, b = qp
            H = np.diag(d) + B.T @ B
            n, m = A.shape[1], A.shape[0]
            sv = np.linalg.svd(A, compute_uv=False)
            hypothesis.assume(sv[-1] >= 1e-3 * sv[0])
            if m < n:
                Z = scipy.linalg.null_space(A)
                reduced = np.linalg.eigvalsh(Z.T @ H @ Z)
                hypothesis.assume(reduced[0] >= 1e-3 * np.linalg.norm(H, 2))
            res = solve_one(d, B, g, A, b)
            assert res.stationarity_residual <= 1e-9 * (
                1 + np.linalg.norm(g) + np.linalg.norm(H @ res.primal))
            assert res.feasibility_residual <= 1e-9 * (1 + np.linalg.norm(b))
            oracle = nullspace_elimination_oracle(H, g, A, b)
            assert np.max(np.abs(res.primal - oracle)) <= 1e-8 * (
                1 + np.max(np.abs(oracle)))

        check()


class TestPearson:
    """``artifacts.trajectory_pcc``: Pearson correlation per state
    dimension on a shared normalized-time grid, averaged."""

    def test_self_correlation(self):
        t = np.linspace(0.0, 1.0, 4)
        x = np.array([0.3, 1.7, -2.2, 0.4])
        assert abs(trajectory_pcc(t, x, t, x) - 1.0) <= 1e-12

    def test_negation(self):
        t = np.linspace(0.0, 1.0, 4)
        x = np.array([0.3, 1.7, -2.2, 0.4])
        assert abs(trajectory_pcc(t, x, t, -x) + 1.0) <= 1e-12

    def test_hand_computed_value(self):
        # sampled on the comparison grid itself, so resampling keeps the
        # values: the centered-product formula, cross-checked against
        # np.corrcoef, and each column's value averaged
        rng = np.random.default_rng(9)
        t = np.linspace(0.0, 3.0, 101)
        a, b = rng.normal(size=(2, 101))
        want = np.corrcoef(a, b)[0, 1]
        assert abs(trajectory_pcc(t, a, t, b) - want) <= 1e-14
        both = trajectory_pcc(t, np.column_stack([a, a]), t, np.column_stack([b, a]))
        assert abs(both - 0.5 * (want + 1.0)) <= 1e-14

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 2.0, 40)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        r = trajectory_pcc(t, a, t, b)
        assert abs(trajectory_pcc(t, 2.5 * a + 1.0, t, b) - r) <= 1e-12
        assert abs(trajectory_pcc(t, a, t, 0.3 * b - 7.0) - r) <= 1e-12

    def test_zero_variance_raises(self):
        t = np.linspace(0.0, 1.0, 3)
        with pytest.raises(CorrelationError):
            trajectory_pcc(t, [1.0, 1.0, 1.0], t, [1.0, 2.0, 3.0])
        # the mean of 101 copies of 0.1 is not 0.1, so centring leaves
        # rounding noise, not zero
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(CorrelationError):
            trajectory_pcc(t, np.full(101, 0.1), t, np.sin(3.0 * t))

    def test_zero_duration_raises(self):
        with pytest.raises(NumericError, match="zero duration"):
            trajectory_pcc([1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])


class TestResampling:
    def test_identical_trajectories(self):
        t = np.linspace(0.0, 2.0, 30)
        X = np.column_stack([np.sin(t), np.cos(t)])
        assert abs(trajectory_pcc(t, X, t, X) - 1.0) <= 1e-12

    def test_time_reversed_monotone(self):
        t = np.linspace(0.0, 1.0, 20)
        assert abs(trajectory_pcc(t, t.copy(), t, t[::-1].copy()) + 1.0) <= 1e-12

    def test_different_periods_downsampling(self):
        t_dense = np.linspace(0.0, 2 * np.pi, 400)
        t_coarse = np.linspace(0.0, 4 * np.pi, 51)  # different period, 51 pts
        sig_a = np.sin(t_dense)[:, None]
        sig_b = np.sin(t_coarse / 2.0)[:, None]  # same shape in normalized time
        assert trajectory_pcc(t_dense, sig_a, t_coarse, sig_b) >= 0.9999
