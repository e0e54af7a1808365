import numpy as np
import pytest

from koopbilevel import (
    ConfigError,
    ControlAffineSystem,
    DomainEvaluationError,
    HybridExtras,
    IntegrationError,
    eval_rhs,
    get_system,
    rk4_step,
)
from koopbilevel.systems import step_length

TWO_PI = 2.0 * np.pi


def pendulum_energy(x):
    return 0.5 * x[..., 1] ** 2 + (1.0 - np.cos(x[..., 0]))


def fields_oracle(system, x):
    """The preset vector fields f and G, each from its own formulas: f as a
    stack of its rows, and G from the mass-matrix terms computed afresh."""
    if system.name == "oscillator":
        A, B = system.params["A"], system.params["B"]
        return (np.einsum("ij,...j->...i", A, x),
                np.broadcast_to(B, x.shape[:-1] + B.shape))
    if system.name == "pendulum":
        damping = system.params["damping"]
        f = np.stack([x[..., 1], -np.sin(x[..., 0]) - damping * x[..., 1]], axis=-1)
        G = np.broadcast_to([[0.0], [1.0]], x.shape[:-1] + (2, 1))
        return f, G
    p = system.params
    mh, m, ell, r = p["hip_mass"], p["leg_mass"], p["leg_length"], p["com_from_hip"]
    m11 = mh * ell**2 + m * (ell - r) ** 2 + m * ell**2
    m22, mlr = m * r**2, m * ell * r
    g_st = p["gravity"] * (mh * ell + m * (ell - r) + m * ell)
    g_sw = p["gravity"] * m * r
    th_st, th_sw, w_st, w_sw = np.moveaxis(x, -1, 0)
    c, s = np.cos(th_st - th_sw), np.sin(th_st - th_sw)
    m12 = -mlr * c
    b1 = mlr * s * w_sw**2 + g_st * np.sin(th_st)
    b2 = -mlr * s * w_st**2 - g_sw * np.sin(th_sw)
    det = m11 * m22 - m12**2
    a_st = (m22 * b1 - m12 * b2) / det
    a_sw = (m11 * b2 - m12 * b1) / det
    f = np.stack([w_st, w_sw, a_st, a_sw], axis=-1)
    # hip torque (-u, +u) on (th_st, th_sw) through M^-1
    m12 = -mlr * np.cos(th_st - th_sw)
    det = m11 * m22 - m12**2
    zero = np.zeros(x.shape[:-1])
    G = np.stack([zero, zero, (-m22 - m12) / det, (m11 + m12) / det], axis=-1)[..., None]
    return f, G


def point_masses(walker, th_st, th_sw, w_st, w_sw, pivot_angle, pivot_rate):
    """``(mass, position, velocity)`` of the walker's hip and two leg masses,
    positions relative to the pivot foot, whose leg is at ``pivot_angle``
    turning at ``pivot_rate``."""
    p = walker.params
    mh, m, ell, r = p["hip_mass"], p["leg_mass"], p["leg_length"], p["com_from_hip"]
    p_h = np.array([-ell * np.sin(pivot_angle), ell * np.cos(pivot_angle)])
    v_h = pivot_rate * np.array([-ell * np.cos(pivot_angle), -ell * np.sin(pivot_angle)])
    pts = [(mh, p_h, v_h)]
    for th, w in ((th_st, w_st), (th_sw, w_sw)):
        pts.append((m, p_h + r * np.array([np.sin(th), -np.cos(th)]),
                    v_h + r * w * np.array([np.cos(th), np.sin(th)])))
    return pts


def rhs_oracle(system, x, u):
    """``f + G u`` of the oracle fields, with G u an einsum over the inputs
    broadcast to x."""
    u = np.broadcast_to(u, x.shape[:-1] + (system.n_u,))
    f, G = fields_oracle(system, x)
    return f + np.einsum("...ij,...j->...i", G, u)


def one_dim_system(name, f, G, state_box=None):
    """A system with n_x = n_u = 1 whose fields are ``(f(x), G(x))``."""
    return ControlAffineSystem(
        name=name, n_x=1, n_u=1, fields=lambda x: (f(x), G(x)), state_box=state_box,
    )


class TestEvalRhs:
    def test_oscillator_equilibrium(self, oscillator):
        assert np.array_equal(eval_rhs(oscillator, [0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_pendulum_hand_values(self, pendulum_undamped):
        out = eval_rhs(pendulum_undamped, [np.pi / 2, 0.0], [0.0])
        assert np.allclose(out, [0.0, -1.0], atol=1e-15)
        out = eval_rhs(pendulum_undamped, [0.0, 1.0], [2.0])
        assert np.allclose(out, [1.0, 2.0], atol=1e-15)

    def test_damping_enters_linearly(self, pendulum):
        out = eval_rhs(pendulum, [0.0, 1.0], [0.0])
        assert np.allclose(out, [1.0, -0.1], atol=1e-15)

    def test_batched_evaluation(self, pendulum):
        X = np.array([[0.0, 0.0], [0.1, -0.2], [1.0, 0.5]])
        batch = eval_rhs(pendulum, X, [0.3])
        rows = np.array([eval_rhs(pendulum, x, [0.3]) for x in X])
        assert np.array_equal(batch, rows)

    def test_dimension_errors(self, pendulum):
        with pytest.raises(DomainEvaluationError):
            eval_rhs(pendulum, [0.0, 0.0, 0.0], [0.0])
        with pytest.raises(DomainEvaluationError):
            eval_rhs(pendulum, [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("name", ["oscillator", "pendulum", "compass_gait"])
    def test_drift_and_rhs_match_the_stacked_formulas_bitwise(self, name):
        system = get_system(name)
        rng = np.random.default_rng(31)
        for shape in [(system.n_x,), (7, system.n_x), (3, 5, system.n_x)]:
            x = rng.uniform(-1.5, 1.5, size=shape)
            f, G = system.fields(x)
            f_oracle, G_oracle = fields_oracle(system, x)
            assert f.shape == shape and G.shape == shape + (system.n_u,)
            assert np.array_equal(f, f_oracle) and np.array_equal(G, G_oracle)
            for u in (np.array([0.0]), np.array([-0.7]),
                      rng.normal(size=shape[:-1] + (1,))):
                assert np.array_equal(eval_rhs(system, x, u), rhs_oracle(system, x, u))

    @pytest.mark.parametrize("name", ["oscillator", "pendulum", "compass_gait"])
    def test_stacked_inputs_match_single_input_calls_bitwise(self, name):
        # gEDMD evaluates every channel's input on one block of samples
        system = get_system(name)
        rng = np.random.default_rng(32)
        X = rng.uniform(-1.5, 1.5, size=(20, system.n_x))
        U = rng.normal(size=(3, 1, system.n_u))
        stacked = eval_rhs(system, X, U)
        assert stacked.shape == (3, 20, system.n_x)
        assert np.array_equal(stacked, np.stack([eval_rhs(system, X, u) for u in U[:, 0]]))
        with pytest.raises(DomainEvaluationError, match="input has dim 2"):
            eval_rhs(system, X, rng.normal(size=(3, 1, system.n_u + 1)))

    def test_nonfinite_drift_names_component(self):
        bad = one_dim_system("bad", lambda x: x / 0.0,
                             lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
                             state_box=np.array([[-1.0, 1.0]]))
        with pytest.raises(DomainEvaluationError, match="drift"):
            eval_rhs(bad, [1.0], [0.0])

    def test_nonfinite_input_map_names_component(self):
        bad = one_dim_system("bad", lambda x: x,
                             lambda x: np.full(np.shape(x)[:-1] + (1, 1), np.inf))
        with pytest.raises(DomainEvaluationError,
                           match="bad: input map returned non-finite values"):
            eval_rhs(bad, [1.0], [0.0])


class TestRk4:
    def test_equilibrium_fixed_point(self, pendulum):
        x = rk4_step(pendulum, np.zeros(2), np.zeros(1), 0.37)
        assert np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("name", ["pendulum", "compass_gait"])
    def test_array_step_matches_scalar_steps_bitwise(self, name):
        # one step size per batch entry, as the baseline's period column uses
        system = get_system(name)
        rng = np.random.default_rng(22)
        h = np.array([0.02, 0.05, 0.37])
        X = rng.uniform(-0.3, 0.3, size=(3, 7, system.n_x))
        U = rng.normal(size=(3, 7, system.n_u))
        batch = rk4_step(system, X, U, h[:, None, None])
        for j in range(3):
            assert np.array_equal(batch[j], rk4_step(system, X[j], U[j], h[j]))

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_array_step_rejects_nonpositive_entries(self, pendulum, bad):
        h = np.array([0.1, bad, 0.2])[:, None, None]
        with pytest.raises(IntegrationError, match="step size"):
            rk4_step(pendulum, np.zeros((3, 1, 2)), np.zeros((3, 1, 1)), h)

    @pytest.mark.parametrize("steps,named", [([0.1, -0.3, -0.1, 0.2], "-0.3"),
                                             ([0.1, 0.0, np.nan, 0.2], "nan")])
    def test_array_step_error_names_one_step(self, pendulum, steps, named):
        # the baseline's Jacobian batch passes h with shape (2m+1, 1, 1)
        h = np.array(steps)[:, None, None]
        with pytest.raises(IntegrationError) as info:
            rk4_step(pendulum, np.zeros((4, 1, 2)), np.zeros((4, 1, 1)), h)
        assert str(info.value) == f"step size must be positive, got h={named}"

    def test_nonfinite_state_error_names_the_step_of_that_entry(self):
        # finite drift whose RK4 combination overflows only where x > 0
        big = one_dim_system("big", lambda x: np.where(x > 0, 1e308, 0.0),
                             lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)))
        x = np.array([[-1.0], [-1.0], [1.0], [1.0]])[:, None, :]
        h = np.array([0.1, 0.2, 0.3, 0.4])[:, None, None]
        with pytest.raises(IntegrationError) as info, np.errstate(over="ignore"):
            rk4_step(big, x, np.zeros((4, 1, 1)), h)
        assert str(info.value).endswith("non-finite state at step size h=0.3")

    def test_linear_system_is_degree4_taylor(self, oscillator):
        A = oscillator.params["A"]
        h = 0.2
        x0 = np.array([0.3, -0.5])
        taylor = np.eye(2)
        acc = np.eye(2)
        for k in range(1, 5):
            acc = acc @ (A * h) / k
            taylor = taylor + acc
        assert np.max(np.abs(rk4_step(oscillator, x0, [0.0], h) - taylor @ x0)) <= 1e-14

    def test_order_four_error_decay(self, oscillator, rk4_oracle):
        # global error over one period shrinks ~16x when the grid doubles
        x0 = np.array([1.0, 0.0])
        ref = rk4_oracle(oscillator, x0, np.zeros((64, 1)), TWO_PI, substeps=64)[-1]

        def err(N):
            X = rk4_oracle(oscillator, x0, np.zeros((N, 1)), TWO_PI, substeps=1)
            return np.linalg.norm(X[-1] - ref)

        assert err(64) / err(128) >= 15.5

    def test_richardson_local_order(self, pendulum):
        x0 = np.array([0.6, -0.3])
        u = np.array([0.2])
        fine = x0.copy()
        for _ in range(64):
            fine = rk4_step(pendulum, fine, u, 0.4 / 64)
        e1 = np.linalg.norm(rk4_step(pendulum, x0, u, 0.4) - fine)
        half = rk4_step(pendulum, rk4_step(pendulum, x0, u, 0.2), u, 0.2)
        e2 = np.linalg.norm(half - fine)
        assert e1 / e2 >= 15.5


class TestSimulate:
    """Integration over many ``rk4_step`` calls (``rk4_oracle``)."""

    def test_constant_at_equilibrium(self, pendulum, rk4_oracle):
        X = rk4_oracle(pendulum, np.zeros(2), np.zeros((10, 1)), 1.0, substeps=16)
        assert np.array_equal(X, np.zeros((11, 2)))

    def test_matches_exact_zoh_on_oscillator(self, oscillator, zoh_oracle, rk4_oracle):
        rng = np.random.default_rng(9)
        N = 25
        U = rng.normal(scale=0.3, size=(N, 1))
        X = rk4_oracle(oscillator, np.array([0.5, 0.1]), U, TWO_PI, substeps=64)
        Ad, Bd = zoh_oracle(
            oscillator.params["A"], oscillator.params["B"], TWO_PI / N
        )
        z = np.array([0.5, 0.1])
        for k in range(N):
            z = Ad @ z + Bd @ U[k]
            assert np.max(np.abs(X[k + 1] - z)) < 1e-8

    def test_undamped_energy_conservation(self, pendulum_undamped, rk4_oracle):
        x0 = np.array([np.deg2rad(40.0), 0.0])
        X = rk4_oracle(pendulum_undamped, x0, np.zeros((64, 1)), TWO_PI, substeps=32)
        E = pendulum_energy(X)
        assert np.max(np.abs(E - E[0])) <= 1e-6 * E[0]


class TestWalkerHybrid:
    def test_flip_is_involution(self, walker):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(1000, 4))
        flipped = walker.hybrid.flip_map(walker.hybrid.flip_map(X))
        assert np.max(np.abs(flipped - X)) <= 1e-14

    def test_batched_impact_equals_per_state_calls(self, walker):
        # real states, and complex ones as the reduction's complex step
        # passes them; every saddle system of the batch is solved at once
        rng = np.random.default_rng(32)
        X = rng.uniform(-0.4, 0.4, size=(3, 5, 4))
        for batch in (X, X + 1j * 2.0**-100 * rng.normal(size=X.shape)):
            jumped = walker.hybrid.jump_map(batch)
            assert jumped.shape == batch.shape and jumped.dtype == batch.dtype
            assert np.array_equal(
                jumped, np.reshape([walker.hybrid.jump_map(x) for x in batch.reshape(-1, 4)],
                                   batch.shape))

    def test_jump_preserves_positions(self, walker):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 0.3)
            x = np.array([-alpha, alpha, *rng.uniform(-0.8, 0.8, 2)])
            assert np.max(np.abs(walker.hybrid.jump_map(x)[:2] - x[:2])) <= 1e-14

    def test_impact_dissipates_kinetic_energy(self, walker):
        def ke(x):
            # the three point masses' energy, about the stance foot
            return sum(0.5 * m * (v @ v)
                       for m, _, v in point_masses(walker, *x, x[0], x[2]))

        rng = np.random.default_rng(12)
        for _ in range(100):
            alpha = rng.uniform(0.02, 0.3)
            x = np.array([-alpha, alpha, *rng.uniform(-0.6, 0.2, 2)])
            x_post = walker.hybrid.flip_map(walker.hybrid.jump_map(x))
            assert ke(x_post) <= ke(x) + 1e-12

    def test_impact_conserves_angular_momenta(self, walker):
        """Independent impact oracle: the ground impulse acts at the new
        contact point, so total angular momentum about that point and the
        trailing leg's angular momentum about the hip are both conserved."""
        m = walker.params["leg_mass"]
        ell = walker.params["leg_length"]

        def cross(a, b):
            return a[0] * b[1] - a[1] * b[0]

        rng = np.random.default_rng(21)
        for _ in range(50):
            alpha = rng.uniform(0.02, 0.25)
            x = np.array([-alpha, alpha, *rng.uniform(-0.5, 0.1, 2)])
            xp = walker.hybrid.jump_map(x)
            pre = point_masses(walker, *x, pivot_angle=x[0], pivot_rate=x[2])
            post = point_masses(walker, *xp, pivot_angle=xp[1], pivot_rate=xp[3])
            # new contact point, relative to the old pivot
            p_new = np.array(
                [-ell * np.sin(x[0]) + ell * np.sin(x[1]),
                 ell * np.cos(x[0]) - ell * np.cos(x[1])]
            )
            L_pre = sum(mi * cross(p - p_new, v) for mi, p, v in pre)
            # post positions are measured from the new pivot already
            L_post = sum(mi * cross(p, v) for mi, p, v in post)
            assert abs(L_pre - L_post) <= 1e-12
            # trailing (old stance) leg about the hip: the joint impulse is
            # transmitted along the massless rod, so it has no moment there
            (_, ph_pre, _), (_, pst_pre, vst_pre), _ = pre
            (_, ph_post, _), (_, pst_post, vst_post), _ = post
            l_pre = m * cross(pst_pre - ph_pre, vst_pre)
            l_post = m * cross(pst_post - ph_post, vst_post)
            assert abs(l_pre - l_post) <= 1e-12

    def test_step_length_geometry(self, walker):
        alpha = 0.12
        x = np.array([-alpha, alpha, 0.0, 0.0])
        assert abs(step_length(walker, x) - 2.0 * np.sin(alpha)) <= 1e-15


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_system("segway")
