import numpy as np
import pytest

from koopbilevel import (
    ConfigError,
    ObservableDictionary,
    get_dictionary,
    lift,
    manifold_defect,
    unlift,
)
from koopbilevel.lifting import Monomial, Product, Trig
from koopbilevel.numerics import complex_step


def fd_gradient(dictionary, x, h=1e-5):
    g = np.zeros((dictionary.n_z, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        g[:, j] = (dictionary.eval(x + e) - dictionary.eval(x - e)) / (2 * h)
    return g


class TestLiftUnlift:
    def test_identity_dictionary(self):
        d = get_dictionary("identity", 3)
        x = np.array([0.2, -1.0, 0.5])
        assert np.array_equal(lift(d, x), x)
        assert np.array_equal(d.derivative(x, np.eye(3)), np.eye(3))

    def test_pendulum_dictionary_at_origin(self):
        d = get_dictionary("pendulum12", 2)
        z = lift(d, np.zeros(2))
        assert d.n_z == 12
        assert np.array_equal(z[:4], [0.0, 0.0, 0.0, 1.0])  # x1, x2, sin, cos
        assert z[-1] == 1.0  # constant term

    def test_unlift_inverts_lift(self):
        d = get_dictionary("pendulum12", 2)
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, size=(1000, 2))
        assert np.array_equal(unlift(d, lift(d, X)), X)

    def test_unlift_ignores_auxiliary_entries(self):
        d = get_dictionary("pendulum12", 2)
        z = lift(d, np.array([0.3, -0.4]))
        z2 = z.copy()
        z2[5:] += 10.0
        assert np.array_equal(unlift(d, z2), unlift(d, z))

    def test_zero_vector(self):
        d = get_dictionary("linear_const", 2)
        assert np.array_equal(unlift(d, np.zeros(3)), np.zeros(2))


def jacobian(dictionary, x):
    """(n_z, n_x) Jacobian of the lift at x, one derivative per state entry."""
    return dictionary.derivative(x, np.eye(x.size)).T


class TestGradients:
    def test_sin_row_at_zero(self):
        d = get_dictionary("pendulum12", 2)
        G = jacobian(d, np.array([0.0, 0.7]))
        assert np.allclose(G[2], [1.0, 0.0], atol=1e-15)  # d sin(x1) at x1=0

    @pytest.mark.parametrize("name,n_x,scale", [
        ("pendulum12", 2, 1.5),
        ("compass_gait29", 4, 0.5),
    ])
    def test_finite_difference_oracle(self, name, n_x, scale):
        d = get_dictionary(name, n_x)
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.uniform(-scale, scale, size=n_x)
            G = jacobian(d, x)
            err = np.max(np.abs(G - fd_gradient(d, x)))
            assert err <= 1e-6 * (1.0 + np.max(np.abs(G)))

    @pytest.mark.parametrize("name,n_x", [
        ("identity", 3),
        ("linear_const", 2),
        ("pendulum12", 2),
        ("compass_gait29", 4),
    ])
    def test_derivative_matches_central_differences(self, name, n_x):
        # every state negative, then mixed signs; three directions per point
        # along a leading axis, as the gEDMD and boundary tangents batch them
        d = get_dictionary(name, n_x)
        rng = np.random.default_rng(22)
        X = np.vstack([-rng.uniform(0.1, 1.5, size=(4, n_x)),
                       rng.uniform(-1.5, 1.5, size=(4, n_x))])
        V = rng.normal(size=(3,) + X.shape)
        D = d.derivative(X, V)
        assert D.shape == (3, 8, d.n_z) and D.dtype == float
        h = 1e-5
        fd = (d.eval(X + h * V) - d.eval(X - h * V)) / (2 * h)
        assert np.max(np.abs(D - fd)) <= 1e-8 * (1.0 + np.max(np.abs(D)))
        for k in range(3):
            for s in range(8):
                one = d.derivative(X[s : s + 1], V[k, s : s + 1])
                assert np.array_equal(one[0], D[k, s])

    def test_power_below_the_cap_is_exact_at_negative_states(self):
        # numpy takes (-0.5 + ih)**99 by repeated multiplication
        d = ObservableDictionary(n_x=1, terms=(Monomial((1,)), Monomial((99,))))
        got = d.derivative(np.array([-0.5]), np.ones(1))[1]
        want = 99 * 0.5**98
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("power", [100, -100, 1200])
    def test_power_of_100_or_more_is_rejected(self, power):
        with pytest.raises(ConfigError, match="magnitude below 100"):
            Monomial((1, power))


# products nested in products, factors shared between terms, a power of 3,
# a sin and a cos of one argument, and an empty product
NESTED = ObservableDictionary(n_x=3, terms=(
    Monomial((1, 0, 0)),
    Monomial((0, 1, 0)),
    Monomial((0, 0, 1)),
    Monomial((0, 0, 0)),
    Trig("cos", (0.3, -1.7, 2.5)),
    Product((Monomial((2, 0, 3)), Trig("sin", (0.3, -1.7, 2.5)),
             Monomial((0, 1, 0)))),
    Product((Trig("cos", (1.0, 0.0, 0.0)),
             Product((Monomial((0, 0, 0)), Trig("sin", (0.0, 0.5, 0.0)))))),
    Monomial((1, 2, 0)),
    Monomial((2, 0, 3)),
    Product(()),
))


def term_oracle(dictionary, X):
    return np.stack([t.value(X) for t in dictionary.terms], -1)


class TestCompiledEval:
    @pytest.mark.parametrize("name,n_x", [
        ("identity", 3),
        ("linear_const", 2),
        ("pendulum12", 2),
        ("compass_gait29", 4),
    ])
    def test_presets_match_term_oracle_bitwise(self, name, n_x):
        d = get_dictionary(name, n_x)
        rng = np.random.default_rng(18)
        for shape in [(n_x,), (2, n_x), (52, n_x), (3, 4, n_x)]:
            X = rng.uniform(-2.0, 2.0, size=shape)
            got, want = d.eval(X), term_oracle(d, X)
            assert got.shape == want.shape == shape[:-1] + (d.n_z,)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous

    def test_nested_config_dictionary_matches_term_oracle(self):
        rng = np.random.default_rng(19)
        for shape in [(3,), (2, 3), (52, 3), (3, 4, 3)]:
            X = rng.uniform(-1.5, 1.5, size=shape)
            got, want = NESTED.eval(X), term_oracle(NESTED, X)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous

    def test_random_states_match_term_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra import numpy as hnp

        d = get_dictionary("compass_gait29", 4)
        states = hnp.arrays(
            float, st.tuples(st.integers(1, 8), st.just(4)),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(states)
        def check(X):
            assert np.array_equal(d.eval(X), term_oracle(d, X))

        check()


class TestForwardMode:
    """The walk gives values and tangents in real arithmetic; the complex
    step of ``eval`` is the oracle of the tangents."""

    @staticmethod
    def check_against_oracles(d, X, V):
        psi, dpsi = d.jet(X, V)
        assert psi.shape == X.shape[:-1] + (d.n_z,)
        assert dpsi.shape == V.shape[:-1] + (d.n_z,)
        # values: bitwise the stack of term.value, and eval's
        assert np.array_equal(psi, term_oracle(d, X))
        assert np.array_equal(d.eval(X), psi)
        D = d.derivative(X, V)
        assert D.flags.c_contiguous and D.dtype == float
        assert np.array_equal(D, dpsi)
        # written into arrays of any layout, the same
        out = (np.empty(psi.shape[::-1]).T, np.empty(dpsi.shape[::-1]).T)
        assert d.jet(X, V, out) == out
        assert np.array_equal(out[0], psi) and np.array_equal(out[1], dpsi)
        # tangents: within 1e-15 of each column's largest entry
        oracle = complex_step(d.eval, X, V)
        scale = np.max(np.abs(oracle), axis=tuple(range(oracle.ndim - 1)))
        assert np.all(np.abs(D - oracle) <= 1e-15 * scale)
        return D, oracle

    @pytest.mark.parametrize("name,n_x", [
        ("identity", 3),
        ("linear_const", 2),
        ("pendulum12", 2),
        ("compass_gait29", 4),
    ])
    def test_presets_match_term_values_and_the_complex_step(self, name, n_x):
        d = get_dictionary(name, n_x)
        rng = np.random.default_rng(23)
        X = np.vstack([-rng.uniform(0.1, 2.0, size=(50, n_x)),
                       rng.uniform(-2.0, 2.0, size=(200, n_x))])
        V = rng.normal(size=(2,) + X.shape)
        D, oracle = self.check_against_oracles(d, X, V)
        if name in ("identity", "linear_const"):
            # a state copy's tangent is its direction, a constant's zero
            assert np.array_equal(D, oracle)

    def test_nested_dictionary_matches_the_complex_step(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(-1.5, 1.5, size=(40, 3))
        self.check_against_oracles(NESTED, X, rng.normal(size=(3,) + X.shape))

    def test_directions_broadcast_against_states(self):
        # one state and the canonical directions, as a Jacobian is taken
        d = get_dictionary("compass_gait29", 4)
        x = np.array([0.1, -0.2, 0.7, -1.1])
        psi, dpsi = d.jet(x, np.eye(4))
        assert psi.shape == (29,) and dpsi.shape == (4, 29)
        assert np.array_equal(d.derivative(x, np.eye(4)), dpsi)
        for e, row in zip(np.eye(4), dpsi):
            assert np.array_equal(d.derivative(x, e), row)


class TestManifoldDefect:
    def test_zero_on_lifted_points(self):
        d = get_dictionary("pendulum12", 2)
        rng = np.random.default_rng(15)
        for _ in range(50):
            assert manifold_defect(d, lift(d, rng.uniform(-1, 1, 2))) <= 1e-14

    def test_unit_offset_in_auxiliary_coordinate(self):
        d = get_dictionary("pendulum12", 2)
        z = lift(d, np.array([0.4, -0.2]))
        z[7] += 1.0
        assert abs(manifold_defect(d, z) - 1.0) <= 1e-14

    def test_batched_matches_per_point(self):
        d = get_dictionary("compass_gait29", 4)
        rng = np.random.default_rng(17)
        k = 52
        Z = lift(d, rng.uniform(-0.5, 0.5, size=(k, 4)))
        Z += rng.normal(scale=1e-2, size=Z.shape)
        batched = manifold_defect(d, Z)
        assert batched.shape == (k,)
        assert np.array_equal(batched, [manifold_defect(d, z) for z in Z])


class TestSerialization:
    def test_term_descriptors(self):
        t = Product((Monomial((0, 2)), Trig("sin", (1.0, 0.0))))
        assert t.to_config() == {"kind": "product", "factors": [
            {"kind": "monomial", "powers": [0, 2]},
            {"kind": "sin", "coeffs": [1.0, 0.0]},
        ]}
        x = np.array([0.3, 1.2])
        assert abs(t.value(x) - 1.44 * np.sin(0.3)) <= 1e-15

    @pytest.mark.parametrize("fn,oracle", [("sin", np.sin), ("cos", np.cos)])
    def test_trig_matches_the_elementwise_sum(self, fn, oracle):
        # the argument is one matrix-vector product, which may sum in another
        # order than term by term; real states and a complex-step batch
        coeffs = (0.3, -1.7, 0.0, 2.5)
        rng = np.random.default_rng(21)
        X = rng.uniform(-2.0, 2.0, size=(52, 4))
        for batch in (X, X + 1j * 2.0**-10 * rng.normal(size=X.shape)):
            arg = sum(c * batch[..., i] for i, c in enumerate(coeffs))
            # four roundings, each at most eps * sum |c| * max |x|
            atol = 4 * np.finfo(float).eps * sum(abs(c) for c in coeffs) * 2.0
            assert np.allclose(Trig(fn, coeffs).value(batch), oracle(arg),
                               rtol=0.0, atol=atol)


class TestValidation:
    def test_state_copy_prefix_enforced(self):
        with pytest.raises(ConfigError):
            ObservableDictionary(
                n_x=2,
                terms=(Monomial((0, 1)), Monomial((1, 0))),  # swapped copy
            )

    def test_too_few_terms_rejected(self):
        with pytest.raises(ConfigError):
            ObservableDictionary(n_x=2, terms=(Monomial((1, 0)),))

    def test_preset_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            get_dictionary("pendulum12", 4)
