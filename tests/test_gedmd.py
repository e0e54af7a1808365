import json

import numpy as np
import pytest

from koopbilevel import (
    ConfigError,
    DataError,
    assemble_data,
    fit_generator,
    get_dictionary,
    identify,
    linearize,
    prediction_error,
    sample_states,
    simulate,
)
from koopbilevel.gedmd import (
    load_model,
    model_from_config,
    model_to_config,
    save_model,
)
from koopbilevel.lifting import Monomial, ObservableDictionary
from koopbilevel.numerics import pinv_svd
from koopbilevel.systems import eval_rhs, make_linear_system

TWO_PI = 2.0 * np.pi


class TestSampling:
    def test_bounds_and_shape(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        s = sample_states(box, 4, seed=42)
        assert s.shape == (4, 2)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_deterministic_given_seed(self):
        box = np.array([[-1.0, 2.0], [0.0, 1.0]])
        a = sample_states(box, 100, seed=5)
        b = sample_states(box, 100, seed=5)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        box = np.array([[-1.0, 3.0], [0.5, 2.5]])
        s = sample_states(box, 45000, seed=6)
        mid = box.mean(axis=1)
        sigma = (box[:, 1] - box[:, 0]) / np.sqrt(12.0) / np.sqrt(45000)
        assert np.all(np.abs(s.mean(axis=0) - mid) <= 3.0 * sigma)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            sample_states(np.array([[1.0, 1.0]]), 10, seed=0)


class TestAssembleData:
    def test_linear_system_identity_dictionary(self, oscillator):
        d = get_dictionary("identity", 2)
        samples = sample_states(oscillator.state_box, 50, seed=1)
        Psi, (dPsi, _) = assemble_data(oscillator, d, samples)
        assert np.max(np.abs(dPsi - oscillator.params["A"] @ Psi)) <= 1e-14

    def test_pendulum_sin_row_is_lie_derivative(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        X = sample_states(pendulum.state_box, 80, seed=2)
        _, (dPsi, _) = assemble_data(pendulum, d, X)
        # d/dt sin(x1) = x2 cos(x1) regardless of drift details
        assert np.max(np.abs(dPsi[2] - X[:, 1] * np.cos(X[:, 0]))) <= 1e-12

    def test_input_channel_difference_is_gradient_column(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        X = sample_states(pendulum.state_box, 60, seed=3)
        _, (d0, d1) = assemble_data(pendulum, d, X)
        grads = d.grad(X)  # (n_s, n_z, n_x); G = [0, 1]^T
        assert np.max(np.abs((d1 - d0) - grads[:, :, 1].T)) <= 1e-12

    def test_finite_difference_directional_oracle(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        X = sample_states(pendulum.state_box, 40, seed=4)
        Psi, (_, dPsi) = assemble_data(pendulum, d, X)
        rhs = eval_rhs(pendulum, X, np.ones(1))
        h = 1e-5
        fd = (d.eval(X + h * rhs) - d.eval(X - h * rhs)).T / (2 * h)
        assert np.max(np.abs(dPsi - fd)) <= 1e-6

    def test_nonfinite_lift_reports_sample_index(self, oscillator):
        overflow = ObservableDictionary(
            n_x=2,
            terms=(Monomial((1, 0)), Monomial((0, 1)), Monomial((1200, 0))),
        )
        box = np.array([[2.0, 3.0], [0.0, 1.0]])
        samples = sample_states(box, 5, seed=5)
        with pytest.raises(DataError, match="sample 0"):
            assemble_data(oscillator, overflow, samples)


class TestFitGenerator:
    def test_exact_linear_regression(self, oscillator):
        d = get_dictionary("identity", 2)
        samples = sample_states(oscillator.state_box, 200, seed=7)
        Psi, dPsis = assemble_data(oscillator, d, samples)
        fit = fit_generator(Psi, dPsis)[0]
        assert np.max(np.abs(fit.matrix - oscillator.params["A"])) <= 1e-10
        assert fit.residual <= 1e-12
        assert not fit.rank_deficient

    def test_zero_derivatives_give_zero_matrix(self):
        rng = np.random.default_rng(8)
        Psi = rng.normal(size=(3, 40))
        (fit,) = fit_generator(Psi, [np.zeros((3, 40))])
        assert np.array_equal(fit.matrix, np.zeros((3, 3)))
        assert fit.residual == 0.0

    def test_duplicating_samples_leaves_fit_unchanged(self):
        rng = np.random.default_rng(9)
        Psi = rng.normal(size=(4, 60))
        dPsi = rng.normal(size=(4, 60))
        L1 = fit_generator(Psi, [dPsi])[0].matrix
        L2 = fit_generator(np.hstack([Psi, Psi]), [np.hstack([dPsi, dPsi])])[0].matrix
        assert np.max(np.abs(L1 - L2)) <= 1e-12

    def test_self_consistent_data_leaves_fit_unchanged(self):
        rng = np.random.default_rng(10)
        Psi = rng.normal(size=(4, 50))
        dPsi = rng.normal(size=(4, 50))
        L = fit_generator(Psi, [dPsi])[0].matrix
        extra = rng.normal(size=(4, 20))
        L2 = fit_generator(
            np.hstack([Psi, extra]), [np.hstack([dPsi, L @ extra])]
        )[0].matrix
        assert np.max(np.abs(L - L2)) <= 1e-12

    def test_rank_deficiency_recorded(self, oscillator):
        d = get_dictionary("pendulum12", 2)
        samples = sample_states(oscillator.state_box, 6, seed=11)  # n_s < n_z
        Psi, dPsis = assemble_data(oscillator, d, samples)
        assert fit_generator(Psi, dPsis)[0].rank_deficient


class TestIdentify:
    def test_exact_on_linear_systems(self, oscillator, oscillator_model):
        A, B = oscillator.params["A"], oscillator.params["B"]
        model = oscillator_model
        assert np.max(np.abs(model.L0[:2, :2] - A)) <= 1e-10
        assert np.max(np.abs(model.L0[:, 2])) <= 1e-10  # no constant drift
        d = model.dictionary
        for x in ([0.0, 0.0], [0.7, -0.3]):
            _, B_lin = linearize(model, d.eval(np.asarray(x)))
            assert np.max(np.abs(B_lin[:2] - B)) <= 1e-10

    def test_predicted_flow_matches_matrix_exponential(self, oscillator,
                                                       oscillator_model,
                                                       zoh_oracle):
        x0 = np.array([0.8, -0.2])
        model = oscillator_model
        Z = simulate(model.surrogate, model.dictionary.eval(x0), np.zeros(64),
                     TWO_PI, substeps=8)
        Ad, _ = zoh_oracle(oscillator.params["A"], oscillator.params["B"], TWO_PI)
        exact = Ad @ x0
        assert np.max(np.abs(Z[-1][:2] - exact)) <= 1e-8

    def test_rank_warning_for_undersampling(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        model = identify(pendulum, d, n_s=8, seed=12, box=pendulum.state_box)
        assert model.rank_deficient

    def test_residuals_recomputable(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        model = identify(pendulum, d, n_s=500, seed=13, box=pendulum.state_box)
        samples = sample_states(model.box, model.n_s, model.seed)
        Psi, dPsis = assemble_data(pendulum, d, samples)
        for i, L in enumerate((model.L0,) + model.Li):
            dPsi = dPsis[i]
            resid = np.linalg.norm(L @ Psi - dPsi) / np.linalg.norm(dPsi)
            assert abs(resid - model.residuals[i]) <= 1e-12


    def test_matches_per_channel_oracle_bitwise(self, pendulum):
        # lift, differentiate and decompose the samples once per channel,
        # term by term, as identification did before sharing them
        d = get_dictionary("pendulum12", 2)
        model = identify(pendulum, d, n_s=500, seed=13, box=pendulum.state_box)
        X = sample_states(model.box, model.n_s, model.seed)
        for i, L in enumerate((model.L0,) + model.Li):
            u = np.zeros(pendulum.n_u)
            u[i - 1] = float(i > 0)
            Psi = np.stack([t.value(X) for t in d.terms], -1).T
            dPsi = np.einsum(
                "szx,sx->sz", d.grad(X), eval_rhs(pendulum, X, u)).T
            pinv, rank = pinv_svd(Psi, rel_tol=model.svd_tol)
            L_oracle = dPsi @ pinv
            resid = float(np.linalg.norm(L_oracle @ Psi - dPsi)
                          / np.linalg.norm(dPsi))
            assert np.array_equal(L, L_oracle)
            assert model.residuals[i] == resid
            assert model.ranks[i] == rank

    def test_builds_no_gradient_tensor(self, pendulum, monkeypatch):
        # Lie derivatives are contracted term by term; the dictionary's
        # stacked (n_s, n_z, n_x) gradient is never asked for
        def refuse(self, x):
            raise AssertionError("ObservableDictionary.grad called")

        monkeypatch.setattr(ObservableDictionary, "grad", refuse)
        d = get_dictionary("pendulum12", 2)
        model = identify(pendulum, d, n_s=500, seed=13, box=pendulum.state_box)
        assert model.n_z == 12 and not model.rank_deficient


class TestLinearize:
    def test_zero_point_gives_zero_input_matrix(self, oscillator_model):
        A, B = linearize(oscillator_model, np.zeros(3))
        assert A is oscillator_model.L0
        assert np.array_equal(B, np.zeros((3, 1)))

    def test_linearity_in_reference_point(self, pendulum_model):
        rng = np.random.default_rng(14)
        z = rng.normal(size=pendulum_model.n_z)
        _, B1 = linearize(pendulum_model, z)
        _, B2 = linearize(pendulum_model, 2.5 * z)
        assert np.max(np.abs(B2 - 2.5 * B1)) <= 1e-12

    def test_dimension_check(self, pendulum_model):
        with pytest.raises(ConfigError):
            linearize(pendulum_model, np.zeros(3))


@pytest.fixture(scope="module")
def walker_model(walker):
    return identify(walker, get_dictionary("compass_gait29", 4), n_s=2000,
                    seed=17, box=walker.state_box)


class TestSurrogate:
    @pytest.mark.parametrize("name", ["pendulum_model", "walker_model"])
    def test_input_map_is_bitwise_the_per_channel_product(self, request, name):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(18)
        Z = rng.normal(size=(50, model.n_z))

        def columns(z):
            return np.column_stack([(Li - model.L0) @ z for Li in model.Li])

        batch = model.surrogate.input_map(Z)
        assert batch.shape == (50, model.n_z, model.n_u)
        for z, G in zip(Z, batch):
            assert np.array_equal(model.surrogate.input_map(z), columns(z))
            assert np.array_equal(G, columns(z))
            assert np.array_equal(linearize(model, z)[1], columns(z))

    def test_right_hand_side_is_the_bilinear_model(self, pendulum_model):
        model = pendulum_model
        rng = np.random.default_rng(19)
        z, u = rng.normal(size=model.n_z), rng.normal(size=model.n_u)
        bilinear = model.L0 @ z + sum(
            ui * ((Li - model.L0) @ z) for ui, Li in zip(u, model.Li))
        rhs = eval_rhs(model.surrogate, z, u)
        assert np.max(np.abs(rhs - bilinear)) <= 1e-12 * np.max(np.abs(bilinear))


class TestPredictionError:
    def test_exact_for_linear_surrogate(self, oscillator, oscillator_model):
        rng = np.random.default_rng(15)
        U = rng.normal(scale=0.2, size=(20, 1))
        err = prediction_error(
            oscillator_model, oscillator, np.array([0.3, 0.4]), U, TWO_PI,
            substeps=16,
        )
        assert np.max(err) <= 1e-8

    def test_vanishing_horizon(self, oscillator, oscillator_model):
        err = prediction_error(
            oscillator_model, oscillator, np.array([0.3, 0.4]), np.zeros((1, 1)),
            1e-9, substeps=1,
        )
        assert np.max(err) <= 1e-12


class TestPersistence:
    def test_round_trip_exact(self, pendulum_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(pendulum_model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.L0, pendulum_model.L0)
        assert all(
            np.array_equal(a, b) for a, b in zip(loaded.Li, pendulum_model.Li)
        )
        assert loaded.residuals == pendulum_model.residuals
        assert loaded.dictionary == pendulum_model.dictionary
        assert np.array_equal(loaded.box, pendulum_model.box)

    def test_bitwise_determinism(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        m1 = identify(pendulum, d, n_s=300, seed=99, box=pendulum.state_box)
        m2 = identify(pendulum, d, n_s=300, seed=99, box=pendulum.state_box)
        s1 = json.dumps(model_to_config(m1), sort_keys=True)
        s2 = json.dumps(model_to_config(m2), sort_keys=True)
        assert s1 == s2
        assert model_from_config(json.loads(s1)).L0 is not None


def test_constant_term_required_for_constant_input_maps():
    # with the plain identity dictionary the canonical-input fit cannot
    # represent a constant G; the state+constant dictionary recovers it
    sys_lin = make_linear_system(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
    )
    ident = identify(sys_lin, get_dictionary("identity", 2), n_s=400, seed=16,
                     box=sys_lin.state_box)
    with_const = identify(sys_lin, get_dictionary("linear_const", 2), n_s=400,
                          seed=16, box=sys_lin.state_box)
    z_bar = with_const.dictionary.eval(np.array([0.2, 0.1]))
    B_const = linearize(with_const, z_bar)[1][:2]
    assert np.max(np.abs(B_const - sys_lin.params["B"])) <= 1e-10
    # identity-dictionary fit has tiny induced B: both channels see ~A psi
    _, B_ident = linearize(ident, np.array([0.2, 0.1]))
    assert np.max(np.abs(B_ident)) <= 0.2  # cannot encode the constant column
