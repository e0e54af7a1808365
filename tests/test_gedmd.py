import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from koopbilevel import (
    ConfigError,
    DataError,
    assemble_data,
    fit_generator,
    get_dictionary,
    identify,
    sample_states,
    simulate,
)
from koopbilevel import gedmd
from koopbilevel.cli import load_bundle
from koopbilevel.gedmd import model_to_config
from koopbilevel.lifting import DICTIONARY_PRESETS, Monomial, ObservableDictionary
from koopbilevel.systems import eval_rhs, make_linear_system

TWO_PI = 2.0 * np.pi

# 2000**99 overflows, at the largest power a monomial accepts
OVERFLOW = ObservableDictionary(
    n_x=2, terms=(Monomial((1, 0)), Monomial((0, 1)), Monomial((99, 0))),
)


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

    def test_blockwise_draws_equal_one_draw(self, walker):
        # the walker bundle's sample count, whose last block of 1992 is ragged
        n_s, block = 45000, gedmd._BLOCK
        blocks = list(gedmd._draws(walker.state_box, n_s, 20, block))
        assert [len(b) for b in blocks] == [block] * 21 + [n_s - 21 * block]
        assert np.array_equal(np.concatenate(blocks),
                              sample_states(walker.state_box, n_s, seed=20))

    def test_identify_lifts_the_rows_of_one_draw(self, oscillator, monkeypatch):
        # blocks of 1000 over 4500 samples: identify draws each block as it
        # goes, and together they are the rows of sample_states
        seen = []

        def recording(system, dictionary, X, out):
            seen.append(X)
            return assemble_data(system, dictionary, X, out)

        monkeypatch.setattr(gedmd, "_BLOCK", 1000)
        monkeypatch.setattr(gedmd, "assemble_data", recording)
        box = oscillator.state_box
        identify(oscillator, get_dictionary("identity", 2), n_s=4500, seed=9, box=box)
        assert [len(X) for X in seen] == [1000] * 4 + [500]
        assert np.array_equal(np.concatenate(seen), sample_states(box, 4500, seed=9))


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
        column = d.derivative(X, [0.0, 1.0])  # along G = [0, 1]^T
        assert np.max(np.abs((d1 - d0) - column.T)) <= 1e-12

    # the system each preset dictionary lifts in the bundles and tests
    @pytest.mark.parametrize("dictionary,name", [
        ("identity", "oscillator"), ("linear_const", "oscillator"),
        ("pendulum12", "pendulum"), ("compass_gait29", "walker")])
    def test_each_channel_rounds_as_one_stacked_step(self, request, dictionary, name):
        # assemble_data's lifts are eval's and its Lie derivatives are
        # derivative's along every channel's vector field at once, bitwise
        assert dictionary in DICTIONARY_PRESETS
        system = request.getfixturevalue(name)
        d = get_dictionary(dictionary, system.n_x)
        X = sample_states(system.state_box, 300, seed=8)
        inputs = np.eye(system.n_u + 1, system.n_u, -1)
        stacked = d.derivative(X, np.stack([eval_rhs(system, X, u) for u in inputs]))
        Psi, dPsis = assemble_data(system, d, X)
        assert np.array_equal(Psi, d.eval(X).T)
        assert len(dPsis) == len(stacked)
        for dPsi, expected in zip(dPsis, stacked):
            assert np.array_equal(dPsi, expected.T)
        # written into the caller's arrays, as identify passes its rows
        out = (np.empty((len(X), d.n_z)), np.empty(stacked.shape))
        Psi_out, dPsis_out = assemble_data(system, d, X, out)
        assert Psi_out.base is out[0] and all(M.base is out[1] for M in dPsis_out)
        assert np.array_equal(Psi_out, Psi)
        assert all(np.array_equal(a, b) for a, b in zip(dPsis_out, dPsis))

    def test_finite_difference_directional_oracle(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        X = sample_states(pendulum.state_box, 40, seed=4)
        Psi, (_, dPsi) = assemble_data(pendulum, d, X)
        rhs = eval_rhs(pendulum, X, np.ones(1))
        h = 1e-5
        fd = (d.eval(X + h * rhs) - d.eval(X - h * rhs)).T / (2 * h)
        assert np.max(np.abs(dPsi - fd)) <= 1e-6

def _fit(Psi, dPsis):
    """``fit_generator`` on the triangular factor of the rows ``[Psi^T |
    dPsi^T ...]``, taken by one QR."""
    R = np.linalg.qr(np.hstack([Psi.T] + [dPsi.T for dPsi in dPsis]), mode="r")
    return fit_generator(R, len(Psi))


class TestFitGenerator:
    def test_exact_linear_regression(self, oscillator):
        d = get_dictionary("identity", 2)
        samples = sample_states(oscillator.state_box, 200, seed=7)
        Psi, dPsis = assemble_data(oscillator, d, samples)
        fit = _fit(Psi, dPsis)[0]
        assert np.max(np.abs(fit.matrix - oscillator.params["A"])) <= 1e-10
        assert fit.residual <= 1e-12
        assert not fit.rank < d.n_z

    def test_zero_derivatives_give_zero_matrix(self):
        rng = np.random.default_rng(8)
        Psi = rng.normal(size=(3, 40))
        (fit,) = _fit(Psi, [np.zeros((3, 40))])
        assert np.array_equal(fit.matrix, np.zeros((3, 3)))
        assert fit.residual == 0.0

    def test_duplicating_samples_leaves_fit_unchanged(self):
        rng = np.random.default_rng(9)
        Psi = rng.normal(size=(4, 60))
        dPsi = rng.normal(size=(4, 60))
        L1 = _fit(Psi, [dPsi])[0].matrix
        L2 = _fit(np.hstack([Psi, Psi]), [np.hstack([dPsi, dPsi])])[0].matrix
        assert np.max(np.abs(L1 - L2)) <= 1e-12

    def test_self_consistent_data_leaves_fit_unchanged(self):
        rng = np.random.default_rng(10)
        Psi = rng.normal(size=(4, 50))
        dPsi = rng.normal(size=(4, 50))
        L = _fit(Psi, [dPsi])[0].matrix
        extra = rng.normal(size=(4, 20))
        L2 = _fit(
            np.hstack([Psi, extra]), [np.hstack([dPsi, L @ extra])]
        )[0].matrix
        assert np.max(np.abs(L - L2)) <= 1e-12

    @staticmethod
    def _psi_with_singular_values(s, n_s, seed):
        """``Psi = U diag(s) V^T`` with random orthonormal U and V, returned
        with its factors."""
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
        V, _ = np.linalg.qr(rng.normal(size=(n_s, len(s))))
        return (U * s) @ V.T, U, V

    # 1e-11 lies between _SVD_TOL and lstsq's default cutoff (n_s * eps)
    @pytest.mark.parametrize("ratio", [1e-14, 1e-11])
    def test_truncates_singular_values_below_the_tolerance(self, ratio):
        # the fit keeps n_z - 1 directions and returns the minimum-norm L,
        # with no component along the dropped direction
        s = np.array([3.0, 2.0, 1.0, ratio * 3.0])
        Psi, U, V = self._psi_with_singular_values(s, 50, seed=20)
        dPsi = np.random.default_rng(21).normal(size=(4, 50))
        (fit,) = _fit(Psi, [dPsi])
        assert fit.rank == 3 and fit.rank < len(s)
        L_min_norm = dPsi @ V[:, :3] @ (U[:, :3] / s[:3]).T
        assert np.max(np.abs(fit.matrix - L_min_norm)) <= 1e-12
        assert np.max(np.abs(fit.matrix @ U[:, 3])) <= 1e-12

    def test_keeps_singular_values_above_the_tolerance(self):
        s = np.array([3.0, 2.0, 1.0, 1e-8 * 3.0])
        Psi, _, _ = self._psi_with_singular_values(s, 50, seed=22)
        L = np.random.default_rng(23).normal(size=(4, 4))
        (fit,) = _fit(Psi, [L @ Psi])
        assert fit.rank == 4 and not fit.rank < len(s)
        assert np.max(np.abs(fit.matrix - L)) <= 1e-6

    def test_rank_deficiency_recorded(self, oscillator):
        d = get_dictionary("pendulum12", 2)
        samples = sample_states(oscillator.state_box, 6, seed=11)  # n_s < n_z
        Psi, dPsis = assemble_data(oscillator, d, samples)
        assert _fit(Psi, dPsis)[0].rank < d.n_z


def _folded(rows, n_z, block):
    """``[R_Psi | C]`` and the tail sums of squares of ``rows`` folded
    ``block`` rows at a time, as :func:`identify` folds a block's rows."""
    stack = np.zeros((n_z + block, rows.shape[1]), order="F")
    tail = np.zeros(rows.shape[1] - n_z)
    for start in range(0, len(rows), block):
        part = rows[start:start + block]
        stack[n_z:n_z + len(part)] = part
        stack[n_z + len(part):] = 0.0
        gedmd._fold(stack, n_z, tail)
    return stack[:n_z].copy(), tail


class TestFold:
    N_Z = 4

    @staticmethod
    def _rows(seed):
        # Psi^T and two channels' dPsi^T, one sample per row; the second
        # channel is not in the span of Psi, so its residual is far from 0
        rng = np.random.default_rng(seed)
        Psi = rng.normal(size=(4, 300))
        dPsi = [rng.normal(size=(4, 4)) @ Psi, rng.normal(size=(4, 300))]
        return Psi, dPsi, np.hstack([Psi.T] + [M.T for M in dPsi])

    # 3 is below n_z: the first fold stacks fewer sample rows than columns
    @pytest.mark.parametrize("block", [3, 64, 300])
    def test_fold_keeps_the_gram_matrix_and_the_column_norms(self, block):
        _, _, rows = self._rows(30)
        R, tail = _folded(rows, self.N_Z, block)
        R_psi = R[:, :self.N_Z]
        assert np.array_equal(R_psi, np.triu(R_psi))
        gram = rows[:, :self.N_Z].T @ rows
        assert np.max(np.abs(R_psi.T @ R - gram)) <= 1e-12 * np.max(np.abs(gram))
        norms = np.sum(R[:, self.N_Z:] ** 2, axis=0) + tail
        assert np.allclose(norms, np.sum(rows[:, self.N_Z:] ** 2, axis=0),
                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("block", [3, 64, 300])
    def test_tail_row_gives_the_explicit_residual(self, block):
        # zeros under Psi and the tail norms under the derivative columns:
        # fit_generator's residual is then ||L Psi - dPsi|| / ||dPsi||
        Psi, dPsi, rows = self._rows(31)
        R, tail = _folded(rows, self.N_Z, block)
        fits = fit_generator(
            np.vstack([R, np.concatenate([np.zeros(self.N_Z), np.sqrt(tail)])]),
            self.N_Z)
        for fit, M in zip(fits, dPsi):
            Lt = np.linalg.lstsq(Psi.T, M.T, rcond=None)[0]
            explicit = np.linalg.norm(fit.matrix @ Psi - M) / np.linalg.norm(M)
            assert np.max(np.abs(fit.matrix - Lt.T)) <= 1e-12 * np.max(np.abs(Lt))
            assert abs(fit.residual - explicit) <= 1e-12 * max(explicit, 1e-3)
        assert fits[0].residual <= 1e-13
        assert fits[1].residual >= 0.5


class TestIdentify:
    def test_exact_on_linear_systems(self, oscillator, oscillator_model):
        A, B = oscillator.params["A"], oscillator.params["B"]
        model = oscillator_model
        assert np.max(np.abs(model.L0[:2, :2] - A)) <= 1e-10
        assert np.max(np.abs(model.L0[:, 2])) <= 1e-10  # no constant drift
        d = model.dictionary
        for x in ([0.0, 0.0], [0.7, -0.3]):
            B_lin = model.surrogate.fields(d.eval(np.asarray(x)))[1]
            assert np.max(np.abs(B_lin[:2] - B)) <= 1e-10

    @pytest.mark.parametrize("bundle,fixture,calls", [
        ("fig1", "oscillator", 1), ("walker", "walker", 22)])
    def test_fields_are_evaluated_once_per_block(self, request, bundle, fixture,
                                                 calls):
        # every channel's vector field comes from one evaluation of the
        # system's fields per block of samples
        cfg = load_bundle(bundle)["config"]
        system = request.getfixturevalue(fixture)
        count = []

        def fields(x):
            count.append(len(x))
            return system.fields(x)

        ident = cfg["identification"]
        box = np.asarray(ident.get("box", system.state_box), dtype=float)
        identify(dataclasses.replace(system, fields=fields),
                 get_dictionary(cfg["dictionary"], system.n_x),
                 n_s=ident["n_s"], seed=ident["seed"], box=box)
        assert len(count) == calls
        assert sum(count) == ident["n_s"]

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
        assert min(model.ranks) < model.n_z

    def test_residuals_recomputable(self, pendulum, monkeypatch):
        # eight blocks: the tail norms carry across seven folds
        monkeypatch.setattr(gedmd, "_BLOCK", 64)
        d = get_dictionary("pendulum12", 2)
        model = identify(pendulum, d, n_s=500, seed=13, box=pendulum.state_box)
        samples = sample_states(model.box, model.n_s, model.seed)
        Psi, dPsis = assemble_data(pendulum, d, samples)
        for i, L in enumerate((model.L0,) + model.Li):
            dPsi = dPsis[i]
            resid = np.linalg.norm(L @ Psi - dPsi) / np.linalg.norm(dPsi)
            assert abs(resid - model.residuals[i]) <= 1e-12

    @pytest.mark.parametrize("name,dictionary", [("pendulum", "pendulum12"),
                                                 ("walker", "compass_gait29")],
                             ids=["pendulum", "walker"])
    def test_matches_per_channel_lstsq_oracle(self, request, name, dictionary):
        # lift and differentiate the samples once per channel, term by term
        # and all samples at once, then solve each channel's least squares on
        # the whole arrays; 5000 samples are three blocks of the stream
        system = request.getfixturevalue(name)
        d = get_dictionary(dictionary, system.n_x)
        model = identify(system, d, n_s=5000, seed=13, box=system.state_box)
        X = sample_states(model.box, model.n_s, model.seed)
        Psi = np.stack([t.value(X) for t in d.terms], -1).T
        for i, L in enumerate((model.L0,) + model.Li):
            u = np.zeros(system.n_u)
            u[i - 1] = float(i > 0)
            dPsi = d.derivative(X, eval_rhs(system, X, u)).T
            Lt, _, rank, _ = np.linalg.lstsq(Psi.T, dPsi.T, rcond=model.svd_tol)
            resid = np.linalg.norm(Lt.T @ Psi - dPsi) / np.linalg.norm(dPsi)
            assert np.max(np.abs(L - Lt.T)) <= 1e-11 * np.max(np.abs(Lt))
            assert abs(model.residuals[i] - resid) <= 1e-12 * resid
            assert model.ranks[i] == rank

    def test_block_size_leaves_the_fit_unchanged(self, pendulum, monkeypatch):
        d = get_dictionary("pendulum12", 2)

        def fit(block):
            monkeypatch.setattr(gedmd, "_BLOCK", block)
            return identify(pendulum, d, n_s=500, seed=13, box=pendulum.state_box)

        one = fit(500)
        L_one = np.stack((one.L0,) + one.Li)
        # a block of 5 is below pendulum12's 12 terms, so alone it is rank
        # deficient
        for block in (64, 5):
            several = fit(block)
            L_several = np.stack((several.L0,) + several.Li)
            assert np.max(np.abs(L_one - L_several)) <= 1e-12 * np.max(np.abs(L_one))
            assert np.allclose(several.residuals, one.residuals, rtol=1e-12, atol=0)
            assert several.ranks == one.ranks

    def test_nonfinite_lift_reports_sample_index(self, oscillator):
        box = np.array([[2000.0, 3000.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="sample 0"):
            identify(oscillator, OVERFLOW, n_s=5, seed=5, box=box)

    def test_nonfinite_sample_in_a_later_block_reports_its_index(
            self, oscillator, monkeypatch):
        # x**99 and its derivative overflow above about 1300; at this seed
        # samples 0 to 2 stay finite, and sample 3 is the second of the
        # second two-sample block
        monkeypatch.setattr(gedmd, "_BLOCK", 2)
        box = np.array([[1000.0, 1400.0], [0.0, 1.0]])
        X = sample_states(box, 12, seed=1)
        with pytest.raises(DataError) as exc:
            identify(oscillator, OVERFLOW, n_s=12, seed=1, box=box)
        assert f"sample 3: x={X[3]}" in str(exc.value)

    def test_peak_memory_is_below_one_lift_on_walker_data(self, walker):
        # one pass holds a block's lifts, Lie derivatives and complex-step
        # temporaries and the small triangular factor, never an (n_s, n_z)
        # array; Psi and every dPsi held whole peak near three of them
        d = get_dictionary("compass_gait29", 4)
        n_s = 45000  # the walker bundle's sample count
        tracemalloc.start()
        try:
            identify(walker, d, n_s=n_s, seed=20, box=walker.state_box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one real walk of the dictionary gives every channel's tangents,
        # written straight into the rows that are folded, and the samples
        # are drawn one block at a time: 0.30 of n_s n_z float64s here, and
        # 0.52 with a complex step per channel, the rows copied and one draw
        # of all the samples
        assert peak <= 0.33 * n_s * d.n_z * 8


class TestLinearize:
    """The lower level linearizes the surrogate at a lifted point z_bar:
    A = L0, and B is the surrogate's input map at z_bar."""

    def test_zero_point_gives_zero_input_matrix(self, oscillator_model):
        B = oscillator_model.surrogate.fields(np.zeros(3))[1]
        assert np.array_equal(B, np.zeros((3, 1)))

    def test_linearity_in_reference_point(self, pendulum_model):
        rng = np.random.default_rng(14)
        z = rng.normal(size=pendulum_model.n_z)
        B1 = pendulum_model.surrogate.fields(z)[1]
        B2 = pendulum_model.surrogate.fields(2.5 * z)[1]
        assert np.max(np.abs(B2 - 2.5 * B1)) <= 1e-12


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

        f_batch, G_batch = model.surrogate.fields(Z)
        assert f_batch.shape == (50, model.n_z)
        assert G_batch.shape == (50, model.n_z, model.n_u)
        for z, f, G in zip(Z, f_batch, G_batch):
            f_one, G_one = model.surrogate.fields(z)
            assert np.array_equal(f_one, model.L0 @ z) and np.array_equal(f, model.L0 @ z)
            assert np.array_equal(G_one, columns(z)) and np.array_equal(G, columns(z))

    def test_right_hand_side_is_the_bilinear_model(self, pendulum_model):
        model = pendulum_model
        rng = np.random.default_rng(19)
        z, u = rng.normal(size=model.n_z), rng.normal(size=model.n_u)
        bilinear = model.L0 @ z + sum(
            ui * ((Li - model.L0) @ z) for ui, Li in zip(u, model.Li))
        rhs = eval_rhs(model.surrogate, z, u)
        assert np.max(np.abs(rhs - bilinear)) <= 1e-12 * np.max(np.abs(bilinear))


class TestPersistence:
    def test_fitted_matrices_are_c_contiguous(self, pendulum_model):
        # products with L round by its memory layout, and every product with
        # L0 and Li was written and checked against C-order matrices
        for fitted in (pendulum_model.L0,) + pendulum_model.Li:
            assert fitted.flags.c_contiguous

    def test_bitwise_determinism(self, pendulum):
        d = get_dictionary("pendulum12", 2)
        m1 = identify(pendulum, d, n_s=300, seed=99, box=pendulum.state_box)
        m2 = identify(pendulum, d, n_s=300, seed=99, box=pendulum.state_box)
        s1 = json.dumps(model_to_config(m1), sort_keys=True)
        s2 = json.dumps(model_to_config(m2), sort_keys=True)
        assert s1 == s2


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
    B_const = with_const.surrogate.fields(z_bar)[1][:2]
    assert np.max(np.abs(B_const - sys_lin.params["B"])) <= 1e-10
    # identity-dictionary fit has tiny induced B: both channels see ~A psi
    B_ident = ident.surrogate.fields(np.array([0.2, 0.1]))[1]
    assert np.max(np.abs(B_ident)) <= 0.2  # cannot encode the constant column
