"""Bilinear Koopman generator identification from sampled Lie-derivative data.

This is gEDMD (Klus et al., *Data-driven approximation of the Koopman
generator*, Physica D 2020). For each input channel the generator restricted
to the dictionary span is fit by least squares: ``L = dPsi @ pinv(Psi)``
where the columns of ``Psi`` are lifted sample states and the columns of
``dPsi`` are their Lie derivatives along the drift (index 0) or along the
drift plus one canonical input channel (index i). The Lie derivatives
nabla psi . f are complex steps of the dictionary along each channel's vector
field (``ObservableDictionary.derivative``). The identified matrices
give the bilinear surrogate

    dz/dt = L0 z + sum_i u_i (Li - L0) z,

a control-affine system on lifted states (``GeneratorModel.surrogate``) with
drift L0 z and input column i equal to (Li - L0) z. ``systems.simulate``
integrates it with the same RK4 as the true system, and the convex lower
level linearizes it about a lifted reference point: A = L0 and B is the
surrogate's input map there.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, DataError
from .lifting import ObservableDictionary
from .numerics import eigenmodes, pinv_svd
from .systems import ControlAffineSystem, eval_rhs, simulate

__all__ = [
    "GeneratorModel",
    "sample_states",
    "assemble_data",
    "fit_generator",
    "identify",
    "prediction_error",
    "save_model",
    "load_model",
    "model_to_config",
    "model_from_config",
]


@dataclass(frozen=True)
class GeneratorModel:
    """Identified generator matrices plus fit provenance."""

    L0: np.ndarray
    Li: Tuple[np.ndarray, ...]
    dictionary: ObservableDictionary
    residuals: Tuple[float, ...]
    ranks: Tuple[int, ...]
    svd_tol: float
    seed: int
    n_s: int
    box: np.ndarray
    system_name: str

    @property
    def n_z(self):
        return self.L0.shape[0]

    @property
    def n_u(self):
        return len(self.Li)

    @property
    def rank_deficient(self):
        return any(r < self.n_z for r in self.ranks)

    @cached_property
    def modes(self):
        """``(lam, V, Vinv)`` of L0 (``numerics.eigenmodes``), from which the
        lower level takes every discretization in closed form."""
        return eigenmodes(self.L0)

    @cached_property
    def surrogate(self):
        """The bilinear surrogate as a control-affine system on lifted states:
        drift L0 z, input column i equal to (Li - L0) z. The stacked product
        rounds bitwise like ``(Li - L0) @ z``; ``einsum`` does not."""
        L0 = self.L0
        G = np.stack([Li - L0 for Li in self.Li])

        def drift(z):
            return (L0 @ z[..., None])[..., 0]

        def input_map(z):
            return np.moveaxis((G @ z[..., None, :, None])[..., 0], -2, -1)

        return ControlAffineSystem(
            name=f"{self.system_name} surrogate",
            n_x=self.n_z,
            n_u=self.n_u,
            drift=drift,
            input_map=input_map,
            state_box=None,
        )


def sample_states(box, n_s, seed):
    """Draw n_s i.i.d. uniform samples in the box, one state per row of the
    returned array, deterministic in the seed."""
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ConfigError(f"sampling box must have shape (n_x, 2), got {box.shape}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ConfigError("sampling box is degenerate (lower >= upper)")
    if n_s < 1:
        raise ConfigError(f"need at least one sample, got n_s={n_s}")
    rng = np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1], size=(int(n_s), box.shape[0]))


def _canonical_input(system, input_index):
    u = np.zeros(system.n_u)
    if input_index > 0:
        u[input_index - 1] = 1.0
    return u


# samples differentiated per dictionary evaluation in assemble_data; bounds
# its complex temporaries to a few blocks' worth whatever the sample count
_BLOCK = 2048


def assemble_data(system, dictionary, X):
    """Lift the samples ``X`` (one state per row) once and compute their Lie
    derivatives per channel.

    Channel 0 uses u = 0; channel i in 1..n_u uses the canonical basis input
    u = e_i. Each block of ``_BLOCK`` samples takes every channel's Lie
    derivatives from one complex-step evaluation of the dictionary along the
    channels' vector fields, written into preallocated arrays, so no whole
    complex array is held. Returns ``(Psi, dPsis)``: ``Psi`` with one column
    per sample, and one such ``dPsi`` per channel.
    """
    Psi = dictionary.eval(X)
    inputs = [_canonical_input(system, i) for i in range(system.n_u + 1)]
    dPsis = np.empty((len(inputs),) + Psi.shape)
    for start in range(0, len(X), _BLOCK):
        block = slice(start, start + _BLOCK)
        fields = np.stack([eval_rhs(system, X[block], u) for u in inputs])
        dPsis[:, block] = dictionary.derivative(X[block], fields)
    finite = (np.all(np.isfinite(Psi), axis=1)
              & np.all(np.isfinite(dPsis), axis=(0, 2)))
    if not np.all(finite):
        idx = int(np.argmin(finite))
        raise DataError(
            f"non-finite lift or Lie derivative at sample {idx}: x={X[idx]}"
        )
    return Psi.T, tuple(dPsi.T for dPsi in dPsis)


# singular values of Psi below this fraction of the largest are truncated. At
# the bundle seeds the smallest ratio is 0.56 (fig1), 8.6e-4 (pendulum) and
# 2.2e-6 (walker), so those fits keep full rank and only an undersampled fit
# is cut. model.json records the value with the fit.
_SVD_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    matrix: np.ndarray
    residual: float
    rank: int
    rank_deficient: bool


def fit_generator(Psi, dPsis):
    """Least-squares generator fits ``L = dPsi @ pinv(Psi)``, one per ``dPsi``.

    The pseudo-inverse is computed once and truncates singular values below
    ``_SVD_TOL`` relative to the largest. A rank-deficient regression is not
    fatal: each fit proceeds on the retained subspace and the deficiency is
    recorded on its result.
    """
    Psi = np.asarray(Psi, dtype=float)
    n_z = Psi.shape[0]
    pinv, rank = pinv_svd(Psi, rel_tol=_SVD_TOL)
    fits = []
    for dPsi in dPsis:
        dPsi = np.asarray(dPsi, dtype=float)
        L = dPsi @ pinv
        denom = np.linalg.norm(dPsi)
        residual = float(np.linalg.norm(L @ Psi - dPsi) / denom) if denom > 0 else 0.0
        fits.append(FitResult(
            matrix=L,
            residual=residual,
            rank=rank,
            rank_deficient=rank < n_z,
        ))
    return fits


def identify(system, dictionary, n_s, seed, box):
    """Identify (L0, L1..Ln_u) from ``n_s`` uniform samples of ``box``.

    The samples are lifted, differentiated and decomposed (one SVD) once;
    each input channel then costs only its Lie derivatives and one product
    with the pseudo-inverse.
    """
    X = sample_states(box, n_s, seed)
    Psi, dPsis = assemble_data(system, dictionary, X)
    fits = fit_generator(Psi, dPsis)
    return GeneratorModel(
        L0=fits[0].matrix,
        Li=tuple(f.matrix for f in fits[1:]),
        dictionary=dictionary,
        residuals=tuple(f.residual for f in fits),
        ranks=tuple(f.rank for f in fits),
        svd_tol=_SVD_TOL,
        seed=int(seed),
        n_s=int(n_s),
        box=np.asarray(box, dtype=float),
        system_name=system.name,
    )


def prediction_error(model, system, x0, U, T, substeps=16):
    """Per-state RMS gap between the bilinear surrogate and the true flow
    under the ``(N, n_u)`` inputs ``U`` held piecewise constant over ``T``.

    Integrates the bilinear surrogate (not its linearization) so
    identification error is measured separately from linearization error.
    """
    truth = simulate(system, x0, U, T, substeps=substeps)
    Z = simulate(model.surrogate, model.dictionary.eval(x0), U, T,
                 substeps=substeps)
    err = Z[:, : system.n_x] - truth
    return np.sqrt(np.mean(err**2, axis=0))


def model_to_config(model):
    """JSON-ready representation; floats survive a round trip exactly."""
    return {
        "system_name": model.system_name,
        "dictionary": model.dictionary.to_config(),
        "L0": model.L0.tolist(),
        "Li": [Li.tolist() for Li in model.Li],
        "residuals": list(model.residuals),
        "ranks": list(model.ranks),
        "svd_tol": model.svd_tol,
        "seed": model.seed,
        "n_s": model.n_s,
        "box": model.box.tolist(),
    }


def model_from_config(cfg):
    return GeneratorModel(
        L0=np.asarray(cfg["L0"], dtype=float),
        Li=tuple(np.asarray(Li, dtype=float) for Li in cfg["Li"]),
        dictionary=ObservableDictionary.from_config(cfg["dictionary"]),
        residuals=tuple(float(r) for r in cfg["residuals"]),
        ranks=tuple(int(r) for r in cfg["ranks"]),
        svd_tol=float(cfg["svd_tol"]),
        seed=int(cfg["seed"]),
        n_s=int(cfg["n_s"]),
        box=np.asarray(cfg["box"], dtype=float),
        system_name=str(cfg["system_name"]),
    )


def save_model(model, path):
    write_json(path, model_to_config(model))


def load_model(path):
    with open(path) as fh:
        return model_from_config(json.load(fh))
