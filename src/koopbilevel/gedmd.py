"""Bilinear Koopman generator identification from sampled Lie-derivative data.

This is gEDMD (Klus et al., *Data-driven approximation of the Koopman
generator*, Physica D 2020). For each input channel the generator restricted
to the dictionary span is the minimum-norm least-squares solution L of
``min ||L Psi - dPsi||``, where the columns of ``Psi`` are lifted sample
states and the columns of ``dPsi`` are their Lie derivatives along the drift
(index 0) or along the drift plus one canonical input channel (index i).
The Lie derivatives nabla psi . f are the dictionary's forward-mode tangents
along each channel's vector field, all channels and the lifts themselves from
one walk of the dictionary (``ObservableDictionary.jet``).

Identification is one pass over the samples (:func:`identify`). Each block
of lifts and Lie derivatives is folded into a small factor ``[R_Psi | C]`` by
a QR of the Psi columns alone, whose Q^T is applied to the derivative
columns, and the derivative rows that Q^T moves below R_Psi are kept only as
running column sums of squares. That factor and one more row, the square
roots of those sums, are the model's stored fit (``GeneratorModel.factor``),
from which every channel's fit and residual come (:func:`fit_generator`).
The identified matrices give the bilinear surrogate

    dz/dt = L0 z + sum_i u_i (Li - L0) z,

a control-affine system on lifted states (``GeneratorModel.surrogate``) whose
fields are f = L0 z and G with column i equal to (Li - L0) z. The convex
lower level linearizes it about a lifted reference point: A = L0 and B is
the surrogate's G there.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np
import scipy.linalg

from .errors import ConfigError, DataError
from .lifting import ObservableDictionary
from .numerics import eigenmodes
from .systems import ControlAffineSystem, eval_rhs

__all__ = [
    "GeneratorModel",
    "assemble_data",
    "fit_generator",
    "identify",
    "model_to_config",
]


@dataclass(frozen=True)
class GeneratorModel:
    """A gEDMD factor with provenance; L0, Li, residuals and ranks come from
    it, by :func:`fit_generator` at the module's ``_SVD_TOL``."""

    factor: np.ndarray
    dictionary: ObservableDictionary
    seed: int
    n_s: int
    box: np.ndarray
    system_name: str
    L0: np.ndarray = field(init=False)
    Li: Tuple[np.ndarray, ...] = field(init=False)
    residuals: Tuple[float, ...] = field(init=False)
    ranks: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        fits = fit_generator(self.factor, self.dictionary.n_z)
        object.__setattr__(self, "L0", fits[0].matrix)
        object.__setattr__(self, "Li", tuple(f.matrix for f in fits[1:]))
        object.__setattr__(self, "residuals", tuple(f.residual for f in fits))
        object.__setattr__(self, "ranks", tuple(f.rank for f in fits))

    @property
    def n_z(self):
        return self.L0.shape[0]

    @property
    def n_u(self):
        return len(self.Li)

    @cached_property
    def modes(self):
        """``(lam, V, Vinv)`` of L0 (``numerics.eigenmodes``), from which the
        lower level takes every discretization in closed form."""
        return eigenmodes(self.L0)

    @cached_property
    def real_modes(self):
        """:attr:`modes` with V as ``[Re V, -Im V]`` (``lower_level``)."""
        lam, V, Vinv = self.modes
        return lam, np.hstack([V.real, -V.imag]), Vinv

    @cached_property
    def surrogate(self):
        """The bilinear surrogate as a control-affine system on lifted states,
        whose ``fields(z)`` is ``(L0 z, G)`` with column i of G equal to (Li -
        L0) z. The stacked product rounds bitwise like ``(Li - L0) @ z``;
        ``einsum`` does not."""
        L0 = self.L0
        dL = np.stack([Li - L0 for Li in self.Li])

        def fields(z):
            return ((L0 @ z[..., None])[..., 0],
                    np.moveaxis((dL @ z[..., None, :, None])[..., 0], -2, -1))

        return ControlAffineSystem(
            name=f"{self.system_name} surrogate",
            n_x=self.n_z,
            n_u=self.n_u,
            fields=fields,
            state_box=None,
        )


def _draws(box, n_s, seed, block):
    """``n_s`` i.i.d. uniform samples of ``box``, one state per row, in blocks
    of ``block``, each drawn from the generator ``default_rng(seed)`` when it
    is asked for. A uniform draw takes the stream's doubles row by row, so the
    blocks, a shorter last one included, are bitwise the rows of one
    ``default_rng(seed).uniform(box[:, 0], box[:, 1], (n_s, n_x))``."""
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ConfigError(f"sampling box must have shape (n_x, 2), got {box.shape}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ConfigError("sampling box is degenerate (lower >= upper)")
    if n_s < 1:
        raise ConfigError(f"need at least one sample, got n_s={n_s}")
    rng = np.random.default_rng(seed)
    for start in range(0, int(n_s), block):
        yield rng.uniform(box[:, 0], box[:, 1],
                          size=(min(block, int(n_s) - start), box.shape[0]))


def assemble_data(system, dictionary, X, out=None):
    """Lift the samples ``X`` (one state per row) and compute their Lie
    derivatives per channel.

    Channel 0 uses u = 0; channel i in 1..n_u uses the canonical basis input
    u = e_i. Every channel's vector field comes from one ``eval_rhs`` over
    the stacked inputs, so the system's ``fields`` are evaluated once, and
    the lifts and every channel's Lie derivatives from one walk of the
    dictionary along those vector fields (``ObservableDictionary.jet``), in
    real arithmetic. Returns ``(Psi, dPsis)``: ``Psi`` with one column per
    sample, and one such ``dPsi`` per channel. Given ``out``, a pair of
    arrays shaped ``(n_s, n_z)`` and ``(n_u + 1, n_s, n_z)``, the lifts and
    Lie derivatives are written there and returned as views of it:
    :func:`identify` passes the rows it folds, one block of ``_BLOCK``
    samples at a time.
    """
    inputs = np.eye(system.n_u + 1, system.n_u, -1)  # 0, e_1, ..., e_n_u
    psi, dpsi = dictionary.jet(X, eval_rhs(system, X, inputs[:, None, :]), out)
    return psi.T, tuple(d.T for d in dpsi)


# singular values of Psi at most this fraction of the largest are truncated. At
# the bundle seeds the smallest ratio is 0.56 (fig1), 8.6e-4 (pendulum) and
# 2.2e-6 (walker), so those fits keep full rank and only an undersampled fit
# is cut. model.json records the value with the fit.
_SVD_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    matrix: np.ndarray
    residual: float
    rank: int


def fit_generator(R, n_z):
    """Minimum-norm least-squares generator fits of ``L Psi = dPsi``, one
    ``np.linalg.lstsq`` per channel, from a factor ``R`` of the sample rows
    ``[Psi^T | dPsi_0^T | ... | dPsi_{n_u}^T]``: any R with ``||Psi^T X -
    dPsi_c^T|| = ||R_Psi X - R_c||`` for every X, where ``R_Psi`` is R's
    leading ``n_z`` columns and ``R_c`` channel c's columns. The triangular
    factor of one QR of those rows is one. :func:`identify` passes ``[R_Psi
    | C]``, from a QR of the Psi columns alone, and one more row: zeros under
    Psi, and under each derivative column the norm of what Q^T put below
    R_Psi, which no X can reduce.

    Such an ``R_Psi`` has the singular values of ``Psi``. LAPACK's ``gelsd``
    treats those at most ``_SVD_TOL`` times the largest as zero; a fit of
    lower rank goes on in the retained subspace and records its rank. The
    residual ``||R_Psi L^T - R_c|| / ||R_c||`` equals ``||L Psi - dPsi|| /
    ||dPsi||``.
    """
    R_psi = R[:, :n_z]
    fits = []
    for start in range(n_z, R.shape[1], n_z):
        R_c = R[:, start:start + n_z]
        Lt, _, rank, _ = np.linalg.lstsq(R_psi, R_c, rcond=_SVD_TOL)
        # C order: BLAS rounds products with L by its layout, and every
        # product with L0 and Li was written and checked against C-order
        # matrices; a transposed view would round them differently
        L, rank = np.ascontiguousarray(Lt.T), int(rank)
        denom = np.linalg.norm(R_c)
        residual = float(np.linalg.norm(R_psi @ Lt - R_c) / denom) if denom > 0 else 0.0
        fits.append(FitResult(matrix=L, residual=residual, rank=rank))
    return fits


# samples drawn, lifted, differentiated and folded into [R_Psi | C] at a
# time; bounds the dictionary walk's temporaries and the rows held.
# Identifying walker's 45,000 samples in a fresh process on a 2-core Xeon
# at one BLAS thread (median of 5) peaked at 82.3, 83.2 and 85.9 MB RSS with
# blocks of 1024, 2048 and 4096, and took 0.06-0.07 s at each; at 2048
# fig1's 2000 samples are one block
_BLOCK = 2048

_GEQRT, _GEMQRT = scipy.linalg.get_lapack_funcs(("geqrt", "gemqrt"),
                                                dtype=np.float64)


def _fold(stack, n_z, tail):
    """Fold the sample rows below the leading ``n_z`` rows ``[R_Psi | C]`` of
    the Fortran-order ``stack`` into them: LAPACK ``geqrt`` triangularizes
    the ``n_z`` Psi columns as one block reflector, ``gemqrt`` applies its
    Q^T to the derivative columns, and the squared norms of the derivative
    columns' rows below ``n_z`` are added to ``tail``. Q^T keeps every column
    norm, so ``[R_Psi | C]`` and the tail norms carry all that a fit needs of
    the rows folded so far."""
    V, T, _ = _GEQRT(n_z, stack[:, :n_z], overwrite_a=True)
    C, _ = _GEMQRT(V, T, stack[:, n_z:], side="L", trans="T", overwrite_c=True)
    # both work in place on the stack's columns; V holds the reflectors
    # below R_Psi's diagonal
    stack[:n_z, :n_z] = np.triu(V[:n_z])
    stack[:n_z, n_z:] = C[:n_z]
    tail += np.einsum("ij,ij->j", C[n_z:], C[n_z:])


def identify(system, dictionary, n_s, seed, box):
    """Identify (L0, L1..Ln_u) from ``n_s`` uniform samples of ``box`` in one
    pass over the samples (sequential TSQR: Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 2012).

    Each block of ``_BLOCK`` samples is drawn when it is needed
    (:func:`_draws`); together the blocks are the rows of one
    ``default_rng(seed).uniform`` draw of ``n_s`` states. Each block is
    lifted and differentiated (:func:`assemble_data`) straight into its
    rows ``[psi^T | dpsi_0^T | ... | dpsi_{n_u}^T]`` under the running
    ``[R_Psi | C]``. The rows are checked for non-finite values and folded
    into it (:func:`_fold`): only the ``n_z`` Psi columns are
    triangularized, and the derivative columns keep running sums of squares
    of the rows that fall below ``n_z``. No (n_s, n_z) or (n_s, n_x) array is held. The
    model's factor is ``[R_Psi | C]`` over the square roots of those sums,
    with zeros under Psi.
    """
    n_z = dictionary.n_z
    width = (system.n_u + 2) * n_z
    # [R_Psi | C] in the leading n_z rows, starting from zeros, and the next
    # block's rows below it. A last, shorter block is followed by zero rows,
    # which fold to zero, so every fold has one shape: on walker a shorter
    # last fold rounded differently at one and two OpenBLAS threads, and a
    # library call outside ``cli.main`` runs the process's thread count
    stack = np.zeros((n_z + min(_BLOCK, int(n_s)), width), order="F")
    # the stack's columns by (term, channel), Psi's first: a view, into
    # which each block is lifted and differentiated in place
    terms = stack.reshape(len(stack), n_z, system.n_u + 2, order="F")
    tail = np.zeros(width - n_z)
    for block, X in enumerate(_draws(box, n_s, seed, _BLOCK)):
        lifted = terms[n_z:n_z + len(X)]
        assemble_data(system, dictionary, X,
                      (lifted[..., 0], np.moveaxis(lifted[..., 1:], -1, 0)))
        rows = stack[n_z:n_z + len(X)]
        finite = np.all(np.isfinite(rows), axis=1)
        if not np.all(finite):
            idx = int(np.argmin(finite))
            raise DataError(
                f"non-finite lift or Lie derivative at sample "
                f"{block * _BLOCK + idx}: x={X[idx]}"
            )
        stack[n_z + len(rows):] = 0.0
        _fold(stack, n_z, tail)
    return GeneratorModel(
        factor=np.vstack([stack[:n_z], np.concatenate([np.zeros(n_z), np.sqrt(tail)])]),
        dictionary=dictionary,
        seed=int(seed),
        n_s=int(n_s),
        box=np.asarray(box, dtype=float),
        system_name=system.name,
    )


def model_to_config(model):
    """The ``model.json`` record of ``model``: its factor, in floats that
    survive a round trip exactly, and the settings and dictionary it was fit
    with. ``audit`` diffs the file with the record of a re-identification."""
    return {
        "system_name": model.system_name,
        "dictionary": model.dictionary.to_config(),
        "factor": model.factor.tolist(),
        "svd_tol": _SVD_TOL,
        "seed": model.seed,
        "n_s": model.n_s,
        "box": model.box.tolist(),
    }
