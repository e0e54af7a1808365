"""Observable dictionaries: lifting maps, their derivatives, manifold defect.

A dictionary is an ordered list of scalar terms. The first ``n_x`` terms are
always the plain state copy, so the original state is recovered from a lifted
vector by reading its leading entries (``x = C z`` with ``C = [I 0]``).

Terms are declared as descriptors (monomial / sin / cos / product) rather
than opaque callables, so that ``model.json`` records the exact basis a
surrogate was fit in: ``to_config`` writes them. They are not read back;
``audit`` rebuilds the dictionary from ``config.json`` and diffs what it
writes with the file.

``ObservableDictionary`` walks a program of the dictionary's distinct terms,
built once per dictionary, once per call. The walk gives each term's values
and, when asked, its tangents along a direction v: forward-mode derivatives
in real arithmetic (Griewank & Walther, *Evaluating Derivatives*, SIAM 2008),
by the power rule for a monomial, the chain rule for sin and cos and the
product rule for a product. Each distinct trig argument, and its sin and cos,
is computed once per call and shared by the terms and tangents that use it.
``eval`` is the values-only walk, bitwise equal to ``term.value`` term by
term for every dictionary; no term carries a hand-written gradient. Every
term is a product of integer powers, sines and cosines, so ``eval`` also runs
unchanged on complex states.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import ConfigError

__all__ = [
    "Monomial",
    "Trig",
    "Product",
    "ObservableDictionary",
    "lift",
    "unlift",
    "manifold_defect",
    "make_identity_dictionary",
    "make_linear_const_dictionary",
    "make_pendulum_dictionary",
    "make_compass_gait_dictionary",
    "DICTIONARY_PRESETS",
    "get_dictionary",
]


# numpy raises a complex number to an integer power by repeated
# multiplication only below this magnitude; above it goes through the
# logarithm, whose branch cut breaks a complex step of ``eval`` at negative
# states, the oracle the tangents are tested against
_MAX_POWER = 100


@dataclass(frozen=True)
class Monomial:
    """prod_i x_i^powers[i]; all powers zero gives the constant term. Each
    power's magnitude stays below 100, so a complex step of it is exact."""

    powers: Tuple[int, ...]

    def __post_init__(self):
        if any(abs(p) >= _MAX_POWER for p in self.powers):
            raise ConfigError(f"monomial powers must have magnitude below "
                              f"{_MAX_POWER}, got {self.powers}")

    def value(self, X):
        out = np.ones(np.shape(X)[:-1])
        for i, p in enumerate(self.powers):
            if p:
                out = out * X[..., i] ** p
        return out

    def to_config(self):
        return {"kind": "monomial", "powers": list(self.powers)}


@dataclass(frozen=True)
class Trig:
    """sin or cos of an integer-combination of states, fn(coeffs . x)."""

    fn: str
    coeffs: Tuple[float, ...]

    def __post_init__(self):
        if self.fn not in ("sin", "cos"):
            raise ConfigError(f"trig term must be sin or cos, got '{self.fn}'")

    def value(self, X):
        arg = X @ np.asarray(self.coeffs)
        return np.sin(arg) if self.fn == "sin" else np.cos(arg)

    def to_config(self):
        return {"kind": self.fn, "coeffs": list(float(c) for c in self.coeffs)}


@dataclass(frozen=True)
class Product:
    """Product of sub-terms."""

    factors: tuple

    def value(self, X):
        out = np.ones(np.shape(X)[:-1])
        for f in self.factors:
            out = out * f.value(X)
        return out

    def to_config(self):
        return {"kind": "product", "factors": [f.to_config() for f in self.factors]}


def _is_state_copy(term, index, n_x):
    if not isinstance(term, Monomial) or len(term.powers) != n_x:
        return False
    return all(p == (1 if i == index else 0) for i, p in enumerate(term.powers))


@dataclass(frozen=True)
class ObservableDictionary:
    """Ordered lifting basis whose first n_x terms copy the state.

    ``_walk`` runs ``_program``, built on first use: the distinct terms in
    dependency order, every product after its factors. A monomial's value is
    the product of its nonzero powers in state order, a trig term's the sin
    or cos of ``x @ coeffs`` and a product's the product of its factors'
    columns in factor order, each as the term's own ``value`` rounds it, so
    for every dictionary ``eval`` is bitwise equal to stacking ``term.value``
    over the terms, in the same C layout.
    """

    n_x: int
    terms: tuple
    name: str = "custom"

    def __post_init__(self):
        if len(self.terms) < self.n_x:
            raise ConfigError("dictionary must contain at least the state copy")
        for i in range(self.n_x):
            if not _is_state_copy(self.terms[i], i, self.n_x):
                raise ConfigError(
                    f"dictionary term {i} must be the state copy x{i + 1}"
                )

    @property
    def n_z(self):
        return len(self.terms)

    @cached_property
    def _program(self):
        """The distinct terms as steps in dependency order, every product
        after its factors; the position of each dictionary term among them;
        and the distinct trig arguments' coefficient vectors. A step is
        ``("monomial", ((state, power), ...))`` over the nonzero powers,
        ``("trig", fn, argument)`` or ``("product", factor steps)``."""
        index, steps, args = {}, [], {}

        def visit(t):
            if t not in index:
                if isinstance(t, Product):
                    step = ("product", tuple(visit(f) for f in t.factors))
                elif isinstance(t, Trig):
                    step = ("trig", t.fn, args.setdefault(t.coeffs, len(args)))
                else:
                    step = ("monomial", tuple((i, p) for i, p in enumerate(t.powers) if p))
                index[t] = len(steps)
                steps.append(step)
            return index[t]

        positions = tuple(visit(t) for t in self.terms)
        return tuple(steps), positions, tuple(np.asarray(c) for c in args)

    def _walk(self, x, v=None):
        """Value columns of the program's steps at the states x and, given
        v, their tangents along v. A tangent has the leading shape of x and
        v broadcast, or is the scalar 0.0 for a constant."""
        steps, _, coeffs = self._program
        xs = [x[..., i] for i in range(x.shape[-1])]
        ones = np.ones(x.shape[:-1])  # never written
        # each distinct trig argument x @ c, its sin and cos, and v @ c
        trig = [(np.sin(a), np.cos(a)) for a in (x @ c for c in coeffs)]
        if v is not None:
            vs = [v[..., i] for i in range(v.shape[-1])]
            dargs = [v @ c for c in coeffs]
        vals, tans = [], []
        for kind, *data in steps:
            val, tan = ones, 0.0
            if kind == "monomial":
                for n, (i, p) in enumerate(data[0]):
                    f = xs[i] ** p
                    if v is not None:
                        df = vs[i] if p == 1 else p * xs[i] ** (p - 1) * vs[i]
                        tan = tan * f + val * df if n else df
                    val = val * f if n else f
            elif kind == "trig":
                fn, a = data
                sin, cos = trig[a]
                val = sin if fn == "sin" else cos
                if v is not None:
                    tan = cos * dargs[a] if fn == "sin" else -sin * dargs[a]
            else:
                for n, j in enumerate(data[0]):
                    if v is not None:
                        tan = tan * vals[j] + val * tans[j] if n else tans[j]
                    val = val * vals[j] if n else vals[j]
            vals.append(val)
            tans.append(tan)
        return vals, tans

    def _gather(self, cols, out):
        """Write the dictionary terms' columns of a walk into the last axis
        of ``out``, each broadcast to its leading shape, and return ``out``."""
        for k, j in enumerate(self._program[1]):
            out[..., k] = cols[j]
        return out

    @staticmethod
    def _states(x, v=None):
        """x as a float or complex array, v as a float array, and the
        leading shape of the columns: x's, or x's and v's broadcast."""
        x = np.asarray(x)
        x = x.astype(np.result_type(x.dtype, float), copy=False)
        if v is None:
            return x, None, x.shape[:-1]
        v = np.asarray(v, dtype=float)
        return x, v, np.broadcast_shapes(x.shape, v.shape)[:-1]

    def eval(self, x):
        """psi(x), shape ``x.shape[:-1] + (n_z,)``; complex x gives complex
        values."""
        x, _, shape = self._states(x)
        return self._gather(self._walk(x)[0], np.empty(shape + (self.n_z,), x.dtype))

    def derivative(self, x, v):
        """Derivative of psi at the real states x along v, exact up to
        rounding. ``v`` broadcasts against x and may carry leading axes of
        directions: ``x`` (n_s, n_x) and ``v`` (k, n_s, n_x) give (k, n_s,
        n_z)."""
        return self.jet(x, v)[1]

    def jet(self, x, v, out=None):
        """``(psi(x), derivative of psi at x along v)`` from one walk, bitwise
        :meth:`eval` and :meth:`derivative`. Given ``out``, a pair of arrays
        of their shapes in any memory layout, they are written there and
        ``out`` is returned."""
        x, v, shape = self._states(x, v)
        vals, tans = self._walk(x, v)
        if out is None:
            out = (np.empty(x.shape[:-1] + (self.n_z,)), np.empty(shape + (self.n_z,)))
        return self._gather(vals, out[0]), self._gather(tans, out[1])

    def to_config(self):
        return {
            "name": self.name,
            "n_x": self.n_x,
            "terms": [t.to_config() for t in self.terms],
        }


def lift(dictionary, x):
    """z = psi(x); the leading n_x entries equal x."""
    return dictionary.eval(x)


def unlift(dictionary, z):
    """x = C z with C = [I 0]: read the state copy off the lifted vector."""
    z = np.asarray(z, dtype=float)
    return z[..., : dictionary.n_x]


def manifold_defect(dictionary, z):
    """Distance ||z - psi(C z)||_2 from lifted points to the lift manifold.

    ``z`` has shape ``(..., n_z)``; the result has shape ``z.shape[:-1]``, one
    distance per lifted point, from a single dictionary evaluation. A single
    point (1-D ``z``) gives a Python float.
    """
    z = np.asarray(z, dtype=float)
    dist = np.linalg.norm(z - dictionary.eval(unlift(dictionary, z)), axis=-1)
    return float(dist) if z.ndim == 1 else dist


def _e(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def _zeros(n):
    return tuple(0 for _ in range(n))


def _state_copy(n_x):
    return [Monomial(powers=_e(i, n_x)) for i in range(n_x)]


def make_identity_dictionary(n_x):
    """State copy only; lifts a system to itself."""
    return ObservableDictionary(n_x=n_x, terms=tuple(_state_copy(n_x)), name="identity")


def make_linear_const_dictionary(n_x):
    """State copy plus a constant; exact for linear systems with constant G."""
    terms = _state_copy(n_x) + [Monomial(powers=_zeros(n_x))]
    return ObservableDictionary(n_x=n_x, terms=tuple(terms), name="linear_const")


def make_pendulum_dictionary():
    """12-term trigonometric/polynomial basis for the pendulum."""
    n = 2
    sin1 = Trig("sin", (1.0, 0.0))
    cos1 = Trig("cos", (1.0, 0.0))
    x2 = Monomial((0, 1))
    x2sq = Monomial((0, 2))
    terms = _state_copy(n) + [
        sin1,
        cos1,
        Product((x2, sin1)),
        Product((x2, cos1)),
        Product((x2sq, sin1)),
        Product((x2sq, cos1)),
        Monomial((1, 1)),
        Monomial((2, 0)),
        Monomial((0, 2)),
        Monomial((0, 0)),
    ]
    return ObservableDictionary(n_x=n, terms=tuple(terms), name="pendulum12")


def make_compass_gait_dictionary():
    """29-term basis for the walker: trig of leg angles, rate-trig products,
    rate quadratics, and Coriolis-style cross terms."""
    n = 4
    angles = [
        (1.0, 0.0, 0.0, 0.0),   # th_st
        (0.0, 1.0, 0.0, 0.0),   # th_sw
        (1.0, -1.0, 0.0, 0.0),  # th_st - th_sw
    ]
    trigs = [Trig(fn, c) for c in angles for fn in ("sin", "cos")]
    w_st = Monomial((0, 0, 1, 0))
    w_sw = Monomial((0, 0, 0, 1))
    s_rel = Trig("sin", (1.0, -1.0, 0.0, 0.0))
    terms = _state_copy(n)
    terms += trigs
    terms += [Product((w, t)) for w in (w_st, w_sw) for t in trigs]
    terms += [Monomial((0, 0, 2, 0)), Monomial((0, 0, 0, 2)), Monomial((0, 0, 1, 1))]
    terms += [
        Product((Monomial((0, 0, 2, 0)), s_rel)),
        Product((Monomial((0, 0, 0, 2)), s_rel)),
        Product((Monomial((0, 0, 1, 1)), s_rel)),
    ]
    terms += [Monomial(_zeros(n))]
    return ObservableDictionary(n_x=n, terms=tuple(terms), name="compass_gait29")


DICTIONARY_PRESETS = {
    "identity": make_identity_dictionary,
    "linear_const": make_linear_const_dictionary,
    "pendulum12": lambda n_x=2: make_pendulum_dictionary(),
    "compass_gait29": lambda n_x=4: make_compass_gait_dictionary(),
}


def get_dictionary(name, n_x):
    """Instantiate a named dictionary preset for an n_x-dimensional state."""
    if name not in DICTIONARY_PRESETS:
        raise ConfigError(
            f"unknown dictionary preset '{name}'; available: {sorted(DICTIONARY_PRESETS)}"
        )
    d = DICTIONARY_PRESETS[name](n_x)
    if d.n_x != n_x:
        raise ConfigError(
            f"dictionary '{name}' is for n_x={d.n_x}, system has n_x={n_x}"
        )
    return d
