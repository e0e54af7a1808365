"""Observable dictionaries: lifting maps, analytic gradients, manifold defect.

A dictionary is an ordered list of scalar terms. The first ``n_x`` terms are
always the plain state copy, so the original state is recovered from a lifted
vector by reading its leading entries (``x = C z`` with ``C = [I 0]``).

Terms are declared as serializable descriptors (monomial / sin / cos /
product) rather than opaque callables, so an identified surrogate model can be
persisted together with the exact basis it was fit in. The descriptors stay
the source of truth, and they are what ``to_config`` writes.
``ObservableDictionary.eval`` and ``grad`` walk a program of the
dictionary's distinct terms, built once per dictionary, that evaluates each
of them once with its own ``value`` and ``grad`` (a product from its
factors' columns), so they are bitwise equal to ``term.value`` and
``term.grad`` term by term for every dictionary.
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
    "term_from_config",
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


@dataclass(frozen=True)
class Monomial:
    """prod_i x_i^powers[i]; all powers zero gives the constant term."""

    powers: Tuple[int, ...]

    def value(self, X):
        out = np.ones(np.shape(X)[:-1])
        for i, p in enumerate(self.powers):
            if p:
                out = out * X[..., i] ** p
        return out

    def grad(self, X):
        g = np.zeros(np.shape(X))
        for j, pj in enumerate(self.powers):
            if not pj:
                continue
            col = pj * X[..., j] ** (pj - 1)
            for i, p in enumerate(self.powers):
                if p and i != j:
                    col = col * X[..., i] ** p
            g[..., j] = col
        return g

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

    def _arg(self, X):
        return X @ np.asarray(self.coeffs, dtype=float)

    def value(self, X):
        arg = self._arg(X)
        return np.sin(arg) if self.fn == "sin" else np.cos(arg)

    def grad(self, X):
        arg = self._arg(X)
        d = np.cos(arg) if self.fn == "sin" else -np.sin(arg)
        return d[..., None] * np.asarray(self.coeffs, dtype=float)

    def to_config(self):
        return {"kind": self.fn, "coeffs": list(float(c) for c in self.coeffs)}


@dataclass(frozen=True)
class Product:
    """Product of sub-terms; gradient by the product rule."""

    factors: tuple

    def value(self, X):
        out = np.ones(np.shape(X)[:-1])
        for f in self.factors:
            out = out * f.value(X)
        return out

    def grad(self, X):
        vals = [f.value(X) for f in self.factors]
        g = np.zeros(np.shape(X))
        for k, f in enumerate(self.factors):
            rest = np.ones(np.shape(X)[:-1])
            for j, v in enumerate(vals):
                if j != k:
                    rest = rest * v
            g = g + rest[..., None] * f.grad(X)
        return g

    def to_config(self):
        return {"kind": "product", "factors": [f.to_config() for f in self.factors]}


def term_from_config(cfg):
    """Rebuild a term from its JSON descriptor."""
    kind = cfg.get("kind")
    if kind == "monomial":
        return Monomial(powers=tuple(int(p) for p in cfg["powers"]))
    if kind in ("sin", "cos"):
        return Trig(fn=kind, coeffs=tuple(float(c) for c in cfg["coeffs"]))
    if kind == "product":
        return Product(factors=tuple(term_from_config(f) for f in cfg["factors"]))
    raise ConfigError(f"unknown term kind '{kind}'")


def _is_state_copy(term, index, n_x):
    if not isinstance(term, Monomial) or len(term.powers) != n_x:
        return False
    return all(p == (1 if i == index else 0) for i, p in enumerate(term.powers))


@dataclass(frozen=True)
class ObservableDictionary:
    """Ordered lifting basis whose first n_x terms copy the state.

    ``eval`` and ``grad`` run ``_program``, built on first use: the distinct
    terms in dependency order, every product after its factors. They call
    each distinct monomial's and trig term's own ``value`` (and ``grad``)
    once, and build each product from its factors' columns in factor order
    from ones, as ``Product.value`` and ``Product.grad`` do, so for every
    dictionary they are bitwise equal to stacking ``term.value`` or
    ``term.grad`` over the terms, in the same C layout.
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
        """((term, factor positions or None), ...) in dependency order, and
        the position of each dictionary term in it."""
        index, program = {}, []

        def visit(t):
            if t not in index:
                factors = (tuple(visit(f) for f in t.factors)
                           if isinstance(t, Product) else None)
                index[t] = len(program)
                program.append((t, factors))
            return index[t]

        positions = tuple(visit(t) for t in self.terms)
        return tuple(program), positions

    def _run(self, x, with_grad):
        """Values, and gradients if asked, of the program's terms at x."""
        cols, grads = [], []
        ones, zeros = np.ones(x.shape[:-1]), np.zeros(x.shape)  # never written
        for term, factors in self._program[0]:
            if factors is None:
                cols.append(term.value(x))
                if with_grad:
                    grads.append(term.grad(x))
                continue
            out = ones
            for j in factors:
                out = out * cols[j]
            if with_grad:  # the product rule, as Product.grad applies it
                g = zeros
                for k in range(len(factors)):
                    rest = ones
                    for i, j in enumerate(factors):
                        if i != k:
                            rest = rest * cols[j]
                    g = g + rest[..., None] * grads[factors[k]]
                grads.append(g)
            cols.append(out)
        return cols, grads

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        cols, _ = self._run(x, with_grad=False)
        return np.stack([cols[j] for j in self._program[1]], axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        _, grads = self._run(x, with_grad=True)
        return np.stack([grads[j] for j in self._program[1]], axis=-2)

    def to_config(self):
        return {
            "name": self.name,
            "n_x": self.n_x,
            "terms": [t.to_config() for t in self.terms],
        }

    @staticmethod
    def from_config(cfg):
        return ObservableDictionary(
            n_x=int(cfg["n_x"]),
            terms=tuple(term_from_config(t) for t in cfg["terms"]),
            name=str(cfg.get("name", "custom")),
        )


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
