"""Observable dictionaries: lifting maps, analytic gradients, manifold defect.

A dictionary is an ordered list of scalar terms. The first ``n_x`` terms are
always the plain state copy, so the original state is recovered from a lifted
vector by reading its leading entries (``x = C z`` with ``C = [I 0]``).

Terms are declared as serializable descriptors (monomial / sin / cos /
product) rather than opaque callables, so an identified surrogate model can be
persisted together with the exact basis it was fit in. The descriptors stay
the source of truth, and they are what ``to_config`` writes.
``ObservableDictionary.eval`` runs a column plan compiled from them once per
dictionary, which evaluates all terms in a few array operations and rounds
as the terms themselves do.
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
    "lift_gradient",
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
        return np.tensordot(X, np.asarray(self.coeffs, dtype=float), axes=([-1], [0]))

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
class _Plan:
    """Column program that evaluates a dictionary on a batch of states.

    Columns hold the distinct monomials, then the distinct trig terms, then
    the distinct products, the latter ordered so every factor comes first.
    """

    n_cols: int
    powers: tuple  # (state i, power p) of each nonzero power in a monomial
    mono_factors: np.ndarray  # (n_state, n_mono): 1 + index into powers, 0 for x_i^0
    W: np.ndarray  # distinct trig coefficient rows, (n_arg, n_x)
    trigs: tuple  # (np.sin or np.cos, rows of W, trig columns)
    products: tuple  # (factor columns (n, arity), product columns)
    terms: np.ndarray  # column of each dictionary term


def _compile(terms):
    """Plan whose rounding is that of ``term.value``, term by term.

    Monomials multiply ``x_i ** p`` in ascending state order (a zero power
    multiplies by an exact 1) and products multiply their factors in factor
    order, as ``Monomial.value`` and ``Product.value`` do. Trig arguments
    come from one matrix product instead of one dot product per term; the
    two agree exactly when every argument is exact in any summation order,
    as with coefficients in {0, +-1} and at most two nonzero (all presets),
    and otherwise by a few ulp of the argument.
    """
    monos, trigs, prods = {}, {}, {}  # insertion-ordered sets of terms

    def visit(t):
        if isinstance(t, Product):
            depth = 1 + max((visit(f) for f in t.factors), default=0)
            prods.setdefault(t, depth)
            return depth
        (monos if isinstance(t, Monomial) else trigs).setdefault(t, 0)
        return 0

    for t in terms:
        visit(t)
    order = list(monos) + list(trigs) + sorted(prods, key=prods.get)
    col = {t: j for j, t in enumerate(order)}

    n_state = max((len(m.powers) for m in monos), default=0)
    padded = [m.powers + (0,) * (n_state - len(m.powers)) for m in monos]
    powers = sorted({(i, p) for row in padded for i, p in enumerate(row) if p})
    mono_factors = np.array(
        [[powers.index((i, row[i])) + 1 if row[i] else 0 for row in padded]
         for i in range(n_state)],
        dtype=int,
    ).reshape(n_state, len(monos))
    args = list(dict.fromkeys(t.coeffs for t in trigs))
    trig_ops = tuple(
        (np.sin if fn == "sin" else np.cos,
         np.array([args.index(t.coeffs) for t in trigs if t.fn == fn]),
         np.array([col[t] for t in trigs if t.fn == fn]))
        for fn in ("sin", "cos")
        if any(t.fn == fn for t in trigs)
    )
    groups = {}
    for t, depth in prods.items():
        groups.setdefault((depth, len(t.factors)), []).append(t)
    products = tuple(
        (np.array([[col[f] for f in t.factors] for t in group],
                  dtype=int).reshape(len(group), arity),
         np.array([col[t] for t in group]))
        for (_, arity), group in sorted(groups.items())
    )
    return _Plan(
        n_cols=len(order),
        powers=tuple(powers),
        mono_factors=mono_factors,
        W=np.array(args, dtype=float),
        trigs=trig_ops,
        products=products,
        terms=np.array([col[t] for t in terms]),
    )


@dataclass(frozen=True)
class ObservableDictionary:
    """Ordered lifting basis whose first n_x terms copy the state.

    ``eval`` runs a plan compiled from ``terms`` on first use (``_compile``):
    one power per (state, power) pair and one multiply per state for all
    distinct monomials, one ``sin`` and one ``cos`` of ``X @ W.T`` over the
    distinct trig arguments, one multiply per factor position for each group
    of products, and a final column gather into term order. For every preset
    it is bitwise equal to stacking ``term.value`` over the terms, and its
    result has the same C layout. ``grad`` stays per term.
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
    def _plan(self):
        return _compile(self.terms)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        plan = self._plan
        X = x.reshape(-1, x.shape[-1])
        V = np.empty((X.shape[0], plan.n_cols))
        pw = np.empty((X.shape[0], 1 + len(plan.powers)))
        pw[:, 0] = 1.0
        for j, (i, p) in enumerate(plan.powers, start=1):
            pw[:, j] = X[:, i] ** p
        mono = 1.0
        for factors in plan.mono_factors:
            mono = mono * pw[:, factors]
        V[:, : plan.mono_factors.shape[1]] = mono
        if plan.trigs:
            A = X @ plan.W.T
            for fn, rows, cols in plan.trigs:
                V[:, cols] = fn(A[:, rows])
        for factors, cols in plan.products:
            out = 1.0
            for j in range(factors.shape[1]):
                out = out * V[:, factors[:, j]]
            V[:, cols] = out
        return V.take(plan.terms, axis=1).reshape(x.shape[:-1] + (self.n_z,))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([t.grad(x) for t in self.terms], axis=-2)

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


def lift_gradient(dictionary, x):
    """Analytic Jacobian of psi, shape (..., n_z, n_x)."""
    return dictionary.grad(x)


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
