"""Experiment configuration: one JSON schema, parsed once into a run.

Configs are plain JSON. :func:`validate_config` (and :func:`load_config`)
parse one into a frozen :class:`RunConfig` holding every object a run uses:
system, dictionary, identification settings, boundary constraint, variants
and the upper-level period bracket. That object is the only source of run
settings; the CLI adds no defaults of its own. Parsing is strict: unknown
keys are rejected, and every error, a constructor's included, is a
:class:`ConfigError` carrying the dotted path of the offending entry, so a
bad config fails before any compute starts.

The keys a config may set (``?`` marks an optional one):

* ``system``: ``name`` (a preset of :func:`~koopbilevel.systems.get_system`),
  ``params?`` (numeric keyword arguments of the preset)
* ``dictionary``: the name of a preset of
  :func:`~koopbilevel.lifting.get_dictionary`
* ``identification``: ``n_s``, ``seed``, ``box?`` (one ``[lower, upper]``
  row per state; defaults to the system's state box)
* ``mbc``: ``{"type": "periodic_amplitude_anchor", "amplitude_deg"}`` or
  ``{"type": "walker_gait", "v_avg", "rate_bound"}``
* ``N``: the number of knot intervals
* ``variants``: a non-empty list of ``{"kind", "w?"}`` with distinct labels
  (``kind``, or ``soft_w<w>`` for a soft variant, ``w`` printed with ``%g``),
  since each variant's results and files are keyed by its label
* ``upper``: ``T_min``, ``T_max``, with ``0 < T_min < T_max``
* ``sweep?``: ``T_min?``, ``T_max?`` (default to ``upper``'s, and with
  ``0 < T_min < T_max`` once defaulted), ``points?`` (default 101),
  ``amplitudes_deg?``

``solve`` writes the config it ran, ``RunConfig.raw``, to ``config.json`` in
canonical JSON (:func:`~koopbilevel.artifacts.canonical_json`), and
``report.json`` records that file's sha256 as ``config_hash``; ``audit``
parses it again with :func:`validate_config`.

Numbers must be finite: JSON's ``NaN``, ``Infinity`` and ``-Infinity``,
which Python's ``json`` reads, are rejected wherever a number is expected.

Solver budgets and tolerances that no run varies are constants of the module
that uses them: the SLSQP budget of :mod:`~koopbilevel.baseline_nlp`, the
SVD cutoff of :mod:`~koopbilevel.gedmd`, the PCC grid of
:mod:`~koopbilevel.artifacts` and the DIRECT cap and resolution of
:mod:`~koopbilevel.upper_level`.
"""

import contextlib
import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError
from .lifting import ObservableDictionary, get_dictionary
from .lower_level import BoundaryVariant
from .systems import ControlAffineSystem, get_system
from .upper_level import (
    MixedBoundaryConstraint,
    UpperConfig,
    make_periodic_amplitude_anchor,
    make_walker_gait,
)

__all__ = [
    "RunConfig",
    "load_config",
    "validate_config",
]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one run reads, parsed from one JSON config.

    ``raw`` is the JSON dict with any seed override applied; ``solve``
    writes it to ``config.json``. ``period_grid`` is the grid of the period
    sweep, ``amplitudes_deg`` those of the amplitude sweep (empty when not
    set).
    """

    raw: dict
    system: ControlAffineSystem
    dictionary: ObservableDictionary
    n_s: int
    seed: int
    box: np.ndarray
    mbc: MixedBoundaryConstraint
    variants: tuple
    N: int
    upper: UpperConfig
    period_grid: np.ndarray
    amplitudes_deg: tuple


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@contextlib.contextmanager
def _at(path):
    """Re-raise a constructor's error on a config value as a ConfigError at
    ``path``."""
    try:
        yield
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_keys(obj, path, required, optional=()):
    _require(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = set(required) - set(obj)
    _require(not missing, path, f"missing required keys {sorted(missing)}")


def _check_number(val, path, lo=None, integer=False):
    ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    _require(ok, path, f"expected a number, got {type(val).__name__}")
    # NaN compares false: this rejects NaN, +-inf and ints no float can hold
    _require(abs(val) <= sys.float_info.max, path, f"must be finite, got {val}")
    if integer:
        _require(float(val).is_integer(), path, f"expected an integer, got {val}")
    if lo is not None:
        _require(val >= lo, path, f"must be >= {lo}, got {val}")


def _parse_upper(upper):
    _check_keys(upper, "upper", ("T_min", "T_max"))
    for key in ("T_min", "T_max"):
        _check_number(upper[key], f"upper.{key}")
    with _at("upper"):
        return UpperConfig(T_min=float(upper["T_min"]), T_max=float(upper["T_max"]))


def _parse_system(sys_cfg):
    _check_keys(sys_cfg, "system", ("name",), ("params",))
    _require(isinstance(sys_cfg["name"], str), "system.name", "expected a string")
    params = sys_cfg.get("params", {})
    _require(isinstance(params, dict), "system.params", "expected an object")
    for key, val in params.items():
        _check_number(val, f"system.params.{key}")
    with _at("system"):
        return get_system(sys_cfg["name"], **params)


def _parse_dictionary(name, system):
    _require(isinstance(name, str), "dictionary", "expected a preset name")
    with _at("dictionary"):
        return get_dictionary(name, system.n_x)


def _parse_box(ident, system):
    if "box" not in ident:
        return system.state_box
    box = ident["box"]
    _require(isinstance(box, list) and all(
        isinstance(r, list) and len(r) == 2 for r in box),
        "identification.box", "expected a list of [lower, upper] pairs")
    _require(len(box) == system.n_x, "identification.box",
             f"expected {system.n_x} rows (system n_x), got {len(box)}")
    for i, row in enumerate(box):
        for j, val in enumerate(row):
            _check_number(val, f"identification.box[{i}][{j}]")
        _require(row[0] < row[1], f"identification.box[{i}]",
                 f"lower bound {row[0]} must be below upper bound {row[1]}")
    with _at("identification.box"):
        return np.asarray(box, dtype=float)


def _parse_mbc(mbc, system):
    _require(isinstance(mbc, dict) and "type" in mbc, "mbc", "expected {type: ...}")
    if mbc["type"] == "periodic_amplitude_anchor":
        _check_keys(mbc, "mbc", ("type", "amplitude_deg"))
        _check_number(mbc["amplitude_deg"], "mbc.amplitude_deg")
        with _at("mbc"):
            built = make_periodic_amplitude_anchor(np.deg2rad(mbc["amplitude_deg"]))
    elif mbc["type"] == "walker_gait":
        # rate_bound spans the finite box the upper-level search needs
        _check_keys(mbc, "mbc", ("type", "v_avg", "rate_bound"))
        _check_number(mbc["v_avg"], "mbc.v_avg", lo=0.0)
        _check_number(mbc["rate_bound"], "mbc.rate_bound")
        with _at("mbc"):
            built = make_walker_gait(system, mbc["v_avg"], rate_bound=mbc["rate_bound"])
    else:
        raise ConfigError(
            f"mbc.type: unknown type '{mbc['type']}'; "
            "expected periodic_amplitude_anchor or walker_gait"
        )
    _require(built.n_x == system.n_x, "mbc",
             f"'{built.name}' has n_x={built.n_x}, system n_x={system.n_x}")
    return built


def _parse_variants(variants):
    _require(isinstance(variants, list) and variants, "variants",
             "expected a non-empty list")
    parsed = []
    for i, var in enumerate(variants):
        path = f"variants[{i}]"
        _check_keys(var, path, ("kind",), ("w",))
        if "w" in var:
            _check_number(var["w"], f"{path}.w")
        with _at(path):
            variant = BoundaryVariant(kind=var["kind"], w=float(var.get("w", 0.0)))
        # results and output files are keyed by label
        _require(all(v.label != variant.label for v in parsed), path,
                 f"repeats the label '{variant.label}' of an earlier variant")
        parsed.append(variant)
    return tuple(parsed)


def _parse_sweep(sweep, upper):
    """Period grid and amplitudes; the period bracket defaults to ``upper``'s."""
    _check_keys(sweep, "sweep", (), ("T_min", "T_max", "points", "amplitudes_deg"))
    for key in ("T_min", "T_max"):
        if key in sweep:
            _check_number(sweep[key], f"sweep.{key}")
    if "points" in sweep:
        _check_number(sweep["points"], "sweep.points", lo=1, integer=True)
    amps = sweep.get("amplitudes_deg", [])
    _require(isinstance(amps, list), "sweep.amplitudes_deg", "expected a list of numbers")
    for i, a in enumerate(amps):
        _check_number(a, f"sweep.amplitudes_deg[{i}]")
    with _at("sweep"):
        bracket = UpperConfig(T_min=float(sweep.get("T_min", upper.T_min)),
                              T_max=float(sweep.get("T_max", upper.T_max)))
    grid = np.linspace(bracket.T_min, bracket.T_max, int(sweep.get("points", 101)))
    return grid, tuple(float(a) for a in amps)


_TOP_KEYS_REQ = ("system", "dictionary", "identification", "mbc", "N", "variants", "upper")
_TOP_KEYS_OPT = ("sweep",)


def validate_config(cfg, seed=None):
    """Parse a config dict into a :class:`RunConfig`.

    ``seed``, when given, replaces ``identification.seed``. Raises
    :class:`ConfigError` naming the dotted path of the first bad entry.
    """
    _check_keys(cfg, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)
    ident = cfg["identification"]
    _check_keys(ident, "identification", ("n_s", "seed"), ("box",))
    if seed is not None:
        ident = {**ident, "seed": seed}
        cfg = {**cfg, "identification": ident}
    _check_number(ident["n_s"], "identification.n_s", lo=1, integer=True)
    _check_number(ident["seed"], "identification.seed", lo=0, integer=True)
    _check_number(cfg["N"], "N", lo=2, integer=True)

    system = _parse_system(cfg["system"])
    mbc = _parse_mbc(cfg["mbc"], system)
    upper = _parse_upper(cfg["upper"])
    period_grid, amplitudes_deg = _parse_sweep(cfg.get("sweep", {}), upper)
    # the amplitude sweep builds one amplitude anchor per entry
    _require(not amplitudes_deg or cfg["mbc"]["type"] == "periodic_amplitude_anchor",
             "sweep.amplitudes_deg", "needs a periodic_amplitude_anchor mbc")
    return RunConfig(
        raw=cfg,
        system=system,
        dictionary=_parse_dictionary(cfg["dictionary"], system),
        n_s=int(ident["n_s"]),
        seed=int(ident["seed"]),
        box=_parse_box(ident, system),
        mbc=mbc,
        variants=_parse_variants(cfg["variants"]),
        N=int(cfg["N"]),
        upper=upper,
        period_grid=period_grid,
        amplitudes_deg=amplitudes_deg,
    )


def load_config(path):
    """Read a JSON config file and parse it with :func:`validate_config`."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return validate_config(cfg)
