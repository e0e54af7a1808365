"""Experiment configuration: one JSON schema, parsed once into a run.

Configs are plain JSON. :func:`validate_config` (and :func:`load_config`)
parse one into a frozen :class:`RunConfig` holding every object a run uses:
system, dictionary, identification settings, boundary constraint, variants
and solver settings. That object is the only source of run settings; the CLI
adds no defaults of its own. Parsing is strict: unknown keys are rejected,
and every error, a constructor's included, is a :class:`ConfigError` carrying
the dotted path of the offending entry, so a bad config fails before any
compute starts.
"""

import contextlib
import dataclasses
import hashlib
import json

import numpy as np

from .baseline_nlp import NlpConfig
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
    "canonical_json",
    "config_hash",
]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one run reads, parsed from one JSON config.

    ``raw`` is the JSON dict with any seed override applied; it is what
    :func:`config_hash` hashes. ``period_grid`` is the grid of the period
    sweep, ``amplitudes_deg`` those of the amplitude sweep (empty when not
    set).
    """

    raw: dict
    system: ControlAffineSystem
    dictionary: ObservableDictionary
    n_s: int
    seed: int
    svd_tol: float
    box: np.ndarray
    mbc: MixedBoundaryConstraint
    variants: tuple
    N: int
    upper: UpperConfig
    nlp: NlpConfig
    period_grid: np.ndarray
    amplitudes_deg: tuple
    pcc_points: int


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
    if integer:
        _require(float(val).is_integer(), path, f"expected an integer, got {val}")
    if lo is not None:
        _require(val >= lo, path, f"must be >= {lo}, got {val}")


def _build_section(cls, block, path):
    """Build the config dataclass ``cls`` from the JSON object ``block``.

    The fields of ``cls`` are the allowed keys, those without a default the
    required ones; each value must be a number, an integer for ``int`` fields.
    """
    fields = dataclasses.fields(cls)
    _check_keys(
        block, path,
        [f.name for f in fields if f.default is dataclasses.MISSING],
        [f.name for f in fields if f.default is not dataclasses.MISSING],
    )
    for f in fields:
        if f.name in block:
            _check_number(block[f.name], f"{path}.{f.name}", integer=f.type is int)
    with _at(path):
        return cls(**{f.name: f.type(block[f.name]) for f in fields if f.name in block})


def _parse_system(sys_cfg):
    _check_keys(sys_cfg, "system", ("name",), ("params",))
    _require(isinstance(sys_cfg["name"], str), "system.name", "expected a string")
    params = sys_cfg.get("params", {})
    _require(isinstance(params, dict), "system.params", "expected an object")
    with _at("system"):
        return get_system(sys_cfg["name"], **params)


def _parse_dictionary(dict_cfg, system):
    _require(isinstance(dict_cfg, (str, dict)), "dictionary",
             "expected a preset name or a term-descriptor object")
    if isinstance(dict_cfg, str):
        with _at("dictionary"):
            return get_dictionary(dict_cfg, system.n_x)
    _check_keys(dict_cfg, "dictionary", ("n_x", "terms"), ("name",))
    with _at("dictionary"):
        dictionary = ObservableDictionary.from_config(dict_cfg)
    _require(dictionary.n_x == system.n_x, "dictionary.n_x",
             f"{dictionary.n_x} does not match system n_x={system.n_x}")
    return dictionary


def _parse_box(ident, system):
    if "box" not in ident:
        return system.state_box
    box = ident["box"]
    _require(isinstance(box, list) and all(
        isinstance(r, list) and len(r) == 2 for r in box),
        "identification.box", "expected a list of [lower, upper] pairs")
    _require(len(box) == system.n_x, "identification.box",
             f"expected {system.n_x} rows (system n_x), got {len(box)}")
    with _at("identification.box"):
        return np.asarray(box, dtype=float)


def _parse_mbc(mbc, system):
    _require(isinstance(mbc, dict) and "type" in mbc, "mbc", "expected {type: ...}")
    if mbc["type"] == "periodic_amplitude_anchor":
        _check_keys(mbc, "mbc", ("type", "amplitude_deg"))
        _check_number(mbc["amplitude_deg"], "mbc.amplitude_deg")
        with _at("mbc"):
            return make_periodic_amplitude_anchor(np.deg2rad(mbc["amplitude_deg"]))
    if mbc["type"] == "walker_gait":
        # rate_bound spans the finite box the upper-level search needs
        _check_keys(mbc, "mbc", ("type", "v_avg", "rate_bound"))
        _check_number(mbc["v_avg"], "mbc.v_avg", lo=0.0)
        _check_number(mbc["rate_bound"], "mbc.rate_bound", lo=0.0)
        with _at("mbc"):
            return make_walker_gait(system, mbc["v_avg"], rate_bound=mbc["rate_bound"])
    raise ConfigError(
        f"mbc.type: unknown type '{mbc['type']}'; "
        "expected periodic_amplitude_anchor or walker_gait"
    )


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
            parsed.append(BoundaryVariant(kind=var["kind"], w=float(var.get("w", 0.0))))
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
    grid = np.linspace(float(sweep.get("T_min", upper.T_min)),
                       float(sweep.get("T_max", upper.T_max)),
                       int(sweep.get("points", 101)))
    return grid, tuple(float(a) for a in amps)


_TOP_KEYS_REQ = ("system", "dictionary", "identification", "mbc", "N", "variants", "upper")
_TOP_KEYS_OPT = ("baseline", "sweep", "pcc_points")


def validate_config(cfg, seed=None):
    """Parse a config dict into a :class:`RunConfig`.

    ``seed``, when given, replaces ``identification.seed``. Raises
    :class:`ConfigError` naming the dotted path of the first bad entry.
    """
    _check_keys(cfg, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)
    ident = cfg["identification"]
    _check_keys(ident, "identification", ("n_s", "seed"), ("svd_tol", "box"))
    if seed is not None:
        ident = {**ident, "seed": seed}
        cfg = {**cfg, "identification": ident}
    _check_number(ident["n_s"], "identification.n_s", lo=1, integer=True)
    _check_number(ident["seed"], "identification.seed", lo=0, integer=True)
    if "svd_tol" in ident:
        _check_number(ident["svd_tol"], "identification.svd_tol", lo=0.0)
    _check_number(cfg["N"], "N", lo=2, integer=True)
    if "pcc_points" in cfg:
        _check_number(cfg["pcc_points"], "pcc_points", lo=2, integer=True)

    system = _parse_system(cfg["system"])
    upper = _build_section(UpperConfig, cfg["upper"], "upper")
    period_grid, amplitudes_deg = _parse_sweep(cfg.get("sweep", {}), upper)
    return RunConfig(
        raw=cfg,
        system=system,
        dictionary=_parse_dictionary(cfg["dictionary"], system),
        n_s=int(ident["n_s"]),
        seed=int(ident["seed"]),
        svd_tol=float(ident.get("svd_tol", 1e-10)),
        box=_parse_box(ident, system),
        mbc=_parse_mbc(cfg["mbc"], system),
        variants=_parse_variants(cfg["variants"]),
        N=int(cfg["N"]),
        upper=upper,
        nlp=_build_section(NlpConfig, cfg.get("baseline", {}), "baseline"),
        period_grid=period_grid,
        amplitudes_deg=amplitudes_deg,
        pcc_points=int(cfg.get("pcc_points", 101)),
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


def canonical_json(obj):
    """Deterministic serialization: sorted keys, exact float round trip."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def config_hash(cfg):
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()
