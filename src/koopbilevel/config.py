"""Experiment configuration: strict JSON schema, validation, and builders.

Configs are plain JSON. Validation is strict: unknown keys are rejected and
every error message carries the dotted path of the offending entry, so a
typo'd key fails before any compute starts.
"""

import dataclasses
import hashlib
import json

import numpy as np

from .errors import ConfigError
from .lifting import ObservableDictionary, get_dictionary
from .lower_level import BoundaryVariant
from .systems import get_system
from .upper_level import (
    UpperConfig,
    make_periodic_amplitude_anchor,
    make_walker_gait,
)
from .baseline_nlp import NlpConfig

__all__ = [
    "load_config",
    "validate_config",
    "canonical_json",
    "config_hash",
    "build_system",
    "build_dictionary",
    "build_mbc",
    "build_variants",
    "build_upper_config",
    "build_nlp_config",
]


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(obj, path, required, optional=()):
    _require(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = set(required) - set(obj)
    _require(not missing, path, f"missing required keys {sorted(missing)}")


def _check_number(val, path, lo=None, hi=None, integer=False):
    ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    _require(ok, path, f"expected a number, got {type(val).__name__}")
    if integer:
        _require(float(val).is_integer(), path, f"expected an integer, got {val}")
    if lo is not None:
        _require(val >= lo, path, f"must be >= {lo}, got {val}")
    if hi is not None:
        _require(val <= hi, path, f"must be <= {hi}, got {val}")


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
    return cls(**{f.name: f.type(block[f.name]) for f in fields if f.name in block})


_TOP_KEYS_REQ = ("system", "dictionary", "identification", "mbc", "N", "variants", "upper")
_TOP_KEYS_OPT = ("baseline", "sweep", "pcc_points")


def validate_config(cfg):
    """Validate a parsed config dict; returns it unchanged on success."""
    _check_keys(cfg, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)

    sys_cfg = cfg["system"]
    _check_keys(sys_cfg, "system", ("name",), ("params",))
    _require(isinstance(sys_cfg["name"], str), "system.name", "expected a string")
    if "params" in sys_cfg:
        _require(isinstance(sys_cfg["params"], dict), "system.params", "expected an object")

    dict_cfg = cfg["dictionary"]
    if isinstance(dict_cfg, dict):
        _check_keys(dict_cfg, "dictionary", ("n_x", "terms"), ("name",))
    else:
        _require(isinstance(dict_cfg, str), "dictionary",
                 "expected a preset name or a term-descriptor object")

    ident = cfg["identification"]
    _check_keys(ident, "identification", ("n_s", "seed"), ("svd_tol", "box"))
    _check_number(ident["n_s"], "identification.n_s", lo=1, integer=True)
    _check_number(ident["seed"], "identification.seed", lo=0, integer=True)
    if "svd_tol" in ident:
        _check_number(ident["svd_tol"], "identification.svd_tol", lo=0.0)
    if "box" in ident:
        box = ident["box"]
        _require(isinstance(box, list) and all(
            isinstance(r, list) and len(r) == 2 for r in box),
            "identification.box", "expected a list of [lower, upper] pairs")

    mbc = cfg["mbc"]
    _require(isinstance(mbc, dict) and "type" in mbc, "mbc", "expected {type: ...}")
    if mbc["type"] == "periodic_amplitude_anchor":
        _check_keys(mbc, "mbc", ("type", "amplitude_deg"))
        _check_number(mbc["amplitude_deg"], "mbc.amplitude_deg")
    elif mbc["type"] == "walker_gait":
        # rate_bound spans the finite box the upper-level search needs
        _check_keys(mbc, "mbc", ("type", "v_avg", "rate_bound"))
        _check_number(mbc["v_avg"], "mbc.v_avg", lo=0.0)
        _check_number(mbc["rate_bound"], "mbc.rate_bound", lo=0.0)
    else:
        raise ConfigError(
            f"mbc.type: unknown type '{mbc['type']}'; "
            "expected periodic_amplitude_anchor or walker_gait"
        )

    _check_number(cfg["N"], "N", lo=2, integer=True)

    variants = cfg["variants"]
    _require(isinstance(variants, list) and variants, "variants",
             "expected a non-empty list")
    for i, var in enumerate(variants):
        path = f"variants[{i}]"
        _check_keys(var, path, ("kind",), ("w",))
        _require(var["kind"] in ("b0", "bT", "soft"), f"{path}.kind",
                 "expected b0, bT, or soft")
        if var["kind"] == "soft":
            _require("w" in var, path, "soft variant needs a weight w")
            _check_number(var["w"], f"{path}.w")

    build_upper_config(cfg)
    build_nlp_config(cfg)
    if "sweep" in cfg:
        sweep = cfg["sweep"]
        _check_keys(sweep, "sweep", (), ("T_min", "T_max", "points", "amplitudes_deg"))
        if "points" in sweep:
            _check_number(sweep["points"], "sweep.points", lo=1, integer=True)
    if "pcc_points" in cfg:
        _check_number(cfg["pcc_points"], "pcc_points", lo=2, integer=True)
    return cfg


def load_config(path):
    """Read and validate a JSON config file."""
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


def build_system(cfg):
    sys_cfg = cfg["system"]
    return get_system(sys_cfg["name"], **sys_cfg.get("params", {}))


def build_dictionary(cfg, system):
    dict_cfg = cfg["dictionary"]
    if isinstance(dict_cfg, str):
        return get_dictionary(dict_cfg, system.n_x)
    dictionary = ObservableDictionary.from_config(dict_cfg)
    if dictionary.n_x != system.n_x:
        raise ConfigError(
            f"dictionary.n_x={dictionary.n_x} does not match system n_x={system.n_x}"
        )
    return dictionary


def build_mbc(cfg, system):
    mbc = cfg["mbc"]
    if mbc["type"] == "periodic_amplitude_anchor":
        return make_periodic_amplitude_anchor(np.deg2rad(mbc["amplitude_deg"]))
    return make_walker_gait(system, mbc["v_avg"], rate_bound=mbc["rate_bound"])


def build_variants(cfg):
    return [
        BoundaryVariant(kind=v["kind"], w=float(v.get("w", 0.0)))
        for v in cfg["variants"]
    ]


def build_upper_config(cfg):
    return _build_section(UpperConfig, cfg["upper"], "upper")


def build_nlp_config(cfg):
    return _build_section(NlpConfig, cfg.get("baseline", {}), "baseline")


def identification_box(cfg, system):
    ident = cfg["identification"]
    if "box" in ident:
        return np.asarray(ident["box"], dtype=float)
    return system.state_box
