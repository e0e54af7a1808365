import copy
import glob
import json
import os

import pytest

from koopbilevel import ConfigError, cli, config
from koopbilevel.config import validate_config


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_reproduce_fig1_is_clean_and_deterministic(tmp_path):
    outs = [str(tmp_path / "first"), str(tmp_path / "second")]
    for out in outs:
        assert cli.main(["reproduce", "--bundle", "fig1", "--out", out]) == 0
        assert cli.main(["audit", "--out", out]) == 0

    names = ["report.json", "sweep_T.csv"] + sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(outs[0], "*_solution.json"))
    )
    assert len(names) > 2
    for name in names:
        first, second = (_read_bytes(os.path.join(out, name)) for out in outs)
        assert first == second, name

    path = os.path.join(outs[1], names[-1])
    sol = json.loads(_read_bytes(path))
    sol["manifold_defects"][-1] += 1.0
    with open(path, "w") as fh:
        json.dump(sol, fh)
    assert cli.main(["audit", "--out", outs[1]]) != 0


@pytest.mark.parametrize("bundle", ["pendulum", "walker"])
def test_reproduce_bundle_passes_gates_with_clean_audit(tmp_path, bundle):
    out = str(tmp_path / bundle)
    assert cli.main(["reproduce", "--bundle", bundle, "--out", out]) == 0
    assert cli.main(["audit", "--out", out]) == 0


BAD_SOLVER_SETTINGS = [
    ("upper", "simplex_xatol", "abc"),
    ("upper", "grid_size", 2.5),
    ("baseline", "maxiter", "x"),
    (None, "substeps", 7),
    # settings that were removed
    ("upper", "simplex_fatol", 1e-12),
    ("upper", "simplex_radius", 1.0),
    ("upper", "tol_constraint", 1e-6),
    ("baseline", "max_outer", 15),
    ("baseline", "inner_maxiter", 400),
    ("upper", "al_rho0", 10.0),
    ("upper", "simplex_maxfev", 400),
]


def _fig1_config_with(block, key, value):
    cfg = copy.deepcopy(cli.load_bundle("fig1")["config"])
    (cfg.setdefault(block, {}) if block else cfg)[key] = value
    return cfg


@pytest.mark.parametrize(
    "block,key,value", BAD_SOLVER_SETTINGS,
    ids=[f"{b}.{k}" if b else k for b, k, _ in BAD_SOLVER_SETTINGS],
)
def test_config_rejects_bad_solver_settings(block, key, value):
    validate_config(cli.load_bundle("fig1")["config"])
    with pytest.raises(ConfigError):
        validate_config(_fig1_config_with(block, key, value))


# (path in the error, block, key, value, subcommand): each exits 2 before
# identify runs
BAD_SETTINGS = [
    ("upper", "upper", "simplex_xatol", "abc", ["solve"]),
    ("variants[0]", None, "variants", [{"kind": "soft", "w": 1.5}], ["solve"]),
    ("variants[0]", None, "variants", [{"kind": "b0", "w": 0.3}], ["solve"]),
    ("mbc", None, "mbc", {"type": "walker_gait", "v_avg": 0.05, "rate_bound": 0.15},
     ["solve"]),
    ("identification.box", "identification", "box", [[-1.0, 1.0]] * 3, ["solve"]),
    ("sweep.T_min", "sweep", "T_min", "abc", ["sweep", "--axis", "T"]),
    ("sweep.amplitudes_deg", "sweep", "amplitudes_deg", "x",
     ["sweep", "--axis", "amplitude"]),
]


@pytest.mark.parametrize(
    "path,block,key,value,command", BAD_SETTINGS,
    ids=["upper.simplex_xatol", "soft_w", "hard_w", "walker_mbc_on_oscillator",
         "identification.box", "sweep.T_min", "sweep.amplitudes_deg"],
)
def test_solve_exits_2_on_a_bad_setting(tmp_path, capsys, path, block, key, value,
                                        command):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_fig1_config_with(block, key, value)))
    out = str(tmp_path / "out")
    assert cli.main(command + ["--config", str(cfg_path), "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "model.json"))
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


def test_reproduce_builds_the_system_once(tmp_path, monkeypatch):
    calls = []
    get_system = config.get_system
    monkeypatch.setattr(
        config, "get_system", lambda *a, **kw: calls.append(a) or get_system(*a, **kw)
    )
    assert cli.main(["reproduce", "--bundle", "fig1", "--out", str(tmp_path)]) == 0
    assert calls == [("oscillator",)]


def test_walker_config_needs_rate_bound(tmp_path):
    # the upper-level search needs the finite box that rate_bound spans
    cfg = copy.deepcopy(cli.load_bundle("walker")["config"])
    del cfg["mbc"]["rate_bound"]
    path = tmp_path / "walker.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "model.json"))


def test_amplitude_sweep_rows_match_solve_report(tmp_path):
    cfg = copy.deepcopy(cli.load_bundle("fig1")["config"])
    cfg["sweep"]["amplitudes_deg"] = [30.0]
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    for command in ("solve", "sweep"):
        argv = [command, "--config", str(path), "--out", out]
        if command == "sweep":
            argv += ["--axis", "amplitude"]
        assert cli.main(argv) == 0

    report = json.loads(_read_bytes(os.path.join(out, "report.json")))
    entries = {e["variant"]: e for e in report["entries"]}
    with open(os.path.join(out, "sweep_amplitude.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert len(rows) == len(entries) == 1
    for row in rows:
        entry = entries[row["variant"]]
        assert float(row["amplitude_deg"]) == 30.0
        for key in ("T_star", "c", "pcc_state"):
            assert float(row[key]) == entry[key], key
