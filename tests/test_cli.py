import copy
import glob
import json
import os

import pytest

from koopbilevel import ConfigError, cli
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


def test_upper_block_rejects_augmented_lagrangian_keys():
    cfg = copy.deepcopy(cli.load_bundle("fig1")["config"])
    validate_config(cfg)
    cfg["upper"]["al_rho0"] = 10.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
