import contextlib
import copy
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import koopbilevel
from koopbilevel import ConfigError, artifacts, baseline_nlp, cli, config
from koopbilevel.config import validate_config
from koopbilevel.upper_level import _lower_eval


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@contextlib.contextmanager
def _rewritten(path, rewrite):
    """The file at ``path`` with its text changed by ``rewrite``, restored
    on exit."""
    original = _read_bytes(path)
    with open(path, "w") as fh:
        fh.write(rewrite(original.decode()))
    try:
        yield
    finally:
        with open(path, "wb") as fh:
            fh.write(original)


def _audit_after_rewrite(path, rewrite):
    """Exit code of ``audit`` once ``rewrite`` has changed the text of the
    file at ``path``; the file is restored afterwards."""
    with _rewritten(path, rewrite):
        return cli.main(["audit", "--out", os.path.dirname(path)])


def _json_edit(edit):
    """A text rewrite that applies ``edit`` to the parsed JSON."""
    def rewrite(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return rewrite


def _audit_after_edit(path, edit):
    """Exit code of ``audit`` once ``edit`` has changed the JSON at ``path``;
    the file is restored afterwards."""
    return _audit_after_rewrite(path, _json_edit(edit))


def test_reproduce_fig1_is_clean_and_deterministic(tmp_path):
    outs = [str(tmp_path / "first"), str(tmp_path / "second")]
    for out in outs:
        assert cli.main(["reproduce", "--bundle", "fig1", "--out", out]) == 0
        assert cli.main(["audit", "--out", out]) == 0

    solutions = sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(outs[0], "*_solution.json"))
    )
    assert solutions
    names = ["report.json", "sweep_T.csv", "baseline.json", "baseline.csv"] + solutions
    for name in names:
        first, second = (_read_bytes(os.path.join(out, name)) for out in outs)
        assert first == second, name

    def shift_last_defect(sol):
        sol["manifold_defects"][-1] += 1.0

    def shift_cost(baseline):
        baseline["cost"] += 1.0

    assert _audit_after_edit(os.path.join(outs[1], solutions[-1]), shift_last_defect) != 0
    assert _audit_after_edit(os.path.join(outs[1], "baseline.json"), shift_cost) != 0
    assert cli.main(["audit", "--out", outs[1]]) == 0


@pytest.mark.parametrize("bundle", ["pendulum", "walker"])
def test_reproduce_bundle_passes_gates_with_clean_audit(tmp_path, monkeypatch, capsys,
                                                        bundle):
    calls = []
    solve_nlp = cli.solve_nlp
    monkeypatch.setattr(
        cli, "solve_nlp", lambda *a, **kw: calls.append(a) or solve_nlp(*a, **kw)
    )
    out = str(tmp_path / bundle)
    assert cli.main(["reproduce", "--bundle", bundle, "--out", out]) == 0
    # the baseline NLP depends only on (system, mbc, N): one solve per bundle
    # (audit re-runs it once more)
    assert len(calls) == 1
    assert cli.main(["audit", "--out", out]) == 0
    # warm-started from the trajectory written for the first variant
    first = validate_config(cli.load_bundle(bundle)["config"]).variants[0].label
    written = artifacts.read_trajectory_csv(os.path.join(out, f"{first}_bilevel.csv"))
    _, warm_start = calls[0]
    assert len(warm_start) == len(written) == 3
    for used, read in zip(warm_start, written):
        assert np.array_equal(used, read)

    baseline = json.loads(_read_bytes(os.path.join(out, "baseline.json")))
    report = json.loads(_read_bytes(os.path.join(out, "report.json")))
    for entry in report["entries"]:
        assert entry["T_star_baseline"] == baseline["T"], entry["variant"]
        assert entry["c_baseline"] == baseline["cost"], entry["variant"]

    if bundle != "walker":
        return
    # fields in which the search, the baseline or the gates report on
    # themselves: each is rebuilt by audit's re-run
    solution = f"{first}_solution.json"
    for name, edit, named in [
        (solution, _in_stage(1, _set(["nit"], 999)), "start_records[1].nit"),
        (solution, _in_stage(1, _set(["active_bounds"], [])),
         "start_records[1].active_bounds"),
        (solution, _in_stage(1, _set(["projected_grad_norm"], 1e-30)),
         "start_records[1].projected_grad_norm"),
        (solution, _in_stage(1, _set(["nfev"], 3)), "start_records[1].nfev"),
        (solution, _in_stage(0, _set(["message"], "edited")), "start_records[0].message"),
        ("baseline.json", _set(["history"], []), "history"),
        ("baseline.json", _set(["outer_iterations"], 1), "outer_iterations"),
        ("gates_report.json", lambda rec: _flip("passed")(rec["gates"][0]),
         "gates[0].passed"),
    ]:
        assert _audit_after_edit(os.path.join(out, name), edit) == 1, named
        assert f"MISMATCH {name}:{named}: " in capsys.readouterr().out, named


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig1"))
    assert cli.main(["reproduce", "--bundle", "fig1", "--out", out]) == 0
    return out


def _shift(field):
    def edit(obj):
        obj[field] += 1.0
    return edit


def _flip(field):
    def edit(obj):
        obj[field] = not obj[field]
    return edit


def _in_entry(edit):
    def edit_report(report):
        edit(report["entries"][0])
    return edit_report


def _set(path, value):
    """An edit that sets the entry at the key path ``path`` to ``value``."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _in_stage(index, edit):
    def edit_solution(sol):
        edit(sol["start_records"][index])
    return edit_solution


def _in_every_entry(edit):
    def edit_report(report):
        for entry in report["entries"]:
            edit(entry)
    return edit_report


def _shifted_baseline(field):
    """A baseline residual shifted in ``baseline.json`` and in every entry's
    copy of it, so that only its re-run can catch it."""
    return {"baseline.json": _shift(field),
            "report.json": _in_every_entry(_shift(f"baseline_{field}"))}


# {file: edit}: one corruption each, every one a field that solve computed
AUDITED_CORRUPTIONS = [
    {"report.json": _in_entry(_shift("mbc_violation"))},
    {"report.json": _in_entry(_flip("baseline_converged"))},
    {"report.json": _in_entry(_shift("baseline_max_defect"))},
    {"report.json": _in_entry(_shift("baseline_max_mbc_violation"))},
    {"baseline.json": _flip("converged")},
    {"baseline.json": _shift("kkt_residual")},
    _shifted_baseline("max_defect"),
    _shifted_baseline("max_mbc_violation"),
    {"b0_solution.json": _shift("constraint_violation")},
    {"b0_solution.json": _shift("T")},
    {"b0_solution.json": _shift("cost")},
    {"b0_solution.json": _shift("c_hat_lower")},
    {"b0_solution.json": _shift("kkt_stationarity")},
    {"b0_solution.json": _shift("kkt_feasibility")},
    {"b0_solution.json": lambda sol: _shift(51)(sol["manifold_defects"])},
    {"b0_solution.json": _in_stage(1, _shift("c_star"))},
]


@pytest.mark.parametrize(
    "edits", AUDITED_CORRUPTIONS,
    ids=["mbc_violation", "baseline_converged", "baseline_max_defect",
         "baseline_max_mbc_violation", "converged", "kkt_residual",
         "max_defect_everywhere", "max_mbc_violation_everywhere",
         "constraint_violation", "T", "cost", "c_hat_lower",
         "kkt_stationarity", "kkt_feasibility",
         "inner_manifold_defect", "polish_c_star"],
)
def test_audit_finds_a_corrupted_field(fig1_run, edits):
    with contextlib.ExitStack() as stack:
        for name, edit in edits.items():
            stack.enter_context(_rewritten(os.path.join(fig1_run, name),
                                           _json_edit(edit)))
        assert cli.main(["audit", "--out", fig1_run]) == 1


def _keys(obj):
    """Every key of every object nested in the JSON value ``obj``."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


def test_records_hold_no_sum_or_copy_of_their_own_fields(fig1_run):
    # the stages' total calls, a stage's failures in all, the variant's
    # blend of cost and c_hat_lower and "some rank below n_z" are each
    # computed from fields that the same record holds
    names = sorted(name for name in os.listdir(fig1_run) if name.endswith(".json"))
    assert {"residual_report.json", "b0_solution.json"} <= set(names)
    for name in names:
        keys = _keys(json.loads(_read_bytes(os.path.join(fig1_run, name))))
        assert not keys & {"eval_count", "n_inf", "weighted_total",
                           "rank_deficient"}, name


def test_audit_checks_the_residual_half_of_converged(fig1_run, capsys,
                                                     monkeypatch):
    # the run converged; under a zero tolerance its residuals do not pass
    monkeypatch.setattr(baseline_nlp, "_TOL_FEAS", 0.0)
    assert cli.main(["audit", "--out", fig1_run]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH baseline.json:converged: reported True recomputed False" in out, out


def _more_failures_than_calls(stage):
    stage["failures"] = {"LowerLevelError": stage["nfev"], "BuildError": 1}


# (edit of b0_solution.json, field named): counts that disagree with each
# other, stage records that hold no counts and a point that the search did
# not find, each against the re-run's stage records
STAGE_RECORD_CORRUPTIONS = [
    # a failure type that the re-run does not count
    (_in_stage(0, _more_failures_than_calls),
     "b0_solution.json:start_records[0].failures.BuildError"),
    (lambda sol: sol.update(start_records=5), "b0_solution.json:start_records"),
    (_in_stage(0, _set(["p_star"], [-1.0])), "b0_solution.json:start_records[0].p_star[0]"),
]


@pytest.mark.parametrize("edit,named", STAGE_RECORD_CORRUPTIONS,
                         ids=["failures_above_nfev", "number_records",
                              "rejected_p_star"])
def test_audit_checks_the_stage_record_counts(fig1_run, capsys, edit, named):
    assert _audit_after_edit(os.path.join(fig1_run, "b0_solution.json"), edit) == 1
    assert f"MISMATCH {named}:" in capsys.readouterr().out


def test_audit_names_a_polish_point_the_constraint_rejects(fig1_run, capsys):
    path = os.path.join(fig1_run, "b0_solution.json")
    assert _audit_after_edit(path, _in_stage(1, _set(["p_star"], [-1.0]))) == 1
    out = capsys.readouterr().out
    assert "MISMATCH b0_solution.json:start_records[1].p_star[0]: reported -1.0 " in out
    assert out.count("MISMATCH") == 1, out


def test_audit_rebuilds_the_solution_at_the_polish_point(fig1_run, capsys, tmp_path):
    # the solution at 1.05 times the period, with its trajectory and report
    # entry rewritten to match, under the search's own stage records
    run = validate_config(json.loads(_read_bytes(os.path.join(fig1_run, "config.json"))))
    model, _ = cli._identify_records(run)
    path = os.path.join(fig1_run, "b0_solution.json")
    sol = json.loads(_read_bytes(path))
    _, lower, _ = _lower_eval(model, run.variants[0], run.mbc,
                              np.array([1.05 * sol["T"]]), run.N)
    record = dict(cli._solution_record(lower, run.mbc),
                  start_records=sol["start_records"])
    swap_csv = str(tmp_path / "swap.csv")
    artifacts.write_trajectory_csv(swap_csv, *lower.trajectory)
    baseline = json.loads(_read_bytes(os.path.join(fig1_run, "baseline.json")))
    baseline_traj = artifacts.read_trajectory_csv(os.path.join(fig1_run, "baseline.csv"))
    entry = artifacts.comparison_entry(record, lower.trajectory, baseline, baseline_traj)
    rewrites = {
        "b0_solution.json": lambda _: artifacts.canonical_json(record),
        "b0_bilevel.csv": lambda _: _read_bytes(swap_csv).decode(),
        "report.json": _json_edit(_in_entry(lambda old: old.update(entry))),
    }
    with contextlib.ExitStack() as stack:
        for name, rewrite in rewrites.items():
            stack.enter_context(_rewritten(os.path.join(fig1_run, name), rewrite))
        assert cli.main(["audit", "--out", fig1_run]) == 1
    lines = capsys.readouterr().out.splitlines()
    for named in ("b0_solution.json:T:", "b0_solution.json:cost:",
                  "b0_bilevel.csv:times[", "report.json:entries[0].T_star:"):
        assert any(line.startswith(f"MISMATCH {named}") for line in lines), lines
    # only the swapped files differ from the re-run
    assert all(line.startswith(("MISMATCH b0_solution.json:", "MISMATCH b0_bilevel.csv:",
                                "MISMATCH report.json:entries[0]."))
               for line in lines), lines


# (rewrite of sweep_T.csv, the one problem named): the sweep is re-run from
# config.json and diffed row by row
SWEEP_CORRUPTIONS = [
    (lambda text: _set_csv_value(text, 10, 1, "9.9"),
     "MISMATCH sweep_T.csv:rows[10].c_star: reported 9.9 recomputed 0."),
    (lambda text: "".join(line for i, line in enumerate(text.splitlines(True))
                          if i != 11),
     "MISMATCH sweep_T.csv:rows: reported 'length 136' recomputed 'length 137'"),
]


@pytest.mark.parametrize("rewrite,named", SWEEP_CORRUPTIONS,
                         ids=["row_cost", "missing_row"])
def test_audit_reruns_the_period_sweep(fig1_run, capsys, rewrite, named):
    assert _audit_after_rewrite(os.path.join(fig1_run, "sweep_T.csv"), rewrite) == 1
    out = capsys.readouterr().out
    assert named in out and out.count("MISMATCH") == 1, out


def _shift_item(field, index, by):
    def edit(obj):
        obj[field][index] += by
    return edit


STALE_HASHES = ["MISMATCH residual_report.json:model_hash:",
                "MISMATCH report.json:provenance.model_hash:"]


def _rehashed(rewrite):
    """Rewrites of model.json by ``rewrite`` and of both recorded model
    hashes, each set to the sha256 of the rewritten file, so that every file
    in the directory agrees with the new model.json."""
    digest = []

    def rewrite_model(text):
        text = rewrite(text)
        digest.append(hashlib.sha256(text.encode()).hexdigest())
        return text

    def set_hash(*keys):
        return _json_edit(lambda obj: _set(keys, digest[-1])(obj))

    return {"model.json": rewrite_model,
            "residual_report.json": set_hash("model_hash"),
            "report.json": set_hash("provenance", "model_hash")}


def _next_float_of_factor(model):
    model["factor"][0][0] = float(np.nextafter(model["factor"][0][0], np.inf))


# ({file: rewrite}, texts that start the lines of the output, each at least
# once): the identification record and model.json against the re-run's fit,
# and the provenance against config.json and model.json. A model.json
# rewritten after the run leaves report.json's hash of it stale; with both
# hashes updated too, the re-run's hash of its own fit still differs
IDENTIFICATION_CORRUPTIONS = [
    ({"residual_report.json": _json_edit(_shift_item("residuals", 0, 1e-3))},
     ["MISMATCH residual_report.json:residuals[0]:"]),
    ({"residual_report.json": _json_edit(_shift_item("ranks", 1, -1))},
     ["MISMATCH residual_report.json:ranks[1]:"]),
    ({"residual_report.json": _json_edit(_set(["ranks"], [3]))},
     ["MISMATCH residual_report.json:ranks:"]),
    ({"residual_report.json": _json_edit(_shift("n_z"))},
     ["MISMATCH residual_report.json:n_z:"]),
    ({"residual_report.json": _json_edit(_shift("modes_cond"))},
     ["MISMATCH residual_report.json:modes_cond:"]),
    ({"residual_report.json": _json_edit(_set(["model_hash"], "0" * 64))},
     STALE_HASHES[:1]),
    ({"report.json": _json_edit(_set(["provenance", "model_hash"], "0" * 64))},
     STALE_HASHES[1:]),
    ({"report.json": _json_edit(_set(["provenance"], 5))},
     ["MISMATCH report.json:provenance: reported 5 recomputed {'blas_threads': None, "
      "'command': 'reproduce', 'config_hash': "]),
    # a config that solve did not run, whose sweep grid has another size,
    # on which the gates are re-evaluated too
    ({"config.json": _json_edit(_set(["sweep", "points"], 138))},
     ["MISMATCH report.json:provenance.config_hash:",
      "MISMATCH sweep_T.csv:rows: reported 'length 137' recomputed 'length 138'",
      "MISMATCH gates_report.json:gates[",
      "MISMATCH gates_report.json:passed: reported True recomputed False"]),
    # the same content in other bytes: only the hash of the file tells
    ({"model.json": lambda text: text + "\n"}, STALE_HASHES[1:]),
    # a model fitted from settings that are not the config's
    ({"model.json": _json_edit(_set(["seed"], 7))},
     ["MISMATCH model.json:seed: reported 7 recomputed 20240"] + STALE_HASHES[1:]),
    # the tail row under channel 0
    ({"model.json": _json_edit(lambda model: _shift_item(3, 3, 1e-3)(model["factor"]))},
     ["MISMATCH model.json:factor[3][3]:"] + STALE_HASHES[1:]),
    # settings of the config's value in another JSON type, and a factor
    # entry one float away, each with both hashes updated to match
    (_rehashed(_json_edit(lambda model: model.update(seed=float(model["seed"])))),
     ["MISMATCH model.json:seed: reported 20240.0 recomputed 20240"] + STALE_HASHES[:1]),
    (_rehashed(_json_edit(lambda model: model.update(n_s=float(model["n_s"])))),
     ["MISMATCH model.json:n_s: reported 2000.0 recomputed 2000"] + STALE_HASHES[:1]),
    (_rehashed(_json_edit(_next_float_of_factor)), STALE_HASHES[:1]),
]


@pytest.mark.parametrize("rewrites,named", IDENTIFICATION_CORRUPTIONS,
                         ids=["residual", "rank", "short_ranks", "n_z",
                              "modes_cond", "residual_report_hash",
                              "provenance_hash", "number_provenance",
                              "edited_config", "stale_model", "model_seed",
                              "factor_tail", "float_seed", "float_n_s",
                              "factor_last_bit"])
def test_audit_checks_the_identification_record(fig1_run, capsys, rewrites, named):
    with contextlib.ExitStack() as stack:
        for name, rewrite in rewrites.items():
            stack.enter_context(_rewritten(os.path.join(fig1_run, name), rewrite))
        assert cli.main(["audit", "--out", fig1_run]) == 1
    out = capsys.readouterr().out
    assert all(text in out for text in named), out
    assert all(line.startswith(tuple(named)) for line in out.splitlines()), out


def test_audit_reidentifies_the_model_of_a_consistent_directory(tmp_path, monkeypatch,
                                                               capsys):
    # every file, hash and solution of this directory is of one model, but
    # not of the one that its config.json identifies
    identify = cli.identify

    def scaled(*args, **kwargs):
        model = identify(*args, **kwargs)
        return dataclasses.replace(model, factor=model.factor * (1 + 1e-6))

    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cli.load_bundle("fig1")["config"]))
    out = str(tmp_path / "out")
    monkeypatch.setattr(cli, "identify", scaled)
    assert cli.main(["solve", "--config", str(path), "--out", out]) == 0
    monkeypatch.undo()
    assert cli.main(["audit", "--out", out]) == 1
    assert "MISMATCH model.json:factor[" in capsys.readouterr().out


@pytest.mark.parametrize("names,code,named", [
    (["gates_report.json"], 1,
     "MISMATCH report.json:provenance.command: reported 'reproduce' recomputed 'solve'"),
    (["sweep_T.csv"], 2, "sweep_T.csv"),
    (["gates_report.json", "sweep_T.csv"], 1,
     "MISMATCH report.json:provenance.command: reported 'reproduce' recomputed 'solve'"),
], ids=["gates", "sweep", "gates_and_sweep"])
def test_audit_of_a_reproduce_run_needs_its_files(fig1_run, capsys, names, code, named):
    # report.json records that reproduce wrote the directory, and fig1's
    # config has a sweep
    paths = [os.path.join(fig1_run, name) for name in names]
    for path in paths:
        os.rename(path, path + ".moved")
    try:
        assert cli.main(["audit", "--out", fig1_run]) == code
    finally:
        for path in paths:
            os.rename(path + ".moved", path)
    captured = capsys.readouterr()
    assert named in (captured.out if code == 1 else captured.err)


def test_audit_without_the_config_exits_2(fig1_run, capsys):
    path = os.path.join(fig1_run, "config.json")
    os.rename(path, path + ".moved")
    try:
        assert cli.main(["audit", "--out", fig1_run]) == 2
    finally:
        os.rename(path + ".moved", path)
    assert "config.json" in capsys.readouterr().err


def test_reproduce_records_its_seed(tmp_path):
    out = str(tmp_path / "fig1")
    assert cli.main(["reproduce", "--bundle", "fig1", "--out", out,
                     "--seed", "301"]) == 0
    run_config = json.loads(_read_bytes(os.path.join(out, "config.json")))
    model = json.loads(_read_bytes(os.path.join(out, "model.json")))
    assert run_config["identification"]["seed"] == model["seed"] == 301
    assert cli.main(["audit", "--out", out]) == 0


def test_audit_reports_an_entry_missing_a_field(fig1_run, capsys):
    def drop(report):
        del report["entries"][0]["mbc_violation"]

    assert _audit_after_edit(os.path.join(fig1_run, "report.json"), drop) == 1
    assert "MISMATCH report.json:entries[0].mbc_violation: reported 'missing'" in (
        capsys.readouterr().out)


def test_audit_reports_files_without_a_report_entry(fig1_run, capsys):
    # files of a variant that the config does not have, which the re-run
    # does not write, and a report without the entry of one that it has
    def drop_entries(report):
        report["entries"] = []

    suffixes = ("_solution.json", "_bilevel.csv")
    for suffix in suffixes:
        with open(os.path.join(fig1_run, f"bT{suffix}"), "wb") as fh:
            fh.write(_read_bytes(os.path.join(fig1_run, f"b0{suffix}")))
    try:
        assert _audit_after_edit(os.path.join(fig1_run, "report.json"),
                                 drop_entries) == 1
    finally:
        for suffix in suffixes:
            os.remove(os.path.join(fig1_run, f"bT{suffix}"))
    out = capsys.readouterr().out
    assert "MISMATCH report.json:entries: reported 'length 0' recomputed 'length 1'" in out
    for suffix in suffixes:
        assert (f"MISMATCH bT{suffix}:file: reported 'written' recomputed "
                "'not written by the re-run'") in out, out
    assert out.count("MISMATCH") == 3, out


def _set_csv_value(text, row, column, value):
    """CSV ``text`` with the field at data ``row`` and ``column`` set to
    ``value``."""
    lines = text.splitlines(True)
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[column] = value
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def _constant_csv_column(column, value=None):
    """A CSV rewrite that sets ``column`` of every data row to ``value``, by
    default to the column's value in the first data row."""
    def rewrite(text):
        fill = value or text.splitlines()[1].split(",")[column]
        for row in range(text.count("\n") - 1):
            text = _set_csv_value(text, row, column, fill)
        return text
    return rewrite


# (file, rewrite, exit code, name in the output): a file that does not parse,
# or is not the object audit reads, a config.json that is not a valid config
# and a value taken from a file, not rebuilt, of the wrong type exit 2 naming
# the file; a parsed one with a bad field is a mismatch naming the field
MALFORMED_ARTIFACTS = [
    ("b0_solution.json", _json_edit(lambda sol: sol.update(z0=sol["z0"][:2])),
     1, "MISMATCH b0_solution.json:z0: reported 'length 2' recomputed 'length 3'"),
    ("report.json", lambda text: text[: len(text) // 2], 2, "report.json"),
    ("report.json", lambda text: "5", 2, "report.json"),
    ("b0_bilevel.csv", lambda text: text.splitlines(True)[0], 2, "b0_bilevel.csv"),
    # a period that is not a number: the record is rebuilt by the re-run,
    # so the file's period is diffed, not solved
    ("b0_solution.json", _json_edit(lambda sol: sol.update(T="abc")),
     1, "MISMATCH b0_solution.json:T: reported 'abc'"),
    ("model.json", lambda text: "5", 2, "model.json"),
    ("report.json", _json_edit(lambda report: report.update(entries=5)),
     1, "MISMATCH report.json:entries: reported 5 recomputed [{"),
    ("report.json", _json_edit(lambda report: report.update(entries=[5])),
     1, "MISMATCH report.json:entries[0]: reported 5 recomputed {"),
    ("b0_solution.json", lambda text: "5", 2, "b0_solution.json"),
    # model.json is diffed with the re-run's fit, not read as a model
    ("model.json", _json_edit(_set(["factor"], 5)), 1,
     "MISMATCH model.json:factor: reported 5 recomputed [["),
    ("model.json", _json_edit(_set(["factor"], "x")), 1,
     "MISMATCH model.json:factor: reported 'x' recomputed [["),
    ("model.json", _json_edit(_set(["factor"], [[1, 2], [3, 4]])), 1,
     "MISMATCH model.json:factor: reported 'length 2' recomputed 'length 4'"),
    ("model.json", _json_edit(lambda model: _set([3, 3], float("nan"))(model["factor"])),
     1, "MISMATCH model.json:factor[3][3]: reported nan"),
    ("model.json", _json_edit(_set(["dictionary", "terms", 2, "kind"], "bogus")),
     1, "MISMATCH model.json:dictionary.terms[2].kind: reported 'bogus' recomputed 'monomial'"),
    ("config.json", lambda text: text[: len(text) // 2], 2, "config.json"),
    ("config.json", lambda text: "5", 2, "config.json"),
    ("config.json", _json_edit(_set(["substeps"], 7)), 2, "config.json"),
    # a baseline trajectory too short, its last input row repeated as a
    # trajectory file has it, or with a state that the dynamics reject
    ("baseline.csv", lambda text: _set_csv_value(
        "".join(text.splitlines(True)[:5]), 3, -1, text.splitlines()[3].split(",")[-1]),
     1, "MISMATCH baseline.csv:times: reported 'length 4' recomputed 'length 102'"),
    ("baseline.csv", lambda text: _set_csv_value(text, 3, 1, "nan"),
     1, "MISMATCH baseline.csv:states[3][0]: reported nan"),
    # trajectories whose PCC would be undefined (no time span, or a column
    # without variance, also a constant input whose mean does not round to
    # its value): each differing point is a problem
    ("b0_bilevel.csv", _constant_csv_column(0, "0.0"), 1,
     "MISMATCH b0_bilevel.csv:times[1]: reported 0.0"),
    ("b0_bilevel.csv", _constant_csv_column(-1, "0.0"), 1,
     "MISMATCH b0_bilevel.csv:inputs[0][0]: reported 0.0"),
    ("baseline.csv", _constant_csv_column(0, "0.0"), 1,
     "MISMATCH baseline.csv:times[1]: reported 0.0"),
    ("baseline.csv", _constant_csv_column(-1, "0.0"), 1,
     "MISMATCH baseline.csv:inputs[0][0]: reported 0.0"),
    ("b0_bilevel.csv", _constant_csv_column(-1), 1, "MISMATCH b0_bilevel.csv:inputs[1][0]:"),
    ("sweep_T.csv", lambda text: _set_csv_value(text, 10, 1, "abc"), 2, "sweep_T.csv"),
    # a period sweep whose header is not the sweep's columns
    ("sweep_T.csv", lambda text: text.replace("c_star", "cost", 1), 2,
     "sweep_T.csv: not a period sweep"),
    # a last input row that does not repeat the one before it, which the
    # reader would otherwise drop unread
    ("b0_bilevel.csv", lambda text: _set_csv_value(text, text.count("\n") - 2, -1, "123.0"),
     2, "b0_bilevel.csv: the last input row [123.0] does not repeat"),
    # gates that audit cannot re-evaluate: of a bundle that does not ship,
    # or on timings that are not numbers
    ("gates_report.json", _json_edit(_set(["bundle"], "bogus")), 2,
     "gates_report.json: unknown bundle 'bogus'"),
    ("gates_report.json", _json_edit(_set(["timings", "solve"], "abc")), 2,
     "gates_report.json: timings are not seconds by name"),
    # a bool is an int to Python, but not a number of seconds
    ("gates_report.json", _json_edit(_set(["timings", "solve"], True)), 2,
     "gates_report.json: timings are not seconds by name"),
    ("gates_report.json", _json_edit(_set(["per_variant_seconds", "b0"], False)), 2,
     "gates_report.json: timings are not seconds by name"),
    ("gates_report.json", _json_edit(_set(["timings", "solve"], -1.0)), 2,
     "gates_report.json: timings are not seconds by name"),
    ("gates_report.json", _json_edit(_set(["timings", "solve"], float("inf"))), 2,
     "gates_report.json: timings are not seconds by name"),
    ("report.json", _json_edit(_set(["provenance", "blas_threads"], "abc")), 2,
     "report.json: provenance.blas_threads is 'abc', not a thread count or null"),
    ("report.json", _json_edit(_set(["provenance", "blas_threads"], True)), 2,
     "report.json: provenance.blas_threads is True, not a thread count or null"),
    ("report.json", _json_edit(_set(["provenance", "blas_threads"], 0)), 2,
     "report.json: provenance.blas_threads is 0, not a thread count or null"),
]


@pytest.mark.parametrize("name,rewrite,code,named", MALFORMED_ARTIFACTS,
                         ids=["short_z0", "truncated_json", "number_json",
                              "header_only_csv", "string_T", "number_model",
                              "number_entries", "number_in_entries",
                              "number_solution", "number_factor", "string_factor",
                              "square_factor", "nan_factor",
                              "unknown_term_kind", "truncated_config",
                              "number_config", "unknown_config_key",
                              "short_baseline_csv", "nan_baseline_state",
                              "constant_bilevel_times", "constant_bilevel_inputs",
                              "constant_baseline_times",
                              "constant_baseline_inputs",
                              "first_bilevel_input_everywhere",
                              "string_sweep_cost", "renamed_sweep_column",
                              "last_input_not_repeated",
                              "unknown_bundle", "string_timing",
                              "bool_timing", "bool_variant_timing",
                              "negative_timing", "infinite_timing",
                              "string_blas_threads", "bool_blas_threads",
                              "zero_blas_threads"])
def test_audit_of_a_malformed_artifact_names_it(fig1_run, capsys, name, rewrite,
                                                code, named):
    assert _audit_after_rewrite(os.path.join(fig1_run, name), rewrite) == code
    captured = capsys.readouterr()
    assert named in (captured.out if code == 1 else captured.err)


@pytest.mark.parametrize("name,key", [("report.json", "entries"),
                                      ("model.json", "dictionary"),
                                      ("residual_report.json", "residuals"),
                                      ("residual_report.json", "model_hash"),
                                      ("baseline.json", "T"),
                                      ("baseline.json", "converged"),
                                      ("baseline.json", "max_defect"),
                                      ("baseline.json", "max_mbc_violation"),
                                      ("baseline.json", "kkt_residual"),
                                      ("b0_solution.json", "variant"),
                                      ("b0_solution.json", "z0"),
                                      ("b0_solution.json", "start_records")])
def test_audit_of_an_artifact_missing_a_key_names_both(fig1_run, capsys, name,
                                                       key):
    # a file that audit diffs with its re-run lacks a field
    assert _audit_after_edit(os.path.join(fig1_run, name),
                             lambda obj: obj.pop(key)) == 1
    assert (f"MISMATCH {name}:{key}: reported 'missing' recomputed "
            in capsys.readouterr().out)


# (edit of report.json or b0_solution.json, text named in the output): each
# entry and solution holds the label of the re-run's variant
VARIANT_CORRUPTIONS = [
    ("report.json", lambda report: report["entries"][0].pop("variant"),
     "MISMATCH report.json:entries[0].variant: reported 'missing' recomputed 'b0'"),
    ("b0_solution.json", _set(["variant"], "bT"),
     "MISMATCH b0_solution.json:variant: reported 'bT' recomputed 'b0'"),
    ("report.json", lambda report: report["entries"][0].update(variant=["b0"]),
     "MISMATCH report.json:entries[0].variant: reported ['b0'] recomputed 'b0'"),
]


@pytest.mark.parametrize("name,edit,named", VARIANT_CORRUPTIONS,
                         ids=["entry_without_variant",
                              "solution_of_another_variant",
                              "entry_with_list_variant"])
def test_audit_checks_the_variant_labels(fig1_run, capsys, name, edit, named):
    assert _audit_after_edit(os.path.join(fig1_run, name), edit) == 1
    out = capsys.readouterr().out
    assert named in out, out


# (file, edit, the one problem named): a value written as another JSON type
# than the re-run's, though Python compares it equal (1 == True, 3.0 == 3)
TYPE_CORRUPTIONS = [
    ("baseline.json", _set(["converged"], 1),
     "MISMATCH baseline.json:converged: reported 1 recomputed True"),
    ("report.json", _in_entry(_set(["baseline_converged"], 1.0)),
     "MISMATCH report.json:entries[0].baseline_converged: reported 1.0 recomputed True"),
    ("gates_report.json", _set(["passed"], 1),
     "MISMATCH gates_report.json:passed: reported 1 recomputed True"),
    ("b0_solution.json", _in_stage(0, lambda stage: stage.update(nfev=float(stage["nfev"]))),
     "MISMATCH b0_solution.json:start_records[0].nfev: reported "),
]


@pytest.mark.parametrize("name,edit,named", TYPE_CORRUPTIONS,
                         ids=["int_converged", "float_baseline_converged",
                              "int_gates_passed", "float_nfev"])
def test_audit_checks_the_json_type_of_each_field(fig1_run, capsys, name, edit, named):
    assert _audit_after_edit(os.path.join(fig1_run, name), edit) == 1
    out = capsys.readouterr().out
    assert named in out and out.count("MISMATCH") == 1, out


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
    (None, "pcc_points", 51),
    ("identification", "svd_tol", 1e-10),
    (None, "dictionary", {"name": "linear_const", "n_x": 2, "terms": [
        {"kind": "monomial", "powers": [1, 0]},
        {"kind": "monomial", "powers": [0, 1]},
        {"kind": "monomial", "powers": [0, 0]},
    ]}),
]


def _bundle_config_with(bundle, block, key, value):
    """The bundle's config with ``block.key`` set; unchanged for key None."""
    cfg = copy.deepcopy(cli.load_bundle(bundle)["config"])
    if key is not None:
        (cfg.setdefault(block, {}) if block else cfg)[key] = value
    return cfg


@pytest.mark.parametrize(
    "block,key,value", BAD_SOLVER_SETTINGS,
    ids=[f"{b}.{k}" if b else k for b, k, _ in BAD_SOLVER_SETTINGS],
)
def test_config_rejects_bad_solver_settings(block, key, value):
    validate_config(cli.load_bundle("fig1")["config"])
    with pytest.raises(ConfigError):
        validate_config(_bundle_config_with("fig1", block, key, value))


# (path in the error, bundle, block, key, value, subcommand): each exits 2
# before identify runs
BAD_SETTINGS = [
    ("upper", "fig1", "upper", "simplex_xatol", "abc", ["solve"]),
    ("variants[0]", "fig1", None, "variants", [{"kind": "soft", "w": 1.5}], ["solve"]),
    ("variants[0]", "fig1", None, "variants", [{"kind": "b0", "w": 0.3}], ["solve"]),
    ("mbc", "fig1", None, "mbc",
     {"type": "walker_gait", "v_avg": 0.05, "rate_bound": 0.15}, ["solve"]),
    ("identification.box", "fig1", "identification", "box", [[-1.0, 1.0]] * 3,
     ["solve"]),
    ("sweep.T_min", "fig1", "sweep", "T_min", "abc", ["sweep", "--axis", "T"]),
    ("sweep.amplitudes_deg", "fig1", "sweep", "amplitudes_deg", "x",
     ["sweep", "--axis", "amplitude"]),
    ("mbc", "walker", None, "mbc",
     {"type": "periodic_amplitude_anchor", "amplitude_deg": 10.0}, ["solve"]),
    ("sweep.amplitudes_deg", "walker", "sweep", "amplitudes_deg", [10.0],
     ["sweep", "--axis", "amplitude"]),
    ("mbc", "walker", "mbc", "rate_bound", 0, ["solve"]),
    ("system.params.damping", "pendulum", "system", "params", {"damping": "abc"},
     ["solve"]),
    ("mbc", "walker", None, None, None, ["sweep", "--axis", "T"]),
    # Python's json reads NaN and Infinity; a number must be finite
    ("mbc.amplitude_deg", "fig1", "mbc", "amplitude_deg", float("nan"), ["solve"]),
    ("upper.T_max", "fig1", "upper", "T_max", float("inf"), ["solve"]),
    ("identification.box[1][0]", "fig1", "identification", "box",
     [[-1.0, 1.0], [float("nan"), 1.0]], ["solve"]),
    ("identification.box[0]", "fig1", "identification", "box",
     [[1.0, 1.0], [-1.0, 1.0]], ["solve"]),
    ("sweep", "fig1", "sweep", "T_min", -1.0, ["sweep", "--axis", "T"]),
    # variants are keyed by label: a repeat would overwrite the first's files
    ("variants[1]", "fig1", None, "variants", [{"kind": "b0"}, {"kind": "b0"}],
     ["solve"]),
    ("variants[1]", "fig1", None, "variants",
     [{"kind": "soft", "w": 0.1}, {"kind": "soft", "w": 0.1000000001}], ["solve"]),
]


@pytest.mark.parametrize(
    "path,bundle,block,key,value,command", BAD_SETTINGS,
    ids=["upper.simplex_xatol", "soft_w", "hard_w", "walker_mbc_on_oscillator",
         "identification.box", "sweep.T_min", "sweep.amplitudes_deg",
         "amplitude_mbc_on_walker", "amplitude_sweep_on_walker",
         "walker_rate_bound_0", "system.params.damping", "period_sweep_on_walker",
         "amplitude_deg_nan", "T_max_inf", "box_nan", "box_degenerate",
         "sweep_T_min_negative", "repeated_variant", "repeated_soft_label"],
)
def test_solve_exits_2_on_a_bad_setting(tmp_path, capsys, path, bundle, block, key,
                                        value, command):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_bundle_config_with(bundle, block, key, value)))
    out = str(tmp_path / "out")
    assert cli.main(command + ["--config", str(cfg_path), "--out", out]) == 2
    assert not os.path.exists(out)
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


def test_solve_identifies_from_its_own_config(tmp_path):
    # a model.json left in --out by a run of another config is replaced
    out = str(tmp_path / "out")
    for seed, n_s in ((20240, 2000), (7, 300)):
        cfg = _bundle_config_with("fig1", "identification", "seed", seed)
        cfg["identification"]["n_s"] = n_s
        path = tmp_path / f"seed{seed}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(path), "--out", out]) == 0

    model_path = os.path.join(out, "model.json")
    model = json.loads(_read_bytes(model_path))
    assert (model["seed"], model["n_s"]) == (7, 300)
    config_path = os.path.join(out, "config.json")
    assert json.loads(_read_bytes(config_path)) == cfg
    report = json.loads(_read_bytes(os.path.join(out, "report.json")))
    assert report["provenance"] == {
        "config_hash": artifacts.sha256_file(config_path),
        "model_hash": artifacts.sha256_file(model_path),
        "blas_threads": 1,
        "command": "solve",
    }


def test_identify_writes_the_fit_that_solve_writes(tmp_path):
    # fig1's config with one sweep amplitude, as in the console-script CI step
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(
        _bundle_config_with("fig1", "sweep", "amplitudes_deg", [30.0])))
    outs = [str(tmp_path / command) for command in ("solve", "identify")]
    for command, out in zip(("solve", "identify"), outs):
        assert cli.main([command, "--config", str(path), "--out", out]) == 0
    assert sorted(os.listdir(outs[1])) == ["model.json", "residual_report.json"]
    for name in os.listdir(outs[1]):
        assert _read_bytes(os.path.join(outs[0], name)) == _read_bytes(
            os.path.join(outs[1], name)), name


def test_identify_formats_the_model_record_once(tmp_path, monkeypatch):
    # model.json's text is hashed into residual_report.json and written as
    # it is; formatting walker's record takes milliseconds
    formatted = []
    canonical_json = artifacts.canonical_json

    def counting(obj):
        if isinstance(obj, dict) and "factor" in obj:
            formatted.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(artifacts, "canonical_json", counting)
    run = validate_config(cli.load_bundle("fig1")["config"])
    out = str(tmp_path / "identify")
    cli.cmd_identify(run, out)
    assert len(formatted) == 1
    text = _read_bytes(os.path.join(out, "model.json"))
    assert text.decode() == canonical_json(formatted[0])
    report = json.loads(_read_bytes(os.path.join(out, "residual_report.json")))
    assert report["model_hash"] == hashlib.sha256(text).hexdigest()


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
    amplitudes = [30.0, 35.0]
    cfg = copy.deepcopy(cli.load_bundle("fig1")["config"])
    cfg["sweep"]["amplitudes_deg"] = amplitudes
    cfg["variants"] = [{"kind": "b0"}, {"kind": "bT"}, {"kind": "soft", "w": 0.5}]
    weights = {var.label: var.w for var in validate_config(cfg).variants}
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--axis", "amplitude", "--config", str(path),
                     "--out", out]) == 0
    with open(os.path.join(out, "sweep_amplitude.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert header == list(cli._AMPLITUDE_COLUMNS)
    assert len(rows) == len(amplitudes) * len(weights)

    # each amplitude's rows against a solve whose anchor is that amplitude
    for a_deg in amplitudes:
        cfg["mbc"]["amplitude_deg"] = a_deg
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"solve{a_deg}")
        assert cli.main(["solve", "--config", str(path), "--out", out]) == 0
        report = json.loads(_read_bytes(os.path.join(out, "report.json")))
        entries = {e["variant"]: e for e in report["entries"]}
        at = [row for row in rows if float(row["amplitude_deg"]) == a_deg]
        assert [row["variant"] for row in at] == list(entries) == list(weights)
        # one baseline per amplitude, shared by its rows
        for key in ("T_star_baseline", "c_baseline"):
            assert len({row[key] for row in at}) == 1, key
        for row in at:
            expected = dict(entries[row["variant"]], amplitude_deg=a_deg,
                            variant_w=weights[row["variant"]])
            for key in cli._AMPLITUDE_COLUMNS:
                value = row[key] if key == "variant" else float(row[key])
                assert value == expected[key], (a_deg, row["variant"], key)


def test_solve_reports_a_nonconverged_baseline(tmp_path, monkeypatch):
    # a baseline that stops short is written and compared, flagged as such
    monkeypatch.setattr(baseline_nlp, "_MAXITER", 1)
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cli.load_bundle("fig1")["config"]))
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", str(path), "--out", out]) == 0

    baseline = json.loads(_read_bytes(os.path.join(out, "baseline.json")))
    assert baseline["converged"] is False
    report = json.loads(_read_bytes(os.path.join(out, "report.json")))
    assert [e["baseline_converged"] for e in report["entries"]] == [False]
    assert cli.main(["audit", "--out", out]) == 0


def _run_cli(*args):
    """Exit code and stderr of ``python -m koopbilevel.cli`` in a fresh
    process, so an uncaught exception would show as a traceback."""
    src = os.path.dirname(os.path.dirname(koopbilevel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "koopbilevel.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_audit_of_an_empty_directory_exits_2(tmp_path):
    # exit 1 means a reported mismatch; a missing artifact is not one
    code, err = _run_cli("audit", "--out", str(tmp_path))
    assert code == 2
    assert "Traceback" not in err
    assert "report.json" in err


@pytest.mark.parametrize("command", ["sweep", "identify"])
def test_audit_of_a_directory_without_a_solve_exits_2(tmp_path, capsys, command):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cli.load_bundle("fig1")["config"]))
    out = str(tmp_path / command)
    assert cli.main([command, "--config", str(path), "--out", out]) == 0
    assert cli.main(["audit", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"file error: {os.path.join(out, 'report.json')}: ")
    assert "audit checks the directory of a solve or reproduce run" in err


def test_audit_without_the_baseline_csv_exits_2(tmp_path):
    out = str(tmp_path / "fig1")
    assert cli.main(["reproduce", "--bundle", "fig1", "--out", out]) == 0
    os.remove(os.path.join(out, "baseline.csv"))
    code, err = _run_cli("audit", "--out", out)
    assert code == 2
    assert "Traceback" not in err
    assert "baseline.csv" in err


def test_defective_generator_exits_3_at_identify(tmp_path, monkeypatch, capsys,
                                                 model_from_matrices):
    # an L0 with no modal form fails before model.json is written, not as
    # +inf at every point of the upper search
    identify = cli.identify

    def defective(*args, **kwargs):
        model = identify(*args, **kwargs)
        L0 = np.zeros_like(model.L0)
        L0[0, 1] = 1.0  # a 2x2 Jordan block
        return model_from_matrices(L0, model.Li, model.dictionary)

    monkeypatch.setattr(cli, "identify", defective)
    out = str(tmp_path / "out")
    assert cli.main(["reproduce", "--bundle", "fig1", "--out", out]) == 3
    assert not os.path.exists(os.path.join(out, "model.json"))
    assert "defective" in capsys.readouterr().err


def _openblas_pools():
    """``(get, set)`` of the thread count of numpy's and of scipy's OpenBLAS,
    each looked up by its own name in its wheel's library."""
    pools = []
    for package, name, symbol in (
            (np, "libscipy_openblas64_*", "scipy_openblas_{}_num_threads64_"),
            (scipy, "libscipy_openblas-*", "scipy_openblas_{}_num_threads")):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            f"{package.__name__}.libs")
        (path,) = glob.glob(os.path.join(libs, name))
        lib = ctypes.CDLL(path)
        get, set_ = (getattr(lib, symbol.format(verb)) for verb in ("get", "set"))
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pools.append((get, set_))
    return pools


@pytest.fixture
def two_blas_threads():
    """Both OpenBLAS pools at two threads; their counts are restored after
    the test. Yields a function that reads both counts."""
    pools = _openblas_pools()
    counts = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(2)
    yield lambda: [get() for get, _ in pools]
    for (_, set_), count in zip(pools, counts):
        set_(count)


def test_main_runs_on_one_blas_thread(tmp_path, monkeypatch, capsys,
                                      two_blas_threads):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cli.load_bundle("fig1")["config"]))
    argv = ["solve", "--config", str(path), "--out", str(tmp_path / "out")]
    seen = []
    cmd_identify = cli.cmd_identify

    def recording(*args):
        seen.append(two_blas_threads())
        return cmd_identify(*args)

    monkeypatch.setattr(cli, "cmd_identify", recording)
    assert cli.main(argv) == 0
    assert seen == [[1, 1]]
    assert two_blas_threads() == [2, 2]
    report = json.loads(_read_bytes(str(tmp_path / "out" / "report.json")))
    assert report["provenance"]["blas_threads"] == 1

    # the caller's counts come back after a config error (exit 2) and after
    # an exception that leaves main
    def failing(error):
        def identify(*args):
            seen.append(two_blas_threads())
            raise error
        return identify

    monkeypatch.setattr(cli, "cmd_identify", failing(ConfigError("bad setting")))
    assert cli.main(argv) == 2
    assert "config error: bad setting" in capsys.readouterr().err
    assert two_blas_threads() == [2, 2]
    monkeypatch.setattr(cli, "cmd_identify", failing(RuntimeError("interrupted")))
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.main(argv)
    assert seen == [[1, 1]] * 3
    assert two_blas_threads() == [2, 2]


def test_a_direct_solve_records_the_thread_count_it_ran(tmp_path, two_blas_threads):
    run = config.validate_config(cli.load_bundle("fig1")["config"])
    out = str(tmp_path)
    report, _ = cli.cmd_solve(run, out, cli.cmd_identify(run, out))
    assert report["provenance"]["blas_threads"] == 2
