"""Config merging, exit statuses, report schema and fixture replay."""

import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from loopgerbe import checks, cli, report as report_mod
from loopgerbe.checks import (CHECKS, EQUATION_TAGS, RunConfig,
                              convergence_grids, convergence_table,
                              run_check, run_suite)
from loopgerbe.sampling import RecordingRNG, ReplayRNG


def fast_args(tmp_path, **extra):
    """Small trivial-bundle run writing into tmp_path."""
    out = str(tmp_path / "rep.json")
    argv = ["--scenario", "trivial-bundle", "--ntheta", "48",
            "--seed", "11", "--out", out]
    for key, val in extra.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return argv, out


# ---------------------------------------------------------------------------
# configuration merging


def test_defaults():
    cfg = cli.load_config([])
    assert cfg == RunConfig()


def test_precedence_flag_env_file(tmp_path, monkeypatch):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"ntheta": 32, "npath": 4, "seed": 3}))
    monkeypatch.setenv("LOOPGERBE_NTHETA", "64")
    monkeypatch.setenv("LOOPGERBE_NPATH", "16")
    cfg = cli.load_config(["--config", str(cfgfile), "--ntheta", "48"])
    assert cfg.ntheta == 48      # flag beats env beats file
    assert cfg.npath == 16       # env beats file
    assert cfg.seed == 3         # file beats default
    assert cfg.fd_step == RunConfig().fd_step


def test_env_coercion_and_bad_value(monkeypatch):
    monkeypatch.setenv("LOOPGERBE_FD_STEP", "1e-3")
    assert cli.load_config([]).fd_step == 1e-3
    monkeypatch.setenv("LOOPGERBE_FD_STEP", "tiny")
    with pytest.raises(cli.UsageError):
        cli.load_config([])


def test_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(cli.UsageError):
        cli.load_config(["--config", missing])
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(cli.UsageError):
        cli.load_config(["--config", str(bad)])
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(cli.UsageError):
        cli.load_config(["--config", str(arr)])
    unknown = tmp_path / "uk.json"
    unknown.write_text(json.dumps({"nthetaa": 32}))
    with pytest.raises(cli.UsageError):
        cli.load_config(["--config", str(unknown)])
    # a value of the wrong JSON type is a usage error, never a traceback;
    # an integer "out" must not be taken as a file descriptor
    for data in ({"fd_step": "1e-4"}, {"tol": "x"}, {"out": 5},
                 {"ntheta": True}, {"fd_step": None}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(data))
        with pytest.raises(cli.UsageError):
            cli.load_config(["--config", str(typed)])
        assert cli.main(["--config", str(typed)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_config_file_values_of_the_field_type(tmp_path):
    cfgfile = tmp_path / "typed.json"
    cfgfile.write_text(json.dumps({"tol": 1, "fd_step": 1e-3, "out": None}))
    cfg = cli.load_config(["--config", str(cfgfile)])
    assert cfg.tol == 1.0 and type(cfg.tol) is float
    assert cfg.fd_step == 1e-3 and cfg.out is None


def test_invalid_values_exit_usage(capsys):
    assert cli.main(["--ntheta", "15"]) == cli.EXIT_USAGE
    assert cli.main(["--ntheta", "8"]) == cli.EXIT_USAGE
    assert cli.main(["--scenario", "everything"]) == cli.EXIT_USAGE
    assert cli.main(["--group", "so3"]) == cli.EXIT_USAGE
    assert cli.main(["--fd-step", "0.5"]) == cli.EXIT_USAGE
    assert cli.main(["--report", "yaml"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err
    # 0.5 / h overflows to inf below the smallest normal float
    assert cli.main(["--fd-step", "1e-320"]) == cli.EXIT_USAGE
    assert "fd_step must be a normal float" in capsys.readouterr().err
    assert RunConfig(fd_step=np.finfo(float).tiny).problems() == []


def test_bool_counts_and_seed_are_refused():
    # True is an int to isinstance; a report must never say "seed": true
    for key in ("ntheta", "npath", "seed"):
        for flag in (True, False):
            assert RunConfig(**{key: flag}).problems() != [], (key, flag)
    assert RunConfig(seed=0).problems() == []


def test_bool_tol_is_refused():
    # a report must never say "tol": true either
    for flag in (True, False):
        assert RunConfig(tol=flag).problems() != [], flag
    assert RunConfig(tol=1).problems() == []


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "loopgerbe", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--scenario" in done.stdout


def test_non_finite_tol_exits_usage(monkeypatch, capsys):
    # an infinite tolerance would pass every row
    assert cli.main(["--tol", "inf"]) == cli.EXIT_USAGE
    assert cli.main(["--tol", "nan"]) == cli.EXIT_USAGE
    monkeypatch.setenv("LOOPGERBE_TOL", "inf")
    assert cli.main([]) == cli.EXIT_USAGE
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_argparse_failures_map_to_usage(capsys):
    assert cli.main(["--ntheta", "many"]) == cli.EXIT_USAGE
    assert cli.main(["--no-such-flag"]) == cli.EXIT_USAGE
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run statuses and outputs


def test_pass_run_writes_report_and_fixtures(tmp_path, capsys):
    argv, out = fast_args(tmp_path)
    assert cli.main(argv) == cli.EXIT_PASS
    err = capsys.readouterr().err
    assert "[PASS]" in err and "[FAIL]" not in err
    rep = json.loads(open(out).read())
    assert report_mod.validate_report(rep) == []
    names = [row["name"] for row in rep["checks"]]
    assert names == sorted(names)
    assert all(name.startswith("trivial-bundle/") for name in names)
    assert all(row["pass"] for row in rep["checks"])
    side = json.loads(open(tmp_path / "rep.fixtures.json").read())
    assert side["seed"] == 11
    assert set(side["fixtures"]) == set(names)


def test_fixtures_are_written_compact(tmp_path):
    # one line of compact JSON: the C encoder writes it, no indent
    argv, out = fast_args(tmp_path)
    assert cli.main(argv) == cli.EXIT_PASS
    text = open(tmp_path / "rep.fixtures.json").read()
    assert text.endswith("}\n") and text.count("\n") == 1
    side = json.loads(text)
    assert text == json.dumps(side) + "\n"


def test_stdout_when_no_out(capsys):
    status = cli.main(["--scenario", "trivial-bundle", "--ntheta", "48"])
    assert status == cli.EXIT_PASS
    rep = json.loads(capsys.readouterr().out)
    assert rep["version"] == report_mod.VERSION
    assert rep["config"]["scenario"] == "trivial-bundle"


def test_unreachable_tolerance_fails_but_reports(tmp_path, capsys):
    argv, out = fast_args(tmp_path, tol="1e-30")
    assert cli.main(argv) == cli.EXIT_FAIL
    rep = json.loads(open(out).read())
    assert any(not row["pass"] for row in rep["checks"])
    assert all(row["tol"] == 1e-30 for row in rep["checks"])
    capsys.readouterr()


def test_nan_residual_fails_its_row(tmp_path, capsys, monkeypatch):
    # at a subnormal step 0.5/h overflows to inf and the vanishing
    # difference times inf is NaN; the NaN must reach the row and fail
    # it, where a running max from 0.0 reported 0.0 and passed
    cfg = RunConfig(fd_step=1e-320, ntheta=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = checks.pair_form_coboundary(cfg, checks._check_rng(cfg, "nan"),
                                          n=2)
    assert np.isnan(res)
    # the command line refuses that step, so a NaN check body stands in
    name = "trivial-bundle/simplicial-square-zero"
    monkeypatch.setitem(CHECKS, name, dataclasses.replace(
        CHECKS[name], fn=lambda cfg, rng: float("nan")))
    argv, out = fast_args(tmp_path)
    assert cli.main(argv) == cli.EXIT_FAIL
    rows = {r["name"]: r for r in strict_json(open(out).read())["checks"]}
    assert rows[name]["residual"] is None and rows[name]["pass"] is False
    assert "simplicial-square-zero residual=nan" in capsys.readouterr().err


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens, which are not
    JSON."""
    def refuse(token):
        raise ValueError("not JSON: %s" % token)
    return json.loads(text, parse_constant=refuse)


def test_non_finite_residual_is_json_null():
    row = {"name": "a/b", "paper_ref": "loop-cocycle", "residual": 1.5e-9,
           "tol": 1e-8, "pass": True, "seconds": 0.25}
    rep = {"version": report_mod.VERSION, "config": RunConfig().as_dict(),
           "checks": [row], "convergence": [{"name": "a/b", "grid": 16,
                                             "residual": 2.5e-9, "order": None}]}
    # a finite report is written as before
    assert report_mod.to_json(rep) == json.dumps(rep, indent=2) + "\n"
    bad = dict(rep, checks=[dict(row, residual=float("nan"), **{"pass": False})],
               convergence=[dict(rep["convergence"][0], residual=float("inf"))])
    got = strict_json(report_mod.to_json(bad))
    assert got["checks"][0]["residual"] is None
    assert got["convergence"][0]["residual"] is None
    assert report_mod.validate_report(got) == []
    # the report itself keeps the float, and CSV keeps its repr
    assert np.isnan(bad["checks"][0]["residual"])
    csv_text = report_mod.to_csv(bad)
    assert ",nan,1e-08,false," in csv_text and ",inf,," in csv_text


def test_check_needs_a_draw():
    rng = checks._check_rng(RunConfig(), "none")
    for fn in (checks.pair_form_coboundary, checks.frame_round_trip):
        with pytest.raises(ValueError):
            fn(RunConfig(ntheta=16), rng, n=0)


def test_unwritable_out_exits_io(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "rep.json")
    argv = ["--scenario", "trivial-bundle", "--ntheta", "48", "--out", out]
    assert cli.main(argv) == cli.EXIT_IO
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report rendering


def suite_report(**kw):
    cfg = RunConfig(scenario="trivial-bundle", ntheta=48, **kw)
    return cfg, report_mod.build_report(cfg, run_suite(cfg))


def test_report_fields_exact():
    _, rep = suite_report()
    assert set(rep) == {"version", "config", "checks", "convergence"}
    for row in rep["checks"]:
        assert tuple(row) == report_mod.CHECK_FIELDS
        assert row["paper_ref"] in EQUATION_TAGS
    for row in rep["convergence"]:
        assert tuple(row) == report_mod.CONVERGENCE_FIELDS
    assert report_mod.validate_report(rep) == []
    assert report_mod.validate_report(dict(rep, aborted="x")) == [
        "unknown key: aborted"]


def test_normalized_reports_deterministic():
    # two runs that differ only in the file they write normalize alike,
    # with out set to None as a run to stdout has it
    _, rep1 = suite_report(out="a.json")
    _, rep2 = suite_report(out="b.json")
    n1 = report_mod.normalized(rep1)
    n2 = report_mod.normalized(rep2)
    assert json.dumps(n1, sort_keys=True) == json.dumps(n2, sort_keys=True)
    assert all(row["seconds"] == 0.0 for row in n1["checks"])
    assert n1["config"] == dict(rep1["config"], out=None)


def test_seed_changes_fixtures_not_structure():
    _, rep1 = suite_report(seed=1)
    _, rep2 = suite_report(seed=2)
    assert [r["name"] for r in rep1["checks"]] == \
        [r["name"] for r in rep2["checks"]]
    r1 = [r["residual"] for r in rep1["checks"]]
    r2 = [r["residual"] for r in rep2["checks"]]
    assert r1 != r2


# the sha256 (first 16 hex digits) of the JSON fixture log of one draw
# of each check at ntheta=16, npath=8, seed 7: what one draw means, and
# how its numbers group into calls (a stack of k profiles is one uniform
# draw of shape (k, 5))
DRAW_DIGESTS = {
    "su2": {
        "caloron-roundtrip/circle-reduction": "c741c146dd703a61",
        "caloron-roundtrip/connection-axioms": "d329f6800de84089",
        "caloron-roundtrip/curvature-square-split": "e3a926ac166b5480",
        "caloron-roundtrip/frame-round-trip": "82892e50e62b2ca0",
        "central-extension/cochain-closed": "314d902bcff19531",
        "central-extension/pair-form-coboundary": "697ffa727b5da791",
        "central-extension/path-cocycle-identity": "b48134e1ad740ae6",
        "central-extension/reduced-splitting": "8d73e8af86fb14c9",
        "path-fibration/curving-differential": "de059dfe18385d7d",
        "path-fibration/invariant-volume": "4f53cda18c2baa0c",
        "path-fibration/string-matches-invariant-form": "dfc45bf49dcfede1",
        "path-fibration/three-form-closed": "834ad3c7d711865d",
        "trivial-bundle/curving-differential": "109da71c9031a7b7",
        "trivial-bundle/curving-transition": "c9be7c9125a8b5af",
        "trivial-bundle/differential-square-zero": "6c9e3a255e795d5b",
        "trivial-bundle/simplicial-square-zero": "662ae0b5f3b2ae06",
        "trivial-bundle/transition-coboundary": "7898ce91b20f930c",
    },
    "su3": {
        "caloron-roundtrip/circle-reduction": "c741c146dd703a61",
        "caloron-roundtrip/connection-axioms": "a66e08feadf765d7",
        "caloron-roundtrip/curvature-square-split": "5b6640809c73aa7b",
        "caloron-roundtrip/frame-round-trip": "894da2750a53a7a1",
        "central-extension/cochain-closed": "88b74813031ae706",
        "central-extension/pair-form-coboundary": "a85b82368b5cbd4c",
        "central-extension/path-cocycle-identity": "4403e9ca0a8c0228",
        "central-extension/reduced-splitting": "69552ef0fb9766ea",
        "path-fibration/curving-differential": "0edfa8875e2377df",
        "path-fibration/string-matches-invariant-form": "6fbd60e01d3927c7",
        "path-fibration/three-form-closed": "7c19356de98a6c0b",
        "trivial-bundle/curving-differential": "db7d33e58a992cd8",
        "trivial-bundle/curving-transition": "cfaf403c43b32fca",
        "trivial-bundle/differential-square-zero": "61796b0f5680bdfa",
        "trivial-bundle/simplicial-square-zero": "5348758448b196cd",
        "trivial-bundle/transition-coboundary": "0072bcd7bdf731fe",
    }}


def _one_draw_logs(group):
    """The fixture log of one draw of each check at ntheta=16, npath=8,
    seed 7, by check name."""
    cfg = RunConfig(group=group, ntheta=16, npath=8)
    logs = {}
    for spec in checks.select_checks(cfg):
        rng = RecordingRNG(checks._check_rng(cfg, spec.name))
        one = {"n": 1} if "n" in inspect.signature(spec.fn).parameters else {}
        spec.fn(cfg, rng, **one)
        logs[spec.name] = rng.log
    return logs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_one_draw_of_every_check_keeps_its_fixture_log(group):
    # every sampler makes the draws it made when its draw was written, in
    # the same order and the same grouping into calls, whichever module
    # it lives in
    got = {name: _digest(log) for name, log in _one_draw_logs(group).items()}
    assert got == DRAW_DIGESTS[group]


# the digest of the same draws as one flat stream of (method, value)
# pairs, whatever calls they came in: the numbers a draw takes from the
# generator, in order
STREAM_DIGESTS = {
    "su2": {
        "caloron-roundtrip/circle-reduction": "30c70c765b5090d2",
        "caloron-roundtrip/connection-axioms": "64031f5ff6cd5068",
        "caloron-roundtrip/curvature-square-split": "326c11113d6b9477",
        "caloron-roundtrip/frame-round-trip": "08ff210908def1e8",
        "central-extension/cochain-closed": "0054487bd5a65102",
        "central-extension/pair-form-coboundary": "23182890f2c1e98d",
        "central-extension/path-cocycle-identity": "864610c2bb38f0cd",
        "central-extension/reduced-splitting": "569089d843e7a7b2",
        "path-fibration/curving-differential": "411d5275be9d37a3",
        "path-fibration/invariant-volume": "4f53cda18c2baa0c",
        "path-fibration/string-matches-invariant-form": "53012a1739a568ff",
        "path-fibration/three-form-closed": "06d04a5921572f84",
        "trivial-bundle/curving-differential": "4c15d64f6944bf91",
        "trivial-bundle/curving-transition": "cba3630443773039",
        "trivial-bundle/differential-square-zero": "5dc27c0f17205cee",
        "trivial-bundle/simplicial-square-zero": "112645896dc1ca5f",
        "trivial-bundle/transition-coboundary": "a553f6beabe8861e",
    },
    "su3": {
        "caloron-roundtrip/circle-reduction": "30c70c765b5090d2",
        "caloron-roundtrip/connection-axioms": "eb0a6cb5dd2dd17a",
        "caloron-roundtrip/curvature-square-split": "8bc39d9c4c0b634b",
        "caloron-roundtrip/frame-round-trip": "e2243a161e7da8bb",
        "central-extension/cochain-closed": "34fe149e1bce36f9",
        "central-extension/pair-form-coboundary": "3561aa41e77586be",
        "central-extension/path-cocycle-identity": "f218a1694db8b189",
        "central-extension/reduced-splitting": "ca3bad5ab1b395bb",
        "path-fibration/curving-differential": "63510a86fc94c958",
        "path-fibration/string-matches-invariant-form": "4455c917501174a9",
        "path-fibration/three-form-closed": "79b21d65dfc40c03",
        "trivial-bundle/curving-differential": "4e215e074d1c7618",
        "trivial-bundle/curving-transition": "25044687fef61f09",
        "trivial-bundle/differential-square-zero": "16e5bc62ada013cc",
        "trivial-bundle/simplicial-square-zero": "9409d32b53635fd1",
        "trivial-bundle/transition-coboundary": "5c7bc344a252dbd8",
    }}


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_one_draw_of_every_check_keeps_its_drawn_numbers(group):
    # regrouping the draws into fewer generator calls keeps every number
    # drawn and its order
    got = {name: _digest([[entry["method"], v] for entry in log
                          for v in np.ravel(entry["values"]).tolist()])
           for name, log in _one_draw_logs(group).items()}
    assert got == STREAM_DIGESTS[group]


# the most one row of the trivial-bundle and path-fibration scenarios
# may allocate above what it found held, in MiB traced: their fixtures
# are a few loops on the default grid, and so should their working sets be
ROW_BUDGET_MIB = 4.0


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_trivial_bundle_and_path_fibration_rows_keep_a_small_working_set(group):
    cfg = RunConfig(group=group)
    peaks = {}
    tracemalloc.start()
    try:
        for spec in checks.select_checks(cfg):
            if spec.name.split("/")[0] in ("trivial-bundle", "path-fibration"):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                run_check(spec, cfg)
                peaks[spec.name] = (tracemalloc.get_traced_memory()[1] - held) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(peaks) == (9 if group == "su2" else 8)
    assert {n: mib for n, mib in peaks.items() if mib > ROW_BUDGET_MIB} == {}


def test_csv_projection():
    cfg, rep = suite_report()
    text = report_mod.to_csv(rep)
    lines = text.strip().split("\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    assert "# version,%s" % report_mod.VERSION in meta[0]
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",") == ["kind", "name", "paper_ref", "grid",
                                 "residual", "tol", "pass", "seconds", "order"]
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(body) == len(rep["checks"]) + len(rep["convergence"])
    assert cli.EXIT_PASS == 0  # keep the import earning its place


def test_render_rejects_unknown_format():
    _, rep = suite_report()
    with pytest.raises(ValueError):
        report_mod.render(rep, "yaml")


# ---------------------------------------------------------------------------
# convergence tables


def test_fd_ladder_order_is_fourth():
    # the ladder halves the step of the Richardson stencil every row
    # runs, three rungs from FD_LADDER_START whatever the grid
    orders = {}
    for ntheta in (16, 32, 128):
        rows = convergence_table("central-extension/pair-form-coboundary",
                                 RunConfig(ntheta=ntheta))
        assert [row["grid"] for row in rows] == [100, 200, 400]
        assert all(row["name"] == "central-extension/pair-form-coboundary#fd-step"
                   for row in rows)
        orders[ntheta] = rows[0]["order"]
        assert all(row["order"] == orders[ntheta] for row in rows)
    assert orders[32] > 3.5 and orders[128] > 3.5
    # at 16 nodes the grid error (6e-10 at seed 7) lies above every
    # rung's difference error (2e-11 at the first), so the order reads
    # the flat floor
    assert abs(orders[16]) < 0.5


def test_fd_ladder_rows_report_their_order():
    # every row of an fd or a grid ladder carries its ladder's fitted
    # order into the JSON report and the CSV order column
    cfg = RunConfig(ntheta=32)
    fd = convergence_table("central-extension/pair-form-coboundary", cfg)
    grid = convergence_table("path-fibration/curving-differential", cfg)
    assert [row["grid"] for row in grid] == [16, 32]
    rep = report_mod.build_report(cfg, checks.SuiteResult(convergence=fd + grid))
    assert report_mod.validate_report(rep) == []
    for rows in (rep["convergence"][:3], rep["convergence"][3:]):
        assert rows[0]["order"] is not None
        assert all(tuple(row) == report_mod.CONVERGENCE_FIELDS
                   and row["order"] == rows[0]["order"] for row in rows)
    assert strict_json(report_mod.to_json(rep))["convergence"] == rep["convergence"]
    body = report_mod.to_csv(rep).strip().split("\n")[-5:]
    assert [line.split(",")[-1] for line in body] == (
        [repr(fd[0]["order"])] * 3 + [repr(grid[0]["order"])] * 2)
    # a null order is an empty cell, and JSON null
    rep["convergence"][0]["order"] = None
    assert report_mod.validate_report(rep) == []
    assert report_mod.to_csv(rep).strip().split("\n")[-5].endswith(",")
    assert strict_json(report_mod.to_json(rep))["convergence"][0]["order"] is None
    # a convergence row with any other key is flagged
    bad = dict(rep, convergence=[dict(fd[0], slope=1.0)])
    assert report_mod.validate_report(bad) != []


def test_a_convergence_row_without_order_is_flagged():
    cfg = RunConfig(ntheta=32)
    rows = convergence_table("path-fibration/curving-differential", cfg)
    rep = report_mod.build_report(cfg, checks.SuiteResult(convergence=rows))
    assert report_mod.validate_report(rep) == []
    bare = [{k: v for k, v in row.items() if k != "order"} for row in rows]
    assert report_mod.validate_report(dict(rep, convergence=bare)) == [
        "bad convergence row fields: ('name', 'grid', 'residual')"] * len(rows)


def test_grid_sweep_rows_match_request():
    # a grid ladder's rungs are the grids of the configuration alone
    cfg = RunConfig(ntheta=64)
    rows = convergence_table("path-fibration/curving-differential", cfg)
    assert [row["grid"] for row in rows] == convergence_grids(cfg) == [16, 32, 64]
    assert rows[0]["order"] is not None
    # a row at round-off on every rung has no ladder
    with pytest.raises(ValueError, match="no convergence ladder"):
        convergence_table("path-fibration/string-matches-invariant-form", cfg)


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_curving_differential_ladder_is_fourth_order(group):
    # the closed-grid Simpson rule sets the residual of d f = 2 pi i omega
    cfg = RunConfig(group=group, seed=7)
    name = "path-fibration/curving-differential"
    rows = convergence_table(name, cfg)
    assert [row["grid"] for row in rows] == [32, 64, 128]
    assert rows[-1]["residual"] == run_check(CHECKS[name], cfg)["residual"]
    assert 3.5 <= rows[0]["order"] <= 4.5


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_every_default_convergence_row_fits_an_order(group):
    cfg = RunConfig(group=group)
    rep = report_mod.build_report(cfg, run_suite(cfg))
    assert rep["convergence"]
    assert all(tuple(row) == report_mod.CONVERGENCE_FIELDS
               and row["order"] is not None for row in rep["convergence"])
    assert {row["name"] for row in rep["convergence"]} == {
        "central-extension/pair-form-coboundary#fd-step",
        "path-fibration/curving-differential"}


def test_one_rung_fits_no_order():
    # at the smallest allowed grid a grid ladder is a single rung, and a
    # line through one point has no slope to report
    cfg = RunConfig(ntheta=16)
    assert convergence_grids(cfg) == [16]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert checks._fit_order([1.0 / 16], [1e-9]) is None


def test_non_finite_rung_fits_no_order():
    # a NaN or infinite residual leaves no line; polyfit would return NaN
    assert checks._fit_order([1e-2, 5e-3], [1e-6, 2.5e-7]) == pytest.approx(2.0)
    for bad in (np.nan, np.inf):
        assert checks._fit_order([1e-2, 5e-3, 2.5e-3], [1e-6, bad, 6e-8]) is None


def test_suite_runs_each_check_configuration_once(monkeypatch):
    # the finest grid rung of a convergence table is the check's own row
    name = "path-fibration/curving-differential"
    spec = CHECKS[name]
    grids_run = []

    def counted(cfg, rng, **kw):
        grids_run.append(cfg.ntheta)
        return spec.fn(cfg, rng, **kw)

    monkeypatch.setitem(CHECKS, name, dataclasses.replace(spec, fn=counted))
    cfg = RunConfig(scenario="path-fibration")
    result = run_suite(cfg)
    assert sorted(grids_run) == [32, 64, 128]
    rows = [r for r in result.convergence if r["name"] == name]
    assert rows == convergence_table(name, cfg)
    own = [r for r in result.rows if r["name"] == name][0]
    assert rows[-1]["grid"] == cfg.ntheta
    assert rows[-1]["residual"] == own["residual"]


def test_convergence_unknown_check():
    with pytest.raises(ValueError):
        convergence_table("no-such/check", RunConfig())


# ---------------------------------------------------------------------------
# fixture replay


def test_replay_reproduces_residual(tmp_path):
    argv, out = fast_args(tmp_path)
    assert cli.main(argv) == cli.EXIT_PASS
    side = json.loads(open(tmp_path / "rep.fixtures.json").read())
    rep = json.loads(open(out).read())
    cfg = RunConfig(**{k: v for k, v in rep["config"].items()
                       if v is not None or k == "tol"})
    name = "trivial-bundle/transition-coboundary"
    spec = CHECKS[name]
    row = run_check(spec, cfg, rng=ReplayRNG(side["fixtures"][name]))
    want = [r for r in rep["checks"] if r["name"] == name][0]
    assert row["residual"] == want["residual"]


def test_replay_rejects_misuse():
    replay = ReplayRNG([{"method": "uniform", "values": [0.25, 0.5]}])
    with pytest.raises(ValueError):
        replay.normal(size=2)
    replay2 = ReplayRNG([])
    with pytest.raises(ValueError):
        replay2.uniform()


def test_replay_rejects_a_draw_that_does_not_fit():
    # a logged 3-vector does not answer a 2-vector request, and a logged
    # integer outside [low, high) does not answer integers(low, high)
    with pytest.raises(ValueError):
        ReplayRNG([{"method": "uniform", "values": [0.1, 0.2, 0.3]}]).uniform(size=2)
    with pytest.raises(ValueError):
        ReplayRNG([{"method": "uniform", "values": 0.1}]).uniform(size=1)
    with pytest.raises(ValueError):
        ReplayRNG([{"method": "integers", "values": 120}]).integers(32)
    with pytest.raises(ValueError):
        ReplayRNG([{"method": "integers", "values": [3, 40]}]).integers(4, 40, size=2)
    replay = ReplayRNG([{"method": "uniform", "values": [0.1, 0.2, 0.3]},
                        {"method": "normal", "values": [[1.0], [2.0]]},
                        {"method": "integers", "values": 31},
                        {"method": "integers", "values": [4, 39]}])
    assert replay.uniform(-1.0, 1.0, size=3).tolist() == [0.1, 0.2, 0.3]
    assert replay.normal(size=(2, 1)).shape == (2, 1)
    assert replay.integers(32) == 31
    assert replay.integers(4, 40, size=2).tolist() == [4, 39]
