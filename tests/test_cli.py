"""Config merging, exit statuses, report schema and fixture replay."""

import dataclasses
import json

import pytest

from loopgerbe import centext, cli, report as report_mod
from loopgerbe.checks import (CHECKS, EQUATION_TAGS, RunConfig,
                              convergence_grids, convergence_table,
                              run_check, run_suite)
from loopgerbe.sampling import ReplayRNG


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


def test_config_file_errors(tmp_path):
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


def test_invalid_values_exit_usage(capsys):
    assert cli.main(["--ntheta", "15"]) == cli.EXIT_USAGE
    assert cli.main(["--ntheta", "8"]) == cli.EXIT_USAGE
    assert cli.main(["--scenario", "everything"]) == cli.EXIT_USAGE
    assert cli.main(["--group", "so3"]) == cli.EXIT_USAGE
    assert cli.main(["--fd-step", "0.5"]) == cli.EXIT_USAGE
    assert cli.main(["--report", "yaml"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_unwritable_out_exits_io(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "rep.json")
    argv = ["--scenario", "trivial-bundle", "--ntheta", "48", "--out", out]
    assert cli.main(argv) == cli.EXIT_IO
    capsys.readouterr()


def test_convention_abort_exits_4_with_partial_report(tmp_path, capsys,
                                                      monkeypatch):
    name = "trivial-bundle/simplicial-square-zero"

    def boom(cfg, rng, n=2):
        raise centext.ConventionError("slot self-test forced to fail")

    monkeypatch.setitem(CHECKS, name,
                        dataclasses.replace(CHECKS[name], fn=boom))
    argv, out = fast_args(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONVENTION
    rep = json.loads(open(out).read())
    assert "aborted" in rep
    done = [row["name"] for row in rep["checks"]]
    assert name not in done and len(done) > 0
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


def test_normalized_reports_deterministic():
    _, rep1 = suite_report()
    _, rep2 = suite_report()
    n1 = report_mod.normalized(rep1)
    n2 = report_mod.normalized(rep2)
    assert json.dumps(n1, sort_keys=True) == json.dumps(n2, sort_keys=True)
    assert all(row["seconds"] == 0.0 for row in n1["checks"])


def test_seed_changes_fixtures_not_structure():
    _, rep1 = suite_report(seed=1)
    _, rep2 = suite_report(seed=2)
    assert [r["name"] for r in rep1["checks"]] == \
        [r["name"] for r in rep2["checks"]]
    r1 = [r["residual"] for r in rep1["checks"]]
    r2 = [r["residual"] for r in rep2["checks"]]
    assert r1 != r2


def test_csv_projection():
    cfg, rep = suite_report()
    text = report_mod.to_csv(rep)
    lines = text.strip().split("\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    assert "# version,%s" % report_mod.VERSION in meta[0]
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",") == ["kind", "name", "paper_ref", "grid",
                                 "residual", "tol", "pass", "seconds"]
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(body) == len(rep["checks"]) + len(rep["convergence"])
    assert cli.EXIT_PASS == 0  # keep the import earning its place


def test_render_rejects_unknown_format():
    _, rep = suite_report()
    with pytest.raises(ValueError):
        report_mod.render(rep, "yaml")


# ---------------------------------------------------------------------------
# convergence tables


def test_fd_ladder_order_is_second():
    cfg = RunConfig(ntheta=64)
    tab = convergence_table("central-extension/pair-form-coboundary",
                            (64, 128, 256), cfg)
    assert len(tab.rows) == 3
    steps = [row["grid"] for row in tab.rows]
    assert steps == [100, 200, 400]
    assert tab.order is not None and tab.order > 1.8


def test_grid_sweep_rows_match_request():
    cfg = RunConfig(ntheta=64)
    grids = convergence_grids(cfg)
    tab = convergence_table("path-fibration/string-matches-invariant-form",
                            grids, cfg)
    assert [row["grid"] for row in tab.rows] == list(grids)
    # closed-form integrands: already at roundoff on the coarsest grid
    assert all(row["residual"] < 1e-10 for row in tab.rows)


def test_convergence_unknown_check():
    with pytest.raises(ValueError):
        convergence_table("no-such/check", (16, 32), RunConfig())


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
