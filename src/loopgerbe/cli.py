"""Command-line runner for the verification suites.

Configuration precedence: flags, then LOOPGERBE_* environment
variables, then a JSON file given via --config, then defaults.  The
report goes to --out or stdout; when a path is given the sampled
fixture values are serialised next to it so another implementation can
compare against the same scenario without reproducing the generator.

Exit status: 0 all checks passed, 1 at least one residual above
tolerance, 2 unusable configuration, 3 report I/O failure, 4 the
extension-form convention self-test failed (nothing downstream can be
trusted).  The report is still written for statuses 1 and 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks
from . import report as report_mod

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONVENTION = 4

ENV_PREFIX = "LOOPGERBE_"

class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopgerbe",
        description="run the named verification suites and write a "
                    "residual/convergence report")
    p.add_argument("--scenario", help="suite to run (default all)")
    p.add_argument("--group", help="structure group, su2 or su3")
    p.add_argument("--ntheta", type=int, help="angular grid size, even >= 16")
    p.add_argument("--npath", type=int, help="path parameter nodes")
    p.add_argument("--fd-step", dest="fd_step", type=float,
                   help="difference step, in (0, 1e-2]")
    p.add_argument("--tol", type=float,
                   help="override every per-check tolerance")
    p.add_argument("--seed", type=int, help="fixture seed")
    p.add_argument("--report", help="report format, json or csv")
    p.add_argument("--out", help="report path (default stdout)")
    p.add_argument("--config", help="JSON file with config keys")
    return p


def _coerce(key: str, raw: str):
    typ = checks.CONFIG_FIELDS[key]
    try:
        return typ(raw)
    except ValueError:
        raise UsageError("bad value for %s: %r" % (key, raw))


def load_config(argv=None) -> checks.RunConfig:
    ns = build_parser().parse_args(argv)
    merged = {}
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError("config file: %s" % exc)
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in data.items():
            if key not in checks.CONFIG_FIELDS:
                raise UsageError("unknown config key: %s" % key)
            merged[key] = val
    for key in checks.CONFIG_FIELDS:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            merged[key] = _coerce(key, raw)
    for key in checks.CONFIG_FIELDS:
        val = getattr(ns, key)
        if val is not None:
            merged[key] = val
    cfg = checks.RunConfig(**merged)
    problems = cfg.problems()
    if problems:
        raise UsageError("; ".join(problems))
    return cfg


def _fixtures_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".fixtures.json"


def run(cfg: checks.RunConfig):
    """Execute the configured suite, write the report, return
    (report dict, exit status)."""
    result = checks.run_suite(cfg, record_fixtures=cfg.out is not None)
    rep = report_mod.build_report(cfg, result)
    text = report_mod.render(rep, cfg.report)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        with open(_fixtures_path(cfg.out), "w") as fh:
            json.dump({"version": report_mod.VERSION, "seed": cfg.seed,
                       "fixtures": result.fixtures}, fh, indent=1)
            fh.write("\n")
    else:
        sys.stdout.write(text)
    for row in rep["checks"]:
        print("[%s] %s residual=%.3e tol=%.1e (%.2fs)"
              % ("PASS" if row["pass"] else "FAIL", row["name"],
                 row["residual"], row["tol"], row["seconds"]),
              file=sys.stderr)
    if result.aborted is not None:
        print("aborted: %s" % result.aborted, file=sys.stderr)
        return rep, EXIT_CONVENTION
    return rep, EXIT_PASS if result.all_pass else EXIT_FAIL


def main(argv=None) -> int:
    try:
        cfg = load_config(argv)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_USAGE if code else 0
    try:
        _, status = run(cfg)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
