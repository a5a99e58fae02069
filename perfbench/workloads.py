"""The three benchmark workloads.

Each workload runs one op at a time (a closed loop with one client) and
drives the program only through `loopgerbe.checks` and `loopgerbe.cli`.
`run(op_seed)` is the timed part; `verify(raw)` checks the outputs
afterwards and returns an Outcome.  `SETUP` is the code a fresh
interpreter runs to build the workload's grid, group and scenario
objects, which is what `setup_s` times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from loopgerbe import checks, cli, report

# accuracy margins are clamped to +-12 decades: residuals are floored at
# tol * 1e-12, and an op without a residual counts as 12 decades short
MARGIN_CAP = 12.0


@dataclass
class Outcome:
    ok: bool
    margin: float           # decades of headroom below the tolerance
    digest_text: str        # what the determinism digest covers
    nbytes: int = 0         # report and fixture bytes written
    problem: str = ""


def margin(residual: float, tol: float) -> float:
    """log10(tol / residual) with the residual floored at tol * 1e-12."""
    if not math.isfinite(residual):
        return -MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / max(residual, tol * 10 ** -MARGIN_CAP)))


def _rng(op_seed: int) -> np.random.Generator:
    # the same counter-based generator the program seeds its checks with
    return np.random.Generator(np.random.Philox(op_seed))


class CheckOp:
    """One call of a registered check at n=1 on a fixed configuration."""

    def __init__(self, name: str, check: str, fn_name: str, cfg):
        self.name, self.check, self.fn_name, self.cfg = name, check, fn_name, cfg

    def run(self, op_seed: int):
        # looked up at call time so a traced run sees the wrapped function
        return getattr(checks, self.fn_name)(self.cfg, _rng(op_seed), n=1)

    def verify(self, raw) -> Outcome:
        tol = checks.CHECKS[self.check].tol
        residual = float(raw)
        ok = residual <= tol
        return Outcome(ok, margin(residual, tol), repr(residual), problem=(
            "" if ok else "residual %r above tol %r" % (residual, tol)))


class CliLight:
    """Four in-process CLI runs: two light scenarios on both groups."""

    name = "cli-light"
    RUNS = (("trivial-bundle", "su2"), ("trivial-bundle", "su3"),
            ("path-fibration", "su2"), ("path-fibration", "su3"))

    def __init__(self, out_dir: str):
        # relative to the checkout root, so the `out` field of the
        # normalized reports is the same in every checkout
        self.outs = [os.path.join(out_dir, "cli-%s-%s.json" % run)
                     for run in self.RUNS]

    def run(self, op_seed: int):
        statuses = []
        for (scenario, group), out in zip(self.RUNS, self.outs):
            argv = ["--scenario", scenario, "--group", group,
                    "--seed", str(op_seed), "--out", out]
            with contextlib.redirect_stderr(io.StringIO()):
                statuses.append(cli.main(argv))
        return statuses

    def verify(self, statuses) -> Outcome:
        margins, digests, nbytes = [], [], 0
        problem = ""
        for (scenario, group), out, status in zip(self.RUNS, self.outs, statuses):
            tag = "%s/%s" % (scenario, group)
            try:
                with open(out) as fh:
                    rep = json.load(fh)
                nbytes += os.path.getsize(out) + os.path.getsize(
                    os.path.splitext(out)[0] + ".fixtures.json")
            except (OSError, ValueError) as exc:
                problem = problem or "%s: report unreadable: %s" % (tag, exc)
                margins.append(-MARGIN_CAP)
                continue
            if status != 0:
                problem = problem or "%s: exit status %s" % (tag, status)
            problems = report.validate_report(rep)
            if problems:
                problem = problem or "%s: %s" % (tag, "; ".join(problems))
            want = [s.name for s in checks.select_checks(
                checks.RunConfig(scenario=scenario, group=group))]
            rows = rep.get("checks", [])
            if [r.get("name") for r in rows] != want:
                problem = problem or "%s: report rows differ from the suite" % tag
            for row in rows:
                tol = checks.CHECKS[row["name"]].tol
                if not row["residual"] <= tol:
                    problem = problem or "%s: %s residual %r above tol %r" % (
                        tag, row["name"], row["residual"], tol)
                margins.append(margin(float(row["residual"]), tol))
            digests.append(json.dumps(report.normalized(rep), sort_keys=True))
        return Outcome(not problem, min(margins), "\n".join(digests), nbytes,
                       problem)


def make(name: str, out_dir: str):
    if name == "caloron-split":
        return CheckOp(name, "caloron-roundtrip/curvature-square-split",
                       "curvature_square_split",
                       checks.RunConfig(group="su2", ntheta=48))
    if name == "path-cocycle":
        return CheckOp(name, "central-extension/path-cocycle-identity",
                       "path_cocycle_identity",
                       checks.RunConfig(group="su2", ntheta=128, npath=128))
    if name == "cli-light":
        return CliLight(out_dir)
    raise ValueError("unknown workload: %s" % name)


NAMES = ("caloron-split", "path-cocycle", "cli-light")

# built by a fresh interpreter for setup_s, after importing the program
SETUP = {
    "caloron-split":
        "grid = loops.ThetaGrid(48)\n"
        "gerbe.TrivialBundle.default(grid, liegroup.group_by_name('su2'))\n",
    "path-cocycle":
        "grid = loops.ThetaGrid(128)\n"
        "liegroup.group_by_name('su2')\n",
    "cli-light":
        "grid = loops.ThetaGrid(128)\n"
        "for g in ('su2', 'su3'):\n"
        "    group = liegroup.group_by_name(g)\n"
        "    gerbe.TrivialBundle.default(grid, group)\n"
        "    gerbe.PathFibration(grid, group)\n",
}
