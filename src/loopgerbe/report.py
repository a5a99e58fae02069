"""Report serialisation: versioned JSON as the canonical format, CSV as
a flat projection of the same rows.

Everything in a report is a pure function of the configuration except
the per-check wall times; byte-for-byte comparisons between runs should
normalise the seconds column and the output path first (see
normalized()).
"""

from __future__ import annotations

import csv
import io
import json
import math

from .checks import EQUATION_TAGS, RunConfig, SuiteResult

VERSION = "1.0"

REPORT_KEYS = ("version", "config", "checks", "convergence")
CHECK_FIELDS = ("name", "paper_ref", "residual", "tol", "pass", "seconds")
# every ladder row carries its ladder's fitted order, null where no line fits
CONVERGENCE_FIELDS = ("name", "grid", "residual", "order")


def build_report(cfg: RunConfig, result: SuiteResult) -> dict:
    return {"version": VERSION, "config": cfg.as_dict(),
            "checks": [{k: row[k] for k in CHECK_FIELDS}
                       for row in result.rows],
            "convergence": [{k: row[k] for k in CONVERGENCE_FIELDS}
                            for row in result.convergence]}


def validate_report(report: dict) -> list:
    """Structural problems with a report; empty when well formed."""
    problems = ["missing key: %s" % key for key in REPORT_KEYS
                if key not in report]
    problems += ["unknown key: %s" % key for key in report
                 if key not in REPORT_KEYS]
    for row in report.get("checks", ()):
        if tuple(row.keys()) != CHECK_FIELDS:
            problems.append("bad check row fields: %s" % (tuple(row.keys()),))
        elif row["paper_ref"] not in EQUATION_TAGS:
            problems.append("unregistered tag: %s" % row["paper_ref"])
    names = [r.get("name") for r in report.get("checks", ())]
    if names != sorted(names):
        problems.append("check rows not sorted by name")
    for row in report.get("convergence", ()):
        if tuple(row.keys()) != CONVERGENCE_FIELDS:
            problems.append("bad convergence row fields: %s"
                            % (tuple(row.keys()),))
    return problems


def normalized(report: dict) -> dict:
    """The report with wall times zeroed and the output path `out` set
    to None, as a run that writes to stdout has it; this is the part of
    a report that is bit-identical across runs of the same
    configuration, wherever they write."""
    out = json.loads(json.dumps(report))
    if "config" in out:
        out["config"]["out"] = None
    for row in out.get("checks", ()):
        row["seconds"] = 0.0
    return out


def to_json(report: dict) -> str:
    """Indented JSON; a residual that is not finite is null (NaN is no JSON)."""
    rows = {key: [r if math.isfinite(r["residual"]) else dict(r, residual=None)
                  for r in report[key]] for key in ("checks", "convergence")}
    return json.dumps(dict(report, **rows), indent=2, allow_nan=False) + "\n"


def to_csv(report: dict) -> str:
    """Flat projection: one table, check rows then convergence rows; the
    order column is empty only on check rows and on null orders."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["# version", report["version"]])
    for key, val in report["config"].items():
        w.writerow(["# config:" + key, "" if val is None else val])
    w.writerow(["kind", "name", "paper_ref", "grid", "residual", "tol",
                "pass", "seconds", "order"])
    for row in report["checks"]:
        w.writerow(["check", row["name"], row["paper_ref"], "",
                    repr(row["residual"]), repr(row["tol"]),
                    str(row["pass"]).lower(), repr(row["seconds"]), ""])
    for row in report["convergence"]:
        w.writerow(["convergence", row["name"], "", row["grid"],
                    repr(row["residual"]), "", "", "",
                    "" if row["order"] is None else repr(row["order"])])
    return buf.getvalue()


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise ValueError("unknown report format: %s" % fmt)
