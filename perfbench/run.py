"""loopgerbe benchmark: one workload per invocation.

    python3 perfbench/run.py --workload caloron-split --seed 1 --seconds 30 --trace 0

Runs ops of the workload for --seconds (at least MIN_OPS of them), each
with a seed derived from --seed and the op index, checks every output,
and prints the end-to-end metrics (--trace 0), with times adjusted to
the reference host speed by the probe in probe.py, or the per-layer
metrics from a traced run (--trace 1).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full record (machine facts, calibration marker, raw
op times and host factors, determinism digest) is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one closed-loop client on one core: BLAS must not spawn threads, and
# this must be set before numpy is first imported
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "out")    # relative to ROOT

MIN_OPS = 10         # always run; accuracy and digest cover exactly these
COUNT_OPS = 2        # traced ops whose counts are reported
SETUP_RUNS = 4       # fresh interpreters timed for setup_s before the timed
                     # loop (after one warm-up), and as many after it
WARMUP_INDEX = 1 << 30
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

CAL_RUNS = 9         # probe runs whose median is the before/after marker

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
from loopgerbe import centext, cli, gerbe, liegroup, loops
{build}centext.alpha_slot()
seconds = time.perf_counter() - t0
from probe import host_probe
print(repr(seconds), repr(host_probe(runs=3)))
"""


def op_seed(seed: int, index: int) -> int:
    """The seed of op `index`, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tail_percentile(times) -> tuple:
    """(percentile, value, ops beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND ops beyond it, by nearest rank.
    With too few ops for any of them, the median is reported, and the
    beyond count shows that it is short."""
    xs = sorted(times)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50.0, xs[rank - 1], n - rank


def machine_facts() -> dict:
    import scipy
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "cpu": platform.processor() or platform.machine(),
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "blas_threads": dict(BLAS_THREADS)}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in
                         ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        facts["blas"] = None
    return facts


def setup_times(workload: str, warm_up: bool) -> list:
    """setup_s samples, each (seconds, probe seconds): a fresh interpreter
    importing the program, building the workload's objects and passing
    the alpha self-test, then timing the host probe.  With `warm_up`, one
    more runs first to write the bytecode caches, and is discarded."""
    # workloads imports loopgerbe, importable once main() has put src/
    # on the path
    from workloads import SETUP
    code = SETUP_CHILD.format(build=SETUP[workload])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    out = []
    for _ in range(SETUP_RUNS + warm_up):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("setup child failed: " + proc.stderr.strip())
        out.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return out[1:] if warm_up else out


def _check(wl, raw, exc):
    from workloads import MARGIN_CAP, Outcome
    if exc is not None:
        return Outcome(False, -MARGIN_CAP, "error: " + repr(exc),
                       problem="raised " + repr(exc))
    try:
        return wl.verify(raw)
    except Exception as err:  # a malformed output is a failed op
        return Outcome(False, -MARGIN_CAP, "error: " + repr(err),
                       problem="verify raised " + repr(err))


def run_op(wl, seed: int):
    """(seconds, Outcome) of one op; an exception is a failed op."""
    raw, exc = None, None
    t0 = time.perf_counter()
    try:
        raw = wl.run(seed)
    except Exception as err:
        exc = err
    seconds = time.perf_counter() - t0
    return seconds, _check(wl, raw, exc)


def end_to_end(wl, seed: int, seconds: float) -> dict:
    """The timed closed loop; returns the record and its metrics.

    The host probe runs before the first op and after every op, outside
    the op's time, for about 5% of the op's time.  Each op time is
    divided by the host factor of the mean of the probes on either side
    of it (see probe.py); the metrics are taken over these adjusted
    times, the raw ones are kept as context."""
    times, factors, outcomes = [], [], []
    before = probe.host_probe(runs=2)
    t0 = time.perf_counter()
    while True:
        dt, oc = run_op(wl, op_seed(seed, len(times)))
        after = probe.host_probe(runs=probe.runs_after(dt))
        times.append(dt)
        factors.append(probe.factor((before + after) / 2))
        outcomes.append(oc)
        before = after
        wall = time.perf_counter() - t0
        if len(times) >= MIN_OPS and wall >= seconds:
            break
    n = len(times)
    ok = sum(oc.ok for oc in outcomes)
    adjusted = [t / f for t, f in zip(times, factors)]
    pct, tail, beyond = tail_percentile(adjusted)
    first = outcomes[:MIN_OPS]
    return {"times": times, "host_factors": factors, "outcomes": outcomes,
            "wall_s": wall, "tail_pct": pct, "tail_beyond": beyond,
            "digest": hashlib.sha256(
                "\n".join(oc.digest_text for oc in first).encode()).hexdigest(),
            "raw": {"ops_per_s.raw": (ok / sum(times), "1/s"),
                    "op_s.p50.raw": (statistics.median(times), "s"),
                    "op_s.tail.raw": (tail_percentile(times)[1], "s"),
                    "host_factor.p50": (statistics.median(factors), "x")},
            "metrics": {
                "ops_per_s": (ok / sum(adjusted), "1/s"),
                "op_s.p50": (statistics.median(adjusted), "s"),
                "op_s.tail": (tail, "s"),
                "verified_frac": (ok / n, "ratio"),
                "accuracy_margin_dec": (statistics.median(
                    oc.margin for oc in first), "dec"),
            }}


def traced(wl, seed: int, seconds: float, spans_path: str) -> dict:
    """Op i untraced, then the same op traced, until --seconds have gone
    (at least COUNT_OPS pairs).  Returns the record and the layer metrics."""
    import tracing
    tracer = tracing.Tracer()
    plain, wrapped, outcomes = [], [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        s = op_seed(seed, i)
        dt, oc = run_op(wl, s)
        plain.append(dt)
        outcomes.append(oc)
        tracer.op = i
        with tracing.installed(tracer):
            dt, oc = run_op(wl, s)
        wrapped.append(dt)
        outcomes.append(oc)
        tracer.count("report.bytes", oc.nbytes)
        i += 1
        if i >= COUNT_OPS and time.perf_counter() - t0 >= seconds:
            break
    tracing.write_spans(tracer, spans_path)
    layer = tracing.layer_metrics(tracer, COUNT_OPS)
    layer["trace.overhead_frac"] = 1.0 - sum(plain) / sum(wrapped)
    return {"times": plain + wrapped, "outcomes": outcomes,
            "traced_times": wrapped, "spans": len(tracer.spans),
            "metrics": {k: (v, tracing.unit(k)) for k, v in layer.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    try:
        import loopgerbe
    except ImportError as exc:
        print("error: cannot import loopgerbe from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    if not os.path.abspath(loopgerbe.__file__).startswith(SRC + os.sep):
        print("error: loopgerbe imported from %s, not %s"
              % (loopgerbe.__file__, SRC), file=sys.stderr)
        return 2
    import workloads
    from loopgerbe import centext
    if args.workload not in workloads.NAMES:
        p.error("--workload must be one of %s" % (workloads.NAMES,))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                         args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(),
              "calibration_before_s": probe.host_probe(CAL_RUNS)}
    if not args.trace:
        record["setup_samples_s"] = setup_times(args.workload, warm_up=True)

    wl = workloads.make(args.workload, OUT_DIR)
    centext.alpha_slot()
    run_op(wl, op_seed(args.seed, WARMUP_INDEX))   # lazy set-up and caches

    if args.trace:
        res = traced(wl, args.seed, args.seconds, stem + ".spans.tsv.gz")
        record.update(spans=res["spans"], traced_times=res["traced_times"])
    else:
        res = end_to_end(wl, args.seed, args.seconds)
        # half the samples after the loop, so that they do not all fall
        # into one spell of the host's drift
        samples = record["setup_samples_s"]
        samples += setup_times(args.workload, warm_up=False)
        res["metrics"]["setup_s"] = (statistics.median(
            t / probe.factor(p) for t, p in samples), "s")
        res["raw"]["setup_s.raw"] = (statistics.median(t for t, _ in samples), "s")
        res["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        record.update(wall_s=res["wall_s"], tail_pct=res["tail_pct"],
                      tail_beyond=res["tail_beyond"], digest=res["digest"],
                      host_factors=res["host_factors"],
                      raw={k: {"value": v, "unit": u}
                           for k, (v, u) in res["raw"].items()})
    record["calibration_after_s"] = probe.host_probe(CAL_RUNS)

    outcomes = res["outcomes"]
    failed = sum(not oc.ok for oc in outcomes)
    record.update(ops=len(outcomes), failed=failed, op_times=res["times"],
                  problems=[oc.problem for oc in outcomes if not oc.ok][:10],
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in res["metrics"].items()})
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("workload %s seed %d: %d ops, %d failed, failed_frac %.6g"
          % (args.workload, args.seed, len(outcomes), failed,
             failed / len(outcomes)))
    for key in ("tail_pct", "tail_beyond", "digest", "calibration_before_s",
                "calibration_after_s"):
        if key in record:
            print("  %-28s %s" % (key, record[key]))
    for prob in record["problems"]:
        print("  failed op: %s" % prob)
    for k, m in list(record.get("raw", {}).items()) + list(
            record["metrics"].items()):
        print("  %-28s %-14.6g %s" % (k, m["value"], m["unit"]))
    print("  record: %s.json" % stem)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
