"""Self-tests of the benchmark code (not of the program):

    python3 -m pytest perfbench/selftest.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from loopgerbe import centext, checks  # noqa: E402


# ---------------------------------------------------------------------------
# the tail-percentile rule


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10), (200, 95.0, 10), (100, 90.0, 10), (40, 75.0, 10),
    (20, 50.0, 10)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    times = list(np.random.default_rng(n).permutation(n) + 1.0)
    got_pct, value, got_beyond = run.tail_percentile(times)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(t > value for t in times) == beyond


@pytest.mark.parametrize("n", [1, 2, 5, 19])
def test_tail_with_too_few_ops_falls_back_to_median(n):
    times = [float(t) for t in range(n, 0, -1)]
    pct, value, beyond = run.tail_percentile(times)
    assert pct == 50.0
    assert beyond < run.TAIL_BEYOND
    assert value == sorted(times)[-(beyond + 1)]
    assert sum(t > value for t in times) == beyond


# ---------------------------------------------------------------------------
# self time


def _span(name, start, end, parent, op=0):
    return [name, name.split(".")[0], start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("checks.a", 0.0, 10.0, -1),
             _span("forms.b", 1.0, 4.0, 0),
             _span("liegroup.c", 2.0, 3.0, 1),
             _span("forms.d", 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_time_sums_and_covers_the_op():
    tracer = tracing.Tracer()
    tracer.spans = [_span("checks.a", 0.0, 10.0, -1),
                    _span("forms.b", 1.0, 4.0, 0),
                    _span("forms.b", 4.5, 5.0, 0),
                    _span("liegroup.exp_alg", 2.0, 3.5, 1)]
    m = tracing.per_op_metrics(tracer)[0]
    assert m["checks.self_s"] == pytest.approx(6.5)
    assert m["forms.self_s"] == pytest.approx(2.0)
    assert m["liegroup.exp.self_s"] == pytest.approx(1.5)
    assert m["forms.calls"] == 2
    total = sum(m[layer + ".self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# wrapping and restoring


def _bindings():
    mods = [sys.modules["loopgerbe"]] + [
        sys.modules["loopgerbe." + layer] for layer in tracing.LAYERS]
    snap = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for a, raw in vars(obj).items():
                    snap[(mod.__name__, attr, a)] = raw
    snap["CHECKS"] = dict(checks.CHECKS)
    return snap


def _small_op():
    cfg = checks.RunConfig(ntheta=16, npath=8)
    rng = np.random.Generator(np.random.Philox(3))
    return checks.reduced_splitting(cfg, rng, n=1)


def test_every_wrapped_name_is_restored():
    centext.alpha_slot()     # resolved once per process; not part of the check
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracing.installed(tracer):
        for layer in tracing.LAYERS:
            mod = sys.modules["loopgerbe." + layer]
            for owner, attr, raw, _, _ in tracing.public_callables(mod):
                now = vars(owner)[attr]
                fn = getattr(now, "__func__", now)
                assert fn.__wrapped__ is not None, (layer, attr)
        assert checks.CHECKS != before["CHECKS"]
        traced = _small_op()
    assert tracer.spans and tracer.spans[0][0] == "checks.reduced_splitting"
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != "CHECKS")
    assert all(after["CHECKS"][k] is v for k, v in before["CHECKS"].items())
    assert _small_op() == traced


def test_names_are_restored_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[k] is before[k] for k in before if k != "CHECKS")


def test_counts_repeat_and_errors_are_counted():
    def traced_counts():
        tracer = tracing.Tracer()
        tracer.op = 0
        with tracing.installed(tracer):
            _small_op()
            with pytest.raises(ValueError):
                checks.convergence_table("no-such-check", [16])
        return tracing.layer_metrics(tracer, 1)

    a, b = traced_counts(), traced_counts()
    for key in tracing.COUNT_METRICS:
        assert a[key] == b[key], key
    assert a["checks.errors"] == 1
    assert a["liegroup.errors"] == 0


# ---------------------------------------------------------------------------
# failed ops


class _Flaky:
    """Op k (from 1) raises when k % 5 == 2 and returns a residual above
    tolerance when k % 5 == 4; the others pass."""

    def __init__(self):
        self.op = workloads.make("caloron-split", "unused")
        self.calls = 0

    def run(self, seed):
        self.calls += 1
        if self.calls % 5 == 2:
            raise ArithmeticError("boom")
        return 1.0 if self.calls % 5 == 4 else 1e-12

    def verify(self, raw):
        return self.op.verify(raw)


def test_failing_ops_count_against_verified_frac():
    res = run.end_to_end(_Flaky(), seed=0, seconds=0.0)
    outcomes = res["outcomes"]
    assert len(outcomes) == run.MIN_OPS == 10
    assert [oc.ok for oc in outcomes] == [k % 5 not in (2, 4)
                                          for k in range(1, 11)]
    assert res["metrics"]["verified_frac"][0] == pytest.approx(0.6)
    assert outcomes[1].margin == -workloads.MARGIN_CAP
    assert outcomes[3].margin == pytest.approx(workloads.margin(1.0, 1e-8))
    assert res["metrics"]["accuracy_margin_dec"][0] == pytest.approx(
        workloads.margin(1e-12, 1e-8))


def test_margin_floor_and_cap():
    assert workloads.margin(0.0, 1e-8) == workloads.MARGIN_CAP
    assert workloads.margin(1e-9, 1e-8) == pytest.approx(1.0)
    assert workloads.margin(float("nan"), 1e-8) == -workloads.MARGIN_CAP


def test_op_times_are_adjusted_by_the_host_factor(monkeypatch):
    # a host running twice as slow as the reference halves every op time
    monkeypatch.setattr(run.probe, "host_probe",
                        lambda runs=1: 2 * run.probe.NOMINAL_S)
    res = run.end_to_end(_Flaky(), seed=0, seconds=0.0)
    raw = res["raw"]["op_s.p50.raw"][0]
    assert res["host_factors"] == [2.0] * run.MIN_OPS
    assert res["metrics"]["op_s.p50"][0] == pytest.approx(raw / 2)
    assert res["metrics"]["ops_per_s"][0] == pytest.approx(
        2 * 6 / sum(res["times"]))
