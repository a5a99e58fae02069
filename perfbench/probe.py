"""The host-speed probe.

On a virtual machine that shares its cores with other tenants, every
piece of code can run up to about 1.7 times slower for spells of
seconds to minutes, with CPU time equal to wall time, so neither CPU
time nor a longer run takes the spells out.
The probe is a fixed piece of work in the program's own style (small
numpy matrix products with Python glue), which never calls the program.
Timed next to each op, it measures how fast the host is at that moment;
a time divided by the probe's time and multiplied by NOMINAL_S is the
time at the reference host speed, where the probe takes NOMINAL_S.

The work of `host_probe` must never change: it defines the unit of
every adjusted time the benchmark reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.03    # the probe's time at the reference host speed
REPS = 600
SHARE = 0.05        # of an op's time spent probing after it


def _work(x):
    for _ in range(REPS):
        acc = np.eye(3)
        terms = []
        for k in range(1, 8):
            acc = acc @ x[k % 8] / k
            terms.append(float(np.trace(acc).real))
        d = dict(enumerate(terms))
        s = sum(v * v for v in d.values())
        x = x * 0.999 + np.tanh(s) * 1e-3
    return x


_X = np.random.default_rng(0).standard_normal((8, 3, 3))


def host_probe(runs: int = 1) -> float:
    """Seconds for the fixed probe work: the median of `runs` timings."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _work(_X)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def runs_after(op_s: float) -> int:
    """Probe runs after an op of `op_s` seconds: SHARE of its time, and
    at least two, whose median damps the probe's own jitter."""
    return max(2, round(SHARE * op_s / NOMINAL_S))


def factor(probe_s: float) -> float:
    """How many times slower than the reference speed the host ran."""
    return probe_s / NOMINAL_S
