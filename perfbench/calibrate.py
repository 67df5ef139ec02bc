"""A fixed calibration kernel, to express times at a nominal machine speed.

The shared machine the benchmark was built on drifts between speed
states: the same round of the same program takes from 1x to 2x its
fastest time, in phases of seconds to minutes, partly as time stolen
from the virtual CPU and partly as slower execution.  Raw medians of
one program therefore move between runs by more than any useful bound.
The kernel is a fixed mix of work like the program's (dicts, floats and
JSON of record-like objects; elementwise numpy on small complex
arrays), none of it in the program and none of it in BLAS, so no change
to ``hofbutter`` or to its thread settings changes its time, and it
allocates almost nothing.

The worker runs PASSES kernel passes before every round and after the
last.  A round time t is reported as t * NOMINAL_S / c, with c the
median of the passes just before and just after that round, and a run
reports the median over its rounds.  Pairing each round with the kernel
around it follows phases of a few seconds: over ten runs per workload
the spread of the reported wall time was 6-9 %, where the raw medians
of the same runs spread 13-24 %.  The raw times stay in the run's
summary file.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Median kernel() time on the machine the benchmark was built on
# (2 shared cores, Python 3.11, numpy 2.4).
NOMINAL_S = 0.05
PASSES = 3

_K = np.linspace(0.0, 2 * np.pi, 4096)


def kernel() -> float:
    """Seconds taken by one pass of the fixed work."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(2500):
        rec = {"p": i % 97, "q": 97, "j": i % 13, "lo": i * 0.25, "hi": i * 0.5,
               "closed": False, "chern": (i % 7) - 3, "source": "window"}
        back = json.loads(json.dumps(rec, sort_keys=True))
        table[(back["p"], back["j"])] = back["hi"] - back["lo"]
    for _ in range(20):
        z = np.exp(1j * _K) * 0.5 + np.exp(2j * _K)
        np.abs(z).max()
    return perf_counter() - t0


def nominal(times, passes) -> list:
    """Times scaled to NOMINAL_S; ``passes`` holds PASSES kernel times
    before each of the ``times`` and PASSES after the last."""
    out = []
    for i, t in enumerate(times):
        around = passes[PASSES * i: PASSES * (i + 2)]
        out.append(t * NOMINAL_S / statistics.median(around))
    return out
