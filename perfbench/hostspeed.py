"""Host-speed probe: how fast this host runs right now, against the
reference host the benchmark's figures are quoted on.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over seconds to minutes (other tenants' load changes
the core's clock and its share of caches). Wall times follow that drift,
so the spread between runs of the same code reflects the host more than
the program. The probe is a fixed pure-Python loop that calls no code of
the program under test. A run probes right before and right after each
timed query or set-up; the mean of the two probe times, divided by
``REFERENCE_PROBE_S``, is that sample's *host factor* (above 1: the host
ran slower than the reference), and the sample is reported in
reference-host seconds, its wall time divided by its host factor. Each
run's report prints the raw wall times and the host factors.

Because the probe shares no code with the program, a change to the
program moves the reported times exactly as it would move wall times on
a host of steady speed.
"""

from __future__ import annotations

import time

#: Median ``probe()`` seconds on the reference host (2-vCPU Xeon VM,
#: Python 3.11.7). A constant: changing it rescales every timed metric.
REFERENCE_PROBE_S = 0.085


def probe() -> float:
    """Seconds one pass of the fixed probe loop takes now."""
    begin = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - begin


def reference_seconds(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall time in reference-host seconds. ``probes`` has one more
    entry than ``walls``: ``probes[i]`` ran right before ``walls[i]`` and
    ``probes[i + 1]`` right after it."""
    assert len(probes) == len(walls) + 1
    return [
        wall * 2 * REFERENCE_PROBE_S / (before + after)
        for wall, before, after in zip(walls, probes, probes[1:])
    ]
