"""The campaign's chunk schedule: one fixed round-robin interleave.

The campaign driver (:mod:`repro.explore.campaign`) has exactly one
degree of freedom: *which scenario's chunk is submitted next*. This
module owns that decision, and answers it one way: one chunk per live
scenario, cyclically. No scenario starves, and the fleet's first
results arrive from every scenario early.

The schedule only reorders *between* scenarios; each scenario's own
chunks are always submitted in enumeration order, so per-scenario
results are byte-identical to solo ``explore()`` (the invariant suite
asserts it over seeded random fleets). There is one schedule because
no alternative order measured faster on a campaign's makespan, and the
work a campaign shares is shared by dedup, not by ordering.
"""

from __future__ import annotations

from typing import Sequence

from repro.explore.scenario import Scenario


class SchedulingPolicy:
    """Round-robin selection of the scenario the interleaver draws its
    next chunk from.

    Before each chunk submission the interleaver calls :meth:`select`
    with the indices of the scenarios that still have chunks and submits
    one chunk of the returned scenario. :meth:`start` resets the cycle,
    so one instance can be reused across runs.
    """

    def __init__(self) -> None:
        self._last = -1

    def start(self, scenarios: Sequence[Scenario]) -> None:
        """Reset the cycle for a new run over ``scenarios``."""
        self._last = -1

    def select(self, live: Sequence[int]) -> int:
        """The next live scenario index after the last one picked,
        wrapping around. ``live`` holds the indices (ascending) of
        scenarios whose enumeration is not yet exhausted."""
        for index in live:
            if index > self._last:
                self._last = index
                return index
        self._last = live[0]
        return live[0]
