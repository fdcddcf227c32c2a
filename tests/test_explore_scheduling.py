"""``iter_runs`` backpressure under the campaign's round-robin schedule.

``iter_runs(max_pending_runs=)`` must genuinely stall the shared
executor — no unbounded buffering — while a slow consumer holds
completed runs.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    Campaign,
    Scenario,
    SweepExecutor,
    explore,
    load_builtin,
)


def build_fleet(names=("vr-fig10", "faceauth-energy", "snnap-dvfs")) -> list[Scenario]:
    catalog = load_builtin()
    return [catalog.build(name) for name in names]


# -- iter_runs backpressure ----------------------------------------------


def test_max_pending_runs_validation():
    campaign = Campaign(build_fleet(("vr-fig10",)))
    with pytest.raises(ConfigurationError, match="max_pending_runs"):
        next(iter(campaign.iter_runs(max_pending_runs=0)))


def test_slow_consumer_with_max_pending_runs_one_stalls_executor(monkeypatch):
    """Acceptance stress path: a consumer that takes the first run and
    stops must leave the shared pool genuinely idle — chunk submission
    pauses once one scenario is fully fed and unconsumed, so the
    evaluated-chunk count stays bounded by the round-robin cycles that
    fed the first scenario plus the in-flight window slack, not the
    fleet."""
    import repro.explore.campaign as campaign_mod

    fleet = build_fleet(
        ("faceauth-energy", "vr-fig10", "snnap-dvfs", "compression-throughput")
    )
    chunk = 4
    calls: list[int] = []
    real = campaign_mod._evaluate_tagged_chunk

    def counting(tagged):
        calls.append(tagged[0])
        return real(tagged)

    monkeypatch.setattr(campaign_mod, "_evaluate_tagged_chunk", counting)
    executor = SweepExecutor(workers=4, backend="thread")
    iterator = Campaign(fleet).iter_runs(
        executor,
        chunk_size=chunk,
        max_pending_runs=1,
    )
    first = next(iterator)
    smallest = min(fleet, key=lambda scenario: scenario.count_configs())
    assert first.name == smallest.name
    # Let any straggler in-flight chunks drain, then confirm the count
    # is frozen: the pool is stalled, not racing through the fleet.
    time.sleep(0.2)
    after_first = len(calls)
    time.sleep(0.2)
    assert len(calls) == after_first, "executor kept submitting while stalled"
    # Bounded: round-robin feeds every scenario one chunk per cycle, so
    # the smallest scenario is found exhausted within first_chunks + 1
    # cycles; at most the window (2 * workers chunks) was in flight when
    # the gate closed.
    first_chunks = -(-smallest.count_configs() // chunk)
    assert after_first <= len(fleet) * (first_chunks + 1) + 2 * executor.workers
    total_chunks = sum(-(-s.count_configs() // chunk) for s in fleet)
    assert after_first < total_chunks  # the fleet did NOT drain
    # Resuming consumption reopens the gate and finishes the fleet with
    # results untouched by the pacing.
    rest = list(iterator)
    assert {run.name for run in [first] + rest} == {s.name for s in fleet}
    for run in [first] + rest:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_max_pending_runs_on_serial_executor_is_exact_lockstep():
    """The serial path evaluates exactly one chunk per pull; the knob
    must not break it (results and completion order unchanged)."""
    fleet = build_fleet(("vr-fig10", "faceauth-energy"))
    runs = list(Campaign(fleet).iter_runs(chunk_size=4, max_pending_runs=1))
    ungated = Campaign(fleet).iter_runs(chunk_size=4)
    assert [run.name for run in runs] == [run.name for run in ungated]
    for run in runs:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_max_pending_runs_with_zero_config_scenarios_cannot_deadlock():
    """Zero-chunk scenarios count as fully fed the moment they are
    discovered exhausted; the gate must still hand them out and drain
    the fleet."""
    from repro.core.pipeline import InCameraPipeline
    from repro.hw.network import ETHERNET_25G

    empty = Scenario(
        name="empty",
        pipeline=InCameraPipeline(name="none", sensor_bytes=1.0, blocks=()),
        link=ETHERNET_25G,
        include_empty=False,
    )
    fleet = [empty, *build_fleet(("vr-fig10", "faceauth-energy"))]
    runs = list(
        Campaign(fleet).iter_runs(
            SweepExecutor(workers=2, backend="thread"),
            chunk_size=2,
            max_pending_runs=1,
        )
    )
    assert {run.name for run in runs} == {s.name for s in fleet}
    by_name = {run.name: run for run in runs}
    assert by_name["empty"].n_evaluated == 0
