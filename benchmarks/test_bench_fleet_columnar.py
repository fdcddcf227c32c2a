"""Fleet-scale columnar dedup benchmark: lazy dedup vs dedup off.

The paper's fleet shape taken to benchmark scale: ONE pipeline evaluated
at eight link tiers, export-only (``collect=False``) with bounded top-k
sinks. Two campaigns over the same fleet:

* ``dedup=False``: every member folds its own compute states, closed
  lazily under its own link as a group of one — consumers materialize
  only frontier/heap survivors, so this run differs from the lazy one
  by the sharing alone;
* ``dedup=True`` (lazy): the group folds prefix states once, one
  ``finalize_batch_multi`` broadcast closes each shared segment for all
  eight members at once, and consumers materialize only frontier/heap
  survivors.

Asserted, not just recorded: the lazy run at most a fifth of the best
prior materialized-finalize time in the session-start trajectory (that
baseline, ``dedup="materialize"``, no longer exists, so the bar anchors
on its recorded history), survivor rows byte-identical to the dedup-off
campaign and to a solo ``explore()`` fold for every member, and the
campaign's own accounting showing ``rows_materialized`` a small
fraction of ``member_rows_closed``. The entry appends to
``BENCH_explore.json`` under the ``campaign_fleet_columnar`` kind,
gated in CI on ``speedup_lazy_vs_off`` — a ratio that now measures
sharing the fold across links alone, since both campaigns close lazily
(earlier entries also counted the dedup-off run's per-row objects).
"""

from __future__ import annotations

import gc
import json
import time

import _trajectory
from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import Campaign, FleetSpec, Scenario, ScenarioCatalog
from repro.explore.engine import evaluation_path, explore
from repro.explore.sink import TopKSink
from repro.hw.network import LinkModel

N_BLOCKS = 9
PLATFORMS = ("asic", "dsp", "gpu")
N_LINKS = 8
TOP_K = 5
#: Fixed chunk size for both campaigns: small chunks keep the streamed
#: frontier's vectorized dominance prefilter tight (candidates are
#: screened against a frontier refreshed every 256 rows), which is
#: where the lazy path's materialization bound comes from.
CHUNK_SIZE = 256
#: Lazy campaigns timed; the fastest counts. The lazy bar is an absolute
#: time (its same-run baseline is gone), so one slow sample on a shared
#: host must not decide it; every repeat's answers are still checked.
LAZY_REPEATS = 3


def _bench_pipeline() -> InCameraPipeline:
    """A deterministic 9-block, 3-platform chain: 29 524 configurations
    ((3^10 - 1) / 2), big enough that per-row Python object costs
    dominate the dedup-off run."""
    blocks = []
    for index in range(N_BLOCKS):
        implementations = {
            platform: Implementation(
                platform,
                fps=20.0 + 7.0 * index + 3.0 * rank,
                energy_per_frame=1e-6 * (1.0 + 0.31 * index + 0.17 * rank),
                active_seconds=1e-4 * (1.0 + 0.13 * index + 0.07 * rank),
            )
            for rank, platform in enumerate(PLATFORMS)
        }
        blocks.append(
            Block(
                name=f"b{index}",
                output_bytes=4000.0 * (0.82 ** (index + 1)),
                pass_rate=1.0 - 0.04 * index,
                implementations=implementations,
            )
        )
    return InCameraPipeline(
        name="fleet-bench",
        sensor_bytes=4000.0,
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


def _bench_links() -> list[LinkModel]:
    """Eight deterministic link tiers spanning five decades of raw rate."""
    return [
        LinkModel(
            name=f"tier{index}",
            raw_bps=10.0 ** (5.0 + 0.6 * index),
            efficiency=0.5 + 0.05 * index,
            tx_energy_per_bit=10.0 ** (-8.5 - 0.3 * index),
        )
        for index in range(N_LINKS)
    ]


def _fresh_sinks(fleet) -> dict[str, TopKSink]:
    return {
        scenario.name: TopKSink("total_energy_j", k=TOP_K, maximize=False)
        for scenario in fleet
    }


def test_fleet_columnar_lazy_vs_materialized(
    append_trajectory, publish, trajectory_baseline
):
    from repro.core.report import TextTable

    catalog = ScenarioCatalog()

    @catalog.register(
        "fleet-bench", "energy", "benchmark-grade 9-block energy chain"
    )
    def _factory(link: LinkModel) -> Scenario:
        return Scenario(
            name="fleet-bench",
            pipeline=_bench_pipeline(),
            link=link,
            domain="energy",
            energy_budget_j=2e-4,
        )

    fleet = catalog.build_fleet(
        FleetSpec(entries=("fleet-bench",), links=tuple(_bench_links()))
    )
    assert len(fleet) == N_LINKS
    for scenario in fleet:
        assert evaluation_path(scenario, dedup=True) == "batch-dedup"

    n_configs = fleet[0].count_configs()

    lazy_seconds = float("inf")
    lazy_answers = set()
    for _ in range(LAZY_REPEATS):
        lazy_sinks = _fresh_sinks(fleet)
        gc.collect()
        begin = time.perf_counter()
        lazy = Campaign(fleet, name="lazy").run(
            chunk_size=CHUNK_SIZE, sinks=lazy_sinks, collect=False, dedup=True
        )
        lazy_seconds = min(lazy_seconds, time.perf_counter() - begin)
        lazy_answers.add(
            json.dumps({name: sink.top_k() for name, sink in lazy_sinks.items()})
        )
    assert len(lazy_answers) == 1

    off_sinks = _fresh_sinks(fleet)
    gc.collect()
    begin = time.perf_counter()
    off = Campaign(fleet, name="off").run(
        chunk_size=CHUNK_SIZE, sinks=off_sinks, collect=False, dedup=False
    )
    off_seconds = time.perf_counter() - begin

    # Survivors byte-identical: to the dedup-off campaign AND to a solo
    # explore() fold of the same sink, for every member.
    for scenario in fleet:
        solo_sink = TopKSink("total_energy_j", k=TOP_K, maximize=False)
        explore(scenario, sink=solo_sink, collect=False)
        reference = json.dumps(solo_sink.top_k())
        assert json.dumps(lazy_sinks[scenario.name].top_k()) == reference, (
            scenario.name
        )
        assert json.dumps(off_sinks[scenario.name].top_k()) == reference, (
            scenario.name
        )
    for lean, full in zip(lazy, off):
        assert lean.best == full.best, lean.name
        assert lean.pareto() == full.pareto(), lean.name

    # The lazy accounting: the group closed rows x members but consumers
    # materialized only a small fraction (survivors + per-chunk winners).
    groups = lazy.cache_stats["dedup_groups"]
    assert len(groups) == 1
    (group_stats,) = groups.values()
    assert group_stats["states_evaluated"] == n_configs
    assert group_stats["member_rows_closed"] == n_configs * N_LINKS
    assert group_stats["rows_materialized"] < group_stats["member_rows_closed"] / 10, (
        group_stats
    )

    speedup = off_seconds / lazy_seconds
    # Acceptance: the one-fold broadcast finalize plus lazy views must
    # take at most a fifth of the best prior per-member materialized
    # finalize on this fleet.
    bar = _trajectory.fleet_lazy_seconds_bar(trajectory_baseline)
    if bar is not None:
        assert lazy_seconds <= bar, (
            f"lazy dedup took {lazy_seconds:.3f}s, above a fifth of the best "
            f"prior materialized finalize ({bar * 5:.3f}s)"
        )

    table = TextTable(
        ["fleet", "links", "configs", "rows_closed", "rows_materialized",
         "lazy_seconds", "off_seconds", "speedup"],
        title="fleet-scale columnar dedup: lazy dedup vs dedup off",
    )
    table.add_row(
        {
            "fleet": "fleet-bench",
            "links": N_LINKS,
            "configs": n_configs,
            "rows_closed": group_stats["member_rows_closed"],
            "rows_materialized": group_stats["rows_materialized"],
            "lazy_seconds": round(lazy_seconds, 4),
            "off_seconds": round(off_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    publish("fleet_columnar", table.render())
    append_trajectory(
        {
            "kind": "campaign_fleet_columnar",
            "fleet": f"fleet-bench@{N_LINKS}links",
            "scenarios": N_LINKS,
            "configs_per_member": n_configs,
            "member_rows_closed": group_stats["member_rows_closed"],
            "rows_materialized": group_stats["rows_materialized"],
            "seconds_lazy": round(lazy_seconds, 6),
            "seconds_off": round(off_seconds, 6),
            "speedup_lazy_vs_off": round(speedup, 2),
        }
    )
