"""Perf scaling: fused columnar pruning.

This benchmark measures the fused path — batch pruner bounds applied
as boolean-mask compaction over whole depth cohorts — on the same
13-block x 3-platform space the other explore benchmarks use, with
per-config prefix pruning enabled (``auto_prune_configs=True``) at a
65 FPS bar: loose enough that a large feasible band survives (the
regime where walk speed matters), tight enough that the pruner
discards ~97% of the 2.39M configurations before evaluation.

* ``fused``         — ``explore(...)`` riding ``batch-cohort-pruned``
  with full row collection; survivor rows asserted byte-identical to
  :func:`~repro.explore.explore_brute_force` (the scalar pruner DFS
  plus from-scratch evaluation);
* ``fused_lazy``    — the fused walk streamed into a top-k sink with
  ``collect=False``: the fold itself, no bulk cost materialization
  (the gated metric, mirroring the unpruned trajectory's lazy mode);
* ``shard[w]``      — ``explore(..., SweepExecutor(w, "process"))``:
  the ``batch-shard`` path, workers rebuilding pruned cohorts locally
  from flat-index descriptors and returning pre-finalize states (the
  process-pool scaling curve). Workers never materialize cost objects;
  this collected run materializes every survivor in the parent, after
  the parent closes the states under the link.

The in-test acceptance bar requires the lazy fused fold to clear 5x
the best ``scalar_pruned`` throughput in the session-start trajectory:
that mode measured the scalar memoized walk, which no longer exists,
so the bar anchors on its recorded history. Each run appends one
``explore_pruned_vectorized`` entry to the ``BENCH_explore.json``
trajectory (gated in CI by ``check_bench_regression.py`` on the
absolute ``fused_lazy`` throughput).
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import replace

import _trajectory
from repro.core.report import TextTable
from repro.explore import (
    SweepExecutor,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
)
from repro.explore.result import cost_row

from test_bench_explore_scaling import N_BLOCKS, PLATFORMS, build_deep_scenario

#: The pruning bar: below the reference scenario's 80 FPS so the
#: surviving band is large (~69k configs) and the walk, not fixed
#: overheads, dominates both modes.
TARGET_FPS = 65.0

#: Process-pool worker counts for the shard scaling curve (kept short:
#: each point pays a pool spin-up on top of the evaluation itself).
SHARD_WORKERS = (2, 4)


def _timed(fn):
    """One cold, GC-controlled wall-clock measurement."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_explore_pruned_vectorized_speedup(
    benchmark, publish, results_dir, append_trajectory, trajectory_baseline
):
    scenario = replace(
        build_deep_scenario(), target_fps=TARGET_FPS, auto_prune_configs=True
    )
    n_configs = scenario.count_configs()
    assert evaluation_path(scenario) == "batch-cohort-pruned"

    def run():
        measurements = {}

        oracle = explore_brute_force(scenario)
        survivors = len(oracle.evaluations)
        oracle_rows = json.dumps(oracle.rows)
        oracle_top = json.dumps(oracle.top_k("total_fps", k=5))
        del oracle

        seconds, fused = _timed(lambda: explore(scenario))
        assert len(fused.evaluations) == survivors
        # The tentpole identity: the fused mask-compaction walk keeps
        # exactly the scalar pruned enumeration's survivors, byte for
        # byte.
        assert (
            json.dumps([cost_row(scenario, cost) for cost in fused.evaluations])
            == oracle_rows
        )
        measurements["fused"] = {
            "seconds": round(seconds, 6),
            "evaluated": survivors,
            "configs_per_sec": round(survivors / seconds),
        }
        del fused

        sink = TopKSink("total_fps", k=5)
        seconds, _ = _timed(lambda: explore(scenario, sink=sink, collect=False))
        # The streamed fold ranks the same survivors: online top-k over
        # lazy batches == the oracle ranking, byte for byte.
        assert json.dumps(sink.top_k()) == oracle_top
        measurements["fused_lazy"] = {
            "seconds": round(seconds, 6),
            "evaluated": survivors,
            "configs_per_sec": round(survivors / seconds),
        }

        for workers in SHARD_WORKERS:
            executor = SweepExecutor(workers=workers, backend="process")
            assert evaluation_path(scenario, executor) == "batch-shard"
            seconds, sharded = _timed(lambda: explore(scenario, executor))
            assert (
                json.dumps(
                    [cost_row(scenario, cost) for cost in sharded.evaluations]
                )
                == oracle_rows
            )
            measurements[f"shard_process_x{workers}"] = {
                "seconds": round(seconds, 6),
                "evaluated": survivors,
                "configs_per_sec": round(survivors / seconds),
            }
            del sharded
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    survivors = measurements["fused"]["evaluated"]
    entry = {
        "kind": "explore_pruned_vectorized",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pipeline": {"blocks": N_BLOCKS, "platforms_per_block": len(PLATFORMS)},
        "n_configs": n_configs,
        "target_fps": TARGET_FPS,
        "survivors": survivors,
        "modes": measurements,
    }
    append_trajectory(entry)
    (results_dir / "BENCH_explore_pruned.json").write_text(
        json.dumps(entry, indent=2) + "\n"
    )

    table = TextTable(
        ["mode", "seconds", "evaluated", "configs_per_sec"],
        title=f"Explore pruned vectorized: {N_BLOCKS} blocks x "
              f"{len(PLATFORMS)} platforms ({n_configs} configs, "
              f"{survivors} survive the {TARGET_FPS:.0f} FPS bound)",
    )
    table.add_rows(
        {"mode": mode, **{k: v for k, v in stats.items() if k in table.columns}}
        for mode, stats in measurements.items()
    )
    publish("explore_pruned_vectorized", table.render())

    # The acceptance bar: the lazy fused fold must clear 5x the best
    # scalar pruned walk any prior commit recorded on the reference
    # space (anchored on the session-start snapshot).
    bar = _trajectory.fused_lazy_bar(trajectory_baseline)
    if bar is not None:
        lazy = measurements["fused_lazy"]["configs_per_sec"]
        assert lazy >= bar, (
            f"lazy fused path at {lazy} configs/s is below 5x the best prior "
            f"scalar pruned trajectory entry ({bar / 5:.0f} configs/s)"
        )
