"""Fused vectorized pruning invariants over seeded random pipelines.

The identities the fused columnar pruning path must hold, as
properties:

* **batch-pruned == scalar-pruned**: a pruned scenario explored down
  the ``batch-cohort-pruned`` path produces rows byte-identical to the
  scalar pruned walk (``explore_brute_force``: the scalar pruner DFS
  plus from-scratch evaluation), in both domains,
  through the energy pruner's dual bound on adversarial
  late-collapsing payload chains, and with per-config ``prune`` hooks
  riding the cohort walk as emission-time filters;
* **pruning never drops feasible on the batch path**: against the
  unpruned ``explore_brute_force`` oracle, the fused walk's feasible
  set matches exactly — mask compaction removes only provably
  infeasible prefixes;
* **shard == serial**: a parallel executor (the ``batch-shard`` path,
  where workers rebuild cohorts from flat index ranges) matches the
  serial run byte for byte, pruned or hooked, thread or process pool;
* **shard campaigns == solo**: a fleet with pruned members run through
  one shared parallel executor — thread or process pool — matches solo
  runs under the round-robin schedule.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.explore import (
    Campaign,
    SweepExecutor,
    evaluation_path,
    explore,
    explore_brute_force,
)

SEEDS = range(10)


def _rows_json(result):
    return [json.dumps(row) for row in result.rows]


def _pruned_variants(scenario):
    return [
        replace(scenario, auto_prune_configs=True),
        replace(scenario, auto_prune=True, auto_prune_configs=True),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_batch_pruned_equals_scalar_pruned(gen, seed, domain):
    scenario = gen.scenario(
        seed, name=f"fused-{domain}-{seed}", domain=domain, constrained=True
    )
    for variant in _pruned_variants(scenario):
        assert evaluation_path(variant) == "batch-cohort-pruned"
        batch = explore(variant)
        scalar = explore_brute_force(variant)
        assert _rows_json(batch) == _rows_json(scalar), (seed, domain)


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_dual_bound_batch_identity_on_late_collapse(gen, seed):
    """The adversarial shape for per-depth compaction soundness: the
    dual bound is not depth-monotone on late-collapsing chains, so the
    fused walk may only compact rows violated at EVERY remaining
    depth. Byte-identity against the scalar pruned walk AND feasible-
    set equality against the unpruned brute-force oracle."""
    pipeline = gen.pipeline(seed, late_collapse=True)
    scenario = gen.scenario(
        seed,
        name=f"fused-late-{seed}",
        pipeline=pipeline,
        domain="energy",
        constrained=True,
    )
    oracle_feasible = json.dumps(
        [row for row in explore_brute_force(scenario).rows if row["feasible"]]
    )
    for variant in _pruned_variants(scenario):
        batch = explore(variant)
        assert _rows_json(batch) == _rows_json(explore_brute_force(variant))
        assert (
            json.dumps([row for row in batch.rows if row["feasible"]])
            == oracle_feasible
        ), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_per_config_hooks_ride_the_batch_path(gen, seed):
    """``scenario.prune`` hooks (arbitrary per-config predicates) run
    as scalar emission-time filters over compacted cohorts — alone and
    composed with an auto-derived prefix pruner."""
    scenario = gen.scenario(seed, name=f"hooked-{seed}", constrained=True)
    hooked = replace(
        scenario, prune=lambda config: len(config.platforms) % 2 == 1
    )
    variants = [hooked, replace(hooked, auto_prune_configs=True)]
    for variant in variants:
        assert evaluation_path(variant) == "batch-cohort-pruned"
        assert _rows_json(explore(variant)) == _rows_json(
            explore_brute_force(variant)
        ), seed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_shard_equals_serial(gen, seed, backend):
    """The batch-shard path (workers regenerate cohorts from flat
    index descriptors) reproduces the serial rows byte for byte —
    unpruned, prefix-pruned and hooked. Hooks resolve driver-side into
    survivor indices, so even unpicklable lambdas shard to a process
    pool."""
    executor = SweepExecutor(workers=2, backend=backend)
    scenario = gen.scenario(seed, name=f"shard-{seed}", constrained=True)
    variants = [
        scenario,
        replace(scenario, auto_prune=True, auto_prune_configs=True),
        replace(scenario, prune=lambda config: len(config.platforms) % 2 == 0),
    ]
    for variant in variants:
        assert evaluation_path(variant, executor) == "batch-shard"
        serial = _rows_json(explore(variant))
        assert _rows_json(explore(variant, executor)) == serial, (seed, backend)


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_campaign_equals_solo_under_every_policy(gen, seed):
    """A fleet with pruned members through one shared parallel
    executor: shard-eligible scenarios stream CohortShard descriptors,
    the rest stream config chunks, and every scenario's rows match its
    solo explore() on a thread pool and (sampled) a process pool."""
    fleet = gen.fleet(seed)
    solo = {scenario.name: _rows_json(explore(scenario)) for scenario in fleet}
    executors = [SweepExecutor(workers=2, backend="thread")]
    if seed % 5 == 0:  # process pools are expensive; sample them
        executors.append(SweepExecutor(workers=2, backend="process"))
    for executor in executors:
        result = Campaign(fleet).run(executor, chunk_size=3)
        for run in result:
            assert _rows_json(run.result) == solo[run.name], (seed, executor, run.name)
