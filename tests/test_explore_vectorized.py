"""The columnar batch evaluation core (`repro.explore.vectorized`).

Unit coverage for the pieces the invariant suite exercises end-to-end:
the stock-semantics probe and its subclass-override matrix, the path
report, :class:`BatchRows` laziness and
columnar metrics, the columnar sink folds (``add_batch`` ==  scalar
``add``, including NaN positions and ties), the partial prefix cache,
and the error surfaces of every entry point.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError, PipelineError
from repro.explore import (
    BatchPrefixEvaluator,
    CallbackSink,
    MemorySink,
    ParetoSink,
    ResultSink,
    Scenario,
    SweepExecutor,
    TopK,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
    uses_stock_batch_semantics,
)
from repro.explore.result import ParetoFrontier, cost_row
from repro.explore.sink import uses_columnar_writes
from repro.explore.vectorized import BatchChunkStates
from repro.hw.network import LinkModel


def build_pipeline(n_blocks: int = 3) -> InCameraPipeline:
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=900.0 - 200.0 * i,
            pass_rate=0.8,
            implementations={
                platform: Implementation(
                    platform,
                    fps=90.0 - 7 * i + 3 * j,
                    energy_per_frame=1e-6 * (i + j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, platform in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(
        name="vec-unit", sensor_bytes=1200.0, blocks=blocks,
        sensor_energy_per_frame=2e-7,
    )


LINK = LinkModel(name="vec-link", raw_bps=2e6, tx_energy_per_bit=1e-9)


def build_scenario(**overrides) -> Scenario:
    kwargs = {
        "name": "vec-unit",
        "pipeline": build_pipeline(),
        "link": LINK,
        "target_fps": 60.0,
    }
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- capability probes ---------------------------------------------------


class _ScalarOnlyOverride(ThroughputCostModel):
    """Customizes a scalar step without its batch counterpart: the stock
    batch kernel would silently bypass it, so it is costed per config."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)


class _MatchedOverride(ThroughputCostModel):
    """Customizes a scalar step and its batch counterpart: the state
    shapes are its own business, so it is costed per config."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)

    def extend_state_batch(self, state, block, impls, choices):
        return super().extend_state_batch(state, block, impls, choices)


class _BatchOnlyOverride(ThroughputCostModel):
    """A custom batch kernel behind stock scalar semantics: costed per
    config through the stock evaluate()."""

    def extend_state_batch(self, state, block, impls, choices):
        return super().extend_state_batch(state, block, impls, choices)


class _CustomEvaluate(ThroughputCostModel):
    def evaluate(self, config):
        return super().evaluate(config)


_OVERRIDES = (
    _ScalarOnlyOverride,
    _MatchedOverride,
    _BatchOnlyOverride,
    _CustomEvaluate,
)


def test_probes_on_stock_models():
    for model in (ThroughputCostModel(LINK), EnergyCostModel(LINK)):
        assert uses_stock_batch_semantics(model)


def test_probes_on_override_matrix():
    # Any override at all sends the model to per-config evaluate().
    for override in _OVERRIDES:
        model = override(LINK)
        assert not uses_stock_batch_semantics(model)
        scenario = build_scenario(model=model, link=None)
        assert evaluation_path(scenario) == "scalar-scratch"
        assert evaluation_path(scenario, SweepExecutor(workers=2)) == "scalar-scratch"
    assert not uses_stock_batch_semantics(object())


def test_batch_prefix_evaluator_dispatch():
    stock = BatchPrefixEvaluator(ThroughputCostModel(LINK))
    assert isinstance(stock, BatchPrefixEvaluator)
    for override in (_ScalarOnlyOverride, _BatchOnlyOverride, _CustomEvaluate):
        with pytest.raises(ConfigurationError, match="stock batch cost semantics"):
            BatchPrefixEvaluator(override(LINK))
    with pytest.raises(ConfigurationError, match="pass_rates only apply"):
        BatchPrefixEvaluator(ThroughputCostModel(LINK), pass_rates={"B0": 0.5})


def test_matched_override_refuses_cohort_enumeration():
    with pytest.raises(ConfigurationError, match="stock batch cost semantics"):
        BatchPrefixEvaluator(_MatchedOverride(LINK))


def test_matched_override_still_folds_chunks_bit_identically():
    """Every override shape explores bit-identically to its own
    evaluate(), serially and chunked on a pool."""
    for override in _OVERRIDES:
        model = override(LINK)
        scenario = build_scenario(model=model, link=None)
        want = [cost_row(scenario, model.evaluate(c)) for c in scenario.iter_configs()]
        pool = SweepExecutor(workers=2, backend="thread", chunk_size=5)
        for executor in (None, pool):
            got = explore(scenario, executor).rows
            assert json.dumps(got) == json.dumps(want), override.__name__


# -- the path report -----------------------------------------------------


def test_evaluation_path_values():
    scenario = build_scenario()
    assert evaluation_path(scenario) == "batch-cohort"
    # Parallel stock runs ship CohortShard descriptors, never pickled
    # config chunks.
    assert evaluation_path(scenario, SweepExecutor(workers=2)) == "batch-shard"
    # Per-config filtering (a custom prune hook) fuses into the cohort
    # walk as an emission-time filter — and shard mode resolves it
    # driver-side, so parallel filtered runs still shard.
    filtered = build_scenario(prune=lambda config: False)
    assert evaluation_path(filtered) == "batch-cohort-pruned"
    assert evaluation_path(filtered, SweepExecutor(workers=2)) == "batch-shard"
    # Auto-derived prefix pruners carry batch forms: pruned scenarios
    # report the fused cohort path, not a scalar fallback.
    pruned = build_scenario(auto_prune=True, auto_prune_configs=True)
    assert evaluation_path(pruned) == "batch-cohort-pruned"
    assert evaluation_path(pruned, SweepExecutor(workers=2)) == "batch-shard"
    # A model off the stock semantics is costed per config.
    matched = build_scenario(model=_MatchedOverride(LINK), link=None)
    assert evaluation_path(matched) == "scalar-scratch"
    # Inside a dedup campaign a scenario with a compute key shares
    # states; one without (a pre-built model, pruning) runs solo.
    assert evaluation_path(scenario, dedup=True) == "batch-dedup"
    assert evaluation_path(pruned, dedup=True) == "batch-cohort-pruned"
    assert evaluation_path(matched, dedup=True) == "scalar-scratch"
    with pytest.raises(ConfigurationError, match="dedup must be True or False"):
        evaluation_path(scenario, dedup="materialize")
    # The report takes exactly five values.
    paths = {
        evaluation_path(s, executor, dedup=dedup)
        for s in (scenario, filtered, pruned, matched)
        for executor in (None, SweepExecutor(workers=2))
        for dedup in (False, True)
    }
    assert paths == {
        "batch-cohort",
        "batch-cohort-pruned",
        "batch-shard",
        "batch-dedup",
        "scalar-scratch",
    }


def test_explore_modes_agree_on_rows():
    scenario = build_scenario()
    oracle = json.dumps(explore_brute_force(scenario).rows)
    for executor in (
        None,
        SweepExecutor(workers=2, backend="thread", chunk_size=5),
        SweepExecutor(workers=2, backend="process"),
    ):
        assert json.dumps(explore(scenario, executor).rows) == oracle


# -- BatchRows -----------------------------------------------------------


def scenario_batches(scenario, chunk_size=None):
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    return list(evaluator.iter_scenario_batches(scenario, chunk_size=chunk_size))


def test_batch_rows_materialize_lazily():
    scenario = build_scenario()
    batches = scenario_batches(scenario)
    assert sum(len(b) for b in batches) == scenario.count_configs()
    deepest = batches[-1]
    assert deepest.n_materialized == 0
    column = deepest.metric_column("total_fps")
    assert len(column) == len(deepest)
    assert deepest.n_materialized == 0  # columns never materialize
    cost = deepest.cost(0)
    assert deepest.n_materialized == 1
    assert cost.config == deepest.config(0)
    row = deepest.row(1)
    assert deepest.n_materialized == 2
    assert row == cost_row(scenario, deepest.cost(1))


def test_batch_rows_match_scalar_rows_and_columns():
    scenario = build_scenario()
    scalar = explore_brute_force(scenario)
    rows = [row for batch in scenario_batches(scenario) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(scalar.rows)
    position = 0
    for batch in scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        for metric in ("n_in_camera", "offload_bytes", "compute_fps",
                       "communication_fps", "total_fps", "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)
    with pytest.raises(KeyError):
        scenario_batches(scenario)[0].metric_column("config")


def test_energy_batch_columns_match_scalar_rows():
    scenario = build_scenario(
        domain="energy", target_fps=None, energy_budget_j=2e-5,
        pass_rates={"B0": 0.4},
    )
    scalar = explore_brute_force(scenario)
    evaluator = BatchPrefixEvaluator(
        scenario.cost_model(), pass_rates=scenario.pass_rates
    )
    position = 0
    for batch in evaluator.iter_scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        assert json.dumps(batch.rows()) == json.dumps(span)
        for metric in ("transmit_rate", "active_seconds", "transmit_energy_j",
                       "sensor_energy_j", "compute_energy_j", "total_energy_j",
                       "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)


def test_batch_rows_slice_is_a_view_of_the_same_rows():
    scenario = build_scenario()
    deepest = scenario_batches(scenario)[-1]
    lo, hi = 3, 11
    window = deepest.slice(lo, hi)
    assert len(window) == hi - lo
    assert json.dumps(window.rows()) == json.dumps(deepest.rows()[lo:hi])


def test_chunked_cohorts_respect_chunk_size():
    scenario = build_scenario()
    batches = scenario_batches(scenario, chunk_size=5)
    assert all(len(batch) <= 5 for batch in batches)
    rows = [row for batch in batches for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore_brute_force(scenario).rows)


def test_cohorts_honor_depth_pruning_and_include_empty():
    pruned = build_scenario(auto_prune=True)
    rows = [row for batch in scenario_batches(pruned) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore_brute_force(pruned).rows)
    no_empty = build_scenario(include_empty=False)
    depths = [batch.depth for batch in scenario_batches(no_empty)]
    assert 0 not in depths
    assert sum(len(b) for b in scenario_batches(no_empty)) == no_empty.count_configs()


def test_invalid_trusted_platform_raises_like_the_scalar_walk():
    pipeline = build_pipeline()
    config = PipelineConfig.trusted(pipeline, ("bogus",))
    evaluator = BatchPrefixEvaluator(ThroughputCostModel(LINK))
    with pytest.raises(PipelineError):
        evaluator.states_chunk([config])


def test_states_chunk_segments_cover_the_chunk():
    scenario = build_scenario()
    configs = list(scenario.iter_configs())
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    states = evaluator.states_chunk(configs)
    assert isinstance(states, BatchChunkStates)
    assert len(states) == len(configs)
    # Each segment carries the lazy-view plumbing instead of configs: an
    # (n, depth) choice matrix plus the per-level platform names that
    # decode it, over the chunk's pipeline.
    decoded = []
    for pipeline, depth, _state, choices, names in states.segments:
        assert pipeline is scenario.pipeline
        assert choices.shape[1] == depth
        assert len(names) == depth
        decoded.extend(
            tuple(names[level][c] for level, c in enumerate(row))
            for row in choices.tolist()
        )
    assert decoded == [config.platforms for config in configs]
    # Closed under the model's own link, the views reproduce the
    # from-scratch rows byte for byte.
    rows = [row for batch in evaluator.close(states, scenario) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore_brute_force(scenario).rows)


# -- columnar sink folds -------------------------------------------------


class _FakeBatch:
    """The minimal add_batch consumer contract over plain rows."""

    def __init__(self, rows, columnar=("m",)):
        self._rows = rows
        self._columnar = columnar
        self.n_materialized = 0

    def __len__(self):
        return len(self._rows)

    def metric_column(self, name):
        if name not in self._columnar:
            raise KeyError(name)
        return np.array([row[name] for row in self._rows], dtype=float)

    def row(self, i):
        self.n_materialized += 1
        return self._rows[i]

    def rows(self):
        self.n_materialized += len(self._rows)
        return list(self._rows)


def test_topk_add_batch_equals_scalar_add_with_ties():
    rows = [{"config": f"c{i}", "m": float(v)} for i, v in
            enumerate([5, 7, 7, 3, 7, 9, 1, 9, 2, 7])]
    for maximize in (True, False):
        for k in (0, 2, 4, 50):
            online = TopK("m", k=k, maximize=maximize)
            online.add_batch(_FakeBatch(rows[:6]))
            online.add_batch(_FakeBatch(rows[6:]))
            batch = TopK("m", k=k, maximize=maximize)
            batch.add(rows)
            assert online.rows == batch.rows, (maximize, k)
            assert online.n_seen == batch.n_seen == len(rows)


def test_topk_add_batch_materializes_candidates_only():
    rows = [{"m": float(v)} for v in [9, 8, 1, 1, 1, 1, 10, 1]]
    online = TopK("m", k=2, maximize=True)
    fake = _FakeBatch(rows)
    online.add_batch(fake)
    # Heap fill (2) + the single later row beating the batch-start root.
    assert fake.n_materialized == 3
    assert [row["m"] for row in online.rows] == [10.0, 9.0]


def test_topk_add_batch_nan_raises_at_the_exact_position():
    rows = [{"m": 4.0}, {"m": 5.0}, {"m": float("nan")}, {"m": 6.0}]
    online = TopK("m", k=2)
    with pytest.raises(ConfigurationError, match="row 2"):
        online.add_batch(_FakeBatch(rows))


def test_pareto_add_batch_equals_scalar_add():
    rows = [
        {"a": float(i % 5), "b": float((i * 7) % 4)} for i in range(40)
    ]
    online = ParetoFrontier(("a", "b"), maximize=True)
    online.add_batch(_FakeBatch(rows[:25], columnar=("a", "b")))
    online.add_batch(_FakeBatch(rows[25:], columnar=("a", "b")))
    batch = ParetoFrontier(("a", "b"), maximize=True)
    batch.add(rows)
    assert online.rows == batch.rows
    assert online.n_seen == batch.n_seen == len(rows)


def test_pareto_add_batch_nan_raises_at_the_exact_position():
    rows = [{"a": 1.0, "b": 1.0}, {"a": float("nan"), "b": 0.0}]
    online = ParetoFrontier(("a", "b"), maximize=True)
    with pytest.raises(ConfigurationError, match="row 1"):
        online.add_batch(_FakeBatch(rows, columnar=("a", "b")))


def test_add_batch_falls_back_on_non_columnar_metrics():
    rows = [{"m": float(v), "other": v} for v in (3, 1, 2)]
    online = TopK("other", k=2)
    fake = _FakeBatch(rows)  # only "m" is columnar
    online.add_batch(fake)
    assert fake.n_materialized == len(rows)
    batch = TopK("other", k=2)
    batch.add(rows)
    assert online.rows == batch.rows


def test_uses_columnar_writes_probe():
    assert uses_columnar_writes(ParetoSink())
    assert uses_columnar_writes(TopKSink("total_fps", k=3))
    assert not uses_columnar_writes(MemorySink())
    assert not uses_columnar_writes(CallbackSink(lambda rows: None))

    class _Columnar(ResultSink):
        def write_batch(self, batch):
            pass

    assert uses_columnar_writes(_Columnar())


def test_columnar_sinks_match_collected_results_end_to_end():
    scenario = build_scenario()
    collected = explore(scenario)
    sink = TopKSink("total_fps", k=4)
    explore(scenario, sink=sink, collect=False)
    assert json.dumps(sink.top_k()) == json.dumps(collected.top_k("total_fps", k=4))
    frontier = ParetoSink()
    explore(scenario, sink=frontier, collect=False)
    assert json.dumps(frontier.pareto()) == json.dumps(collected.pareto())


# -- pool runs stay lazy -----------------------------------------------------


class _CountingTopKSink(TopKSink):
    """A top-k sink counting the batches it receives and the rows the
    lazy columnar path materialized for it."""

    def __init__(self) -> None:
        super().__init__("total_fps", k=3)
        self.batches = 0
        self.rows_seen = 0
        self.materialized = 0

    def write_batch(self, batch) -> None:
        before = batch.n_materialized
        super().write_batch(batch)
        self.batches += 1
        self.rows_seen += len(batch)
        self.materialized += batch.n_materialized - before


@pytest.mark.parametrize("case", ["explore", "campaign"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pool_runs_close_states_lazily(backend, case):
    """Pool workers return pre-finalize states, never cost objects: an
    export-only pool explore() hands its columnar sink lazy BatchRows
    and materializes survivors only, and a dedup-off pool campaign
    reports how few rows its consumers materialized."""
    from repro.explore import Campaign

    executor = SweepExecutor(workers=2, backend=backend)
    scenario = build_scenario(pipeline=build_pipeline(5))
    n_configs = scenario.count_configs()
    if case == "explore":
        sink = _CountingTopKSink()
        assert explore(scenario, executor, sink=sink, collect=False) is None
        assert sink.batches > 0
        assert sink.rows_seen == n_configs
        assert sink.materialized < n_configs / 10, sink.materialized
        serial = _CountingTopKSink()
        explore(scenario, sink=serial, collect=False)
        assert json.dumps(sink.top_k()) == json.dumps(serial.top_k())
        return
    # Energy domain: its default frontier is small, so the streamed
    # stats keep few rows (the tie-heavy throughput frontier would not).
    scenario = replace(scenario, domain="energy", target_fps=None, energy_budget_j=2e-5)
    slow = LinkModel("slow", 4e5, tx_energy_per_bit=2e-9)
    fleet = [scenario, replace(scenario, name="vec-slow", link=slow)]
    result = Campaign(fleet).run(executor, dedup=False, collect=False)
    for run in result:
        assert run.dedup_source is None
        assert run.n_evaluated == n_configs
        assert isinstance(run.n_materialized, int)
        assert run.n_materialized < run.n_evaluated / 4, run.n_materialized
    assert result.cache_stats["dedup_groups"] == {}
