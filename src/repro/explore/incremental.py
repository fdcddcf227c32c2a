"""Cost-semantics probes and the chunk entry points of the memoized walk.

The design space is a trie over platform choices: every depth-``d``
configuration is a depth-``d-1`` prefix plus one block, and both cost
models are prefix-decomposable (see :mod:`repro.core.cost`). Evaluating
each configuration from block 0 therefore repeats work exponentially —
the same sum-of-products structure exploited by the
storage/computation/communication tradeoff literature lets us pay for
each trie *node* once instead of once per descendant leaf.

The engine's one memoized walk is the columnar fold of
:mod:`repro.explore.vectorized`: whole depth cohorts extend as
struct-of-arrays states, replaying exactly the float operations of
``evaluate()`` elementwise, so memoized results are bit-identical to
from-scratch ones — the correctness gate (tests) compares them
byte-for-byte against :func:`repro.explore.explore_brute_force`.

This module holds what both the solo engine and the campaign driver
share around that fold: the stock-semantics probes, the per-depth link
term, and the picklable chunk entry points process pools call
(:func:`evaluate_chunk`, :func:`evaluate_chunk_states`). A model that
customizes any cost step is not memoized at all — the engine costs it
per configuration through its own ``evaluate()``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.cost import (
    ConfigCost,
    EnergyCost,
    EnergyCostModel,
    ThroughputCostModel,
)
from repro.core.pipeline import PipelineConfig

#: The scalar cost-defining steps of both stock models.
_COST_STEPS = ("evaluate", "initial_state", "extend_state", "finalize")
#: Their columnar counterparts.
_BATCH_STEPS = (
    "initial_state_batch",
    "extend_state_batch",
    "finalize_batch",
    "finalize_batch_multi",
)


def _overrides_none(model: Any, steps: Sequence[str]) -> bool:
    """Whether ``model`` is a stock cost model (or a subclass) that
    keeps the stock implementation of every method named in ``steps``."""
    for base in (ThroughputCostModel, EnergyCostModel):
        if isinstance(model, base):
            cls = type(model)
            return all(getattr(cls, name) is getattr(base, name) for name in steps)
    return False


def uses_stock_cost_semantics(model: Any) -> bool:
    """Whether *every* scalar cost-defining step of the model is the
    stock implementation — ``evaluate``, ``initial_state``,
    ``extend_state`` and ``finalize``.

    A subclass that customizes ``extend_state``/``finalize`` while
    keeping the stock ``evaluate`` rates configurations through its own
    steps, so its cost semantics are no longer the raw
    ``Implementation``/link tables. Anything that hard-codes those
    tables must require this check: the bounds behind
    ``Scenario.auto_prune``/``auto_prune_configs`` (a sound-looking
    bound could otherwise prune configurations the model rates
    feasible) and the seed loops of
    :func:`~repro.explore.engine.explore_brute_force`.
    """
    return _overrides_none(model, _COST_STEPS)


def uses_stock_batch_semantics(model: Any) -> bool:
    """Whether every scalar *and* batch cost step is the stock
    implementation — the one capability probe of the engine.

    The columnar fold (:mod:`repro.explore.vectorized`) replicates
    state arrays across options and gathers rows by index, which
    requires the stock struct-of-arrays layout and the stock semantics
    the batch kernels replay. Models passing the
    probe fold columnar on every path; any other model (a custom
    ``evaluate()``, or customized scalar or batch steps) is costed per
    configuration through its own ``evaluate()``.
    """
    return _overrides_none(model, _COST_STEPS + _BATCH_STEPS)


def depth_link_cost(
    link: Any, energy: bool, cache: dict[int, Any], depth: int, config: PipelineConfig
) -> Any:
    """The per-depth link term, computed once per cut depth and cached.

    The payload crossing the uplink depends only on the cut depth, not
    the platform choices — so the walk caches ``depth -> finalize arg``
    ((transmit joules, transmit seconds) in the energy domain, the
    communication frame rate in the throughput domain). Shared by
    :class:`~repro.explore.vectorized.BatchPrefixEvaluator` and the
    campaign dedup finalizer (:class:`repro.explore.campaign.
    _StateFinalizer`): one definition, so a dedup member's finalize is
    expression-identical to solo evaluation.
    """
    cached = cache.get(depth)
    if cached is None:
        offload_bytes = config.offload_bytes
        if energy:
            cached = (
                link.tx_energy_for_bytes(offload_bytes),
                link.seconds_for_bytes(offload_bytes),
            )
        else:
            cached = link.fps_for_bytes(offload_bytes)
        cache[depth] = cached
    return cached


def evaluate_chunk(
    model: ThroughputCostModel | EnergyCostModel,
    pass_rates: dict[str, float] | None,
    configs: Sequence[PipelineConfig],
) -> list[ConfigCost | EnergyCost]:
    """Evaluate one contiguous chunk of configurations columnar.

    Module-level (picklable) so the process-pool backend can ship
    chunks to workers; each chunk gets its own evaluator, so results
    are independent of how the stream was chunked. Both the solo engine
    and the campaign driver's tagged chunks evaluate through this one
    function, which is why interleaving a fleet cannot change any
    scenario's values. The model must have stock cost semantics (see
    :func:`uses_stock_batch_semantics`).

    ``configs`` may also be a :class:`~repro.explore.vectorized.CohortShard`
    descriptor instead of a config sequence: workers then regenerate
    the rows locally from the flat indices (O(depth) array work,
    nothing per-row pickled).
    """
    from repro.explore.vectorized import BatchPrefixEvaluator, CohortShard

    evaluator = BatchPrefixEvaluator(model, pass_rates)
    if isinstance(configs, CohortShard):
        return evaluator.evaluate_shard(configs)
    return evaluator.evaluate_many(configs)


def evaluate_chunk_states(
    model: ThroughputCostModel | EnergyCostModel,
    pass_rates: dict[str, float] | None,
    configs: Sequence[PipelineConfig],
) -> Any:
    """The chunk's pre-finalize states (module-level for process-pool
    picklability) — the dedup counterpart of :func:`evaluate_chunk`:
    the campaign driver ships a shared pipeline's chunks through this
    when several scenarios will finalize the same compute-side states
    under their own links.

    Returns a :class:`~repro.explore.vectorized.BatchChunkStates` whose
    segments carry the decoded choice matrix and per-level platform
    names alongside each depth-cohort state — everything a member needs
    to wrap the shared state in a lazy
    :class:`~repro.explore.vectorized.BatchRows` view after a
    multi-link ``finalize_batch_multi`` without re-deriving configs.
    Like :func:`evaluate_chunk`, ``configs`` may be a
    :class:`~repro.explore.vectorized.CohortShard` the worker decodes
    locally.
    """
    from repro.explore.vectorized import BatchPrefixEvaluator, CohortShard

    evaluator = BatchPrefixEvaluator(model, pass_rates)
    if isinstance(configs, CohortShard):
        return evaluator.states_shard(configs)
    return evaluator.states_chunk(configs)
