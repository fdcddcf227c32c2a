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
term, and the one picklable chunk function process pools call
(:func:`evaluate_chunk_states`), which returns pre-finalize states,
never cost objects. A model that customizes any cost step is not
memoized at all — the engine costs it per configuration through its
own ``evaluate()``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.cost import EnergyCostModel, ThroughputCostModel

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
    link: Any, energy: bool, cache: dict[int, Any], pipeline: Any, depth: int
) -> Any:
    """The per-depth link term, computed once per cut depth and cached.

    The payload crossing the uplink depends only on the cut depth, not
    the platform choices — so the walk caches ``depth -> finalize arg``
    ((transmit joules, transmit seconds) in the energy domain, the
    communication frame rate in the throughput domain). Shared by
    :class:`~repro.explore.vectorized.BatchPrefixEvaluator` and the
    campaign group finalizer (:class:`repro.explore.campaign.
    _StateFinalizer`): one definition, so a campaign member's finalize
    is expression-identical to solo evaluation.
    """
    cached = cache.get(depth)
    if cached is None:
        offload_bytes = pipeline.output_bytes_after(depth)
        if energy:
            cached = (
                link.tx_energy_for_bytes(offload_bytes),
                link.seconds_for_bytes(offload_bytes),
            )
        else:
            cached = link.fps_for_bytes(offload_bytes)
        cache[depth] = cached
    return cached


def evaluate_chunk_states(
    model: ThroughputCostModel | EnergyCostModel,
    pass_rates: dict[str, float] | None,
    chunk: Any,
) -> Any:
    """One chunk's pre-finalize states — the one picklable chunk
    function of the columnar fold (module-level so process pools can
    ship it).

    ``chunk`` is a config sequence (serial campaign chunks) or a
    :class:`~repro.explore.vectorized.CohortShard` the worker decodes
    locally (pool chunks of ``explore()`` and campaigns). Returns a
    :class:`~repro.explore.vectorized.BatchChunkStates`: per depth
    segment the compute-side state arrays, the ``(n, depth)`` choice
    matrix and the per-level platform names — never a cost object. The
    caller closes the states under each scenario's own link into lazy
    :class:`~repro.explore.vectorized.BatchRows` views, so only rows a
    consumer touches ever become Python objects.
    """
    from repro.explore.vectorized import BatchPrefixEvaluator, CohortShard

    evaluator = BatchPrefixEvaluator(model, pass_rates)
    if isinstance(chunk, CohortShard):
        return evaluator.states_shard(chunk)
    return evaluator.states_chunk(chunk)
