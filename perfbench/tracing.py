"""Outside-in per-layer tracing of the explore engine.

``Tracer.install()`` wraps the public per-call and per-batch entry points
of each layer (named after its module) and ``uninstall()`` restores them;
nothing under ``src/`` changes. Every wrapped call records a span
``[name, start, end, parent, query]``; for generators a span covers each
``next()``. A wrapped call made directly inside a span of the same layer
(``ParetoFrontier.add`` from ``add_batch``, ``BatchRows.costs`` from
``rows``) belongs to that span and records nothing of its own, so
per-row re-entry never becomes a span. Per-row accessors are counted,
never timed.

Spans live in memory; ``write()`` puts them in a file when the run ends.
A layer's self time is the duration of its spans minus the time their
child spans cover. Only the benchmark process's main thread is traced: spans inside
pool workers are not collected, so worker-side work shows as the
``executor.*`` counts and the bytes computed by pickling each task and
result. The tracer's own bookkeeping (counting, that pickling) runs in
``trace`` spans, reported as ``trace.bookkeeping_s`` and never inside a
layer's self time; wrapped calls the tracer makes there record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterator

#: Timed layers: the ``<layer>_s`` self-time metric of each span name.
SPAN_METRICS = {
    "enumerate.plan": "enumerate.plan_s",
    "cost.fold": "cost.fold_s",
    "prune.mask": "prune.mask_s",
    "vectorized.cohort": "vectorized.cohort_self_s",
    "vectorized.materialize": "vectorized.materialize_s",
    "result.rows": "result.rows_s",
    "result.export": "result.export_s",
    "result.pareto": "result.pareto_s",
    "result.topk": "result.topk_s",
    "sink.write": "sink.write_s",
    "cost.finalize": "cost.finalize_s",
    "cost.finalize_multi": "cost.finalize_multi_s",
    "vectorized.shard": "vectorized.shard_s",
    "executor.wait": "executor.wait_s",
    "campaign.run": "campaign.run_self_s",
    "campaign.finalize_group": "campaign.finalize_group_s",
    "scheduling.select": "scheduling.select_s",
    "joint.candidates": "joint.candidates_s",
    "joint.search": "joint.search_s",
    "trace": "trace.bookkeeping_s",
    "query": "unattributed_s",
}

#: Count metrics; every one must repeat exactly for the same inputs.
COUNT_METRICS = (
    "enumerate.configs",
    "cost.fold_rows",
    "prune.rows_in",
    "prune.rows_kept",
    "vectorized.cohort_rows",
    "vectorized.rows_materialized",
    "result.export_bytes",
    "result.pareto_rows_in",
    "result.pareto_rows_out",
    "result.pareto_distinct_points",
    "sink.writes",
    "cost.finalize_rows",
    "vectorized.shards",
    "executor.tasks",
    "executor.bytes_out",
    "executor.bytes_in",
    "campaign.evaluations_skipped",
    "campaign.evaluations_computed",
    "campaign.rows_materialized",
    "campaign.prefix_cache_hits",
    "scheduling.select_calls",
    "joint.n_searched",
    "joint.n_pruned",
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self.query: int | None = None
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._frontiers: dict[int, tuple[Any, tuple[str, ...]]] = {}
        self._axes: dict[int, tuple[str, ...]] = {}

    # -- spans ------------------------------------------------------------

    def _active(self) -> bool:
        return (
            self.query is not None
            and threading.get_ident() == self._thread
            and os.getpid() == self._pid
        )

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.query])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def _bookkeep(self, fn: Callable, *args: Any) -> None:
        """Run a count callback inside a ``trace`` span, so the tracer's own
        work (pickling, counting) never lands in a layer's self time."""
        index = self._open("trace")
        try:
            fn(*args)
        finally:
            self._close(index)

    def begin_query(self, query: int) -> int:
        self.query = query
        self.counts = defaultdict(float)
        self._frontiers = {}
        self._axes = {}
        return self._open("query")

    def end_query(self, root: int) -> dict[str, float]:
        """Close the query's root span and return its per-layer metrics."""
        self._close(root)
        for frontier, axes in self._frontiers.values():
            rows = frontier.rows
            self.counts["result.pareto_rows_out"] += len(rows)
            self.counts["result.pareto_distinct_points"] += len(
                {tuple(row[a] for a in axes) for row in rows}
            )
        self.query = None
        self._frontiers = {}
        metrics = {name: 0.0 for name in SPAN_METRICS.values()}
        for name in COUNT_METRICS:
            metrics[name] = int(self.counts.get(name, 0))
        child_time: defaultdict[int, float] = defaultdict(float)
        own = range(root, len(self.spans))
        for i in own:
            _, start, end, parent, _ = self.spans[i]
            if parent is not None and parent >= root:
                child_time[parent] += end - start
        for i in own:
            name, start, end, _, _ = self.spans[i]
            metrics[SPAN_METRICS[name]] += (end - start) - child_time[i]
        metrics["query_s"] = self.spans[root][2] - self.spans[root][1]
        return metrics

    def write(self, path: str) -> None:
        """Write every recorded span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ---------------------------------------------------------

    def _call(
        self, fn: Callable, name: str, after: Callable | None = None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._active() or tracer._inside(name) or tracer._inside("trace"):
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                tracer._bookkeep(after, args, kwargs, result)
            return result

        return wrapper

    def _generator(
        self, fn: Callable, name: str, each: Callable | None = None,
        wrap_args: Callable | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._active():
                return fn(*args, **kwargs)
            state = None
            if wrap_args is not None:
                args, kwargs, state = wrap_args(args, kwargs)
            return tracer._iterate(fn(*args, **kwargs), name, each, state)

        return wrapper

    def _iterate(
        self, iterator: Iterator, name: str, each: Callable | None, state: Any
    ) -> Iterator:
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                if each is not None:
                    self._bookkeep(each, item, state)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _count(self, fn: Callable, metric: str, amount: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if tracer._active() and not tracer._inside("trace"):
                tracer.counts[metric] += amount(args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module_name: str, attr: str, make: Callable) -> None:
        """Replace a module-level function everywhere ``repro`` bound it."""
        original = getattr(importlib.import_module(module_name), attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                module.__dict__.get(attr) is original
            ):
                self._patch_attr(module, attr, replacement)

    def _patch_methods(self, base: type, attr: str, make: Callable) -> None:
        """Wrap ``attr`` on ``base`` and every subclass defining its own."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._patch_attr(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from repro.core.cost import EnergyCostModel, ThroughputCostModel
        from repro.explore.campaign import Campaign, PipelineCostCache
        from repro.explore.enumerate import PrefixPruner
        from repro.explore.executor import SweepExecutor
        from repro.explore.joint import JointCandidateSink
        from repro.explore.result import ExplorationResult, ParetoFrontier, TopK
        from repro.explore.scheduling import SchedulingPolicy
        from repro.explore.sink import ResultSink
        from repro.explore.vectorized import BatchPrefixEvaluator, BatchRows

        def counts(metric: str, amount: float) -> None:
            self.counts[metric] += amount

        # enumerate: plan construction and design-space counting, timed.
        # ``enumerate.configs`` counts the design space once per walk of a
        # scenario's space (below, at the cohort and shard entry points).
        self._patch_function(
            "repro.explore.enumerate", "enumeration_plan",
            lambda fn: self._call(fn, "enumerate.plan"),
        )
        self._patch_function(
            "repro.explore.enumerate", "count_configs",
            lambda fn: self._call(fn, "enumerate.plan"),
        )

        # cost: the columnar fold and its finalize kernels.
        for model in (ThroughputCostModel, EnergyCostModel):
            self._patch_attr(model, "initial_state_batch", self._call(
                model.__dict__["initial_state_batch"], "cost.fold",
                lambda a, _k, _r: counts("cost.fold_rows", a[1]),
            ))
            self._patch_attr(model, "extend_state_batch", self._call(
                model.__dict__["extend_state_batch"], "cost.fold",
                lambda a, _k, _r: counts("cost.fold_rows", len(a[4])),
            ))
            self._patch_attr(model, "finalize_batch", self._call(
                model.__dict__["finalize_batch"], "cost.finalize",
                lambda a, _k, _r: counts("cost.finalize_rows", len(a[1][0])),
            ))
            self._patch_attr(model, "finalize_batch_multi", self._call(
                model.__dict__["finalize_batch_multi"], "cost.finalize_multi",
                lambda a, _k, r: counts("cost.finalize_rows", len(a[1][0]) * len(r)),
            ))

        # prune: a prefix pruner's batch bound, wrapped per instance.
        def kept(_a, _k, result):
            _, keep = result
            counts("prune.rows_in", len(keep))
            counts("prune.rows_kept", int(keep.sum()))

        init = PrefixPruner.__dict__["__init__"]

        @functools.wraps(init)
        def pruner_init(pruner: Any, *args: Any, **kwargs: Any) -> None:
            init(pruner, *args, **kwargs)
            for attr, after in (
                ("initial_batch", None), ("extend_batch", kept), ("emit_mask", None)
            ):
                fn = getattr(pruner, attr)
                if fn is not None:
                    object.__setattr__(
                        pruner, attr, self._call(fn, "prune.mask", after)
                    )

        self._patch_attr(PrefixPruner, "__init__", pruner_init)

        # vectorized: cohort enumeration, shards, bulk materialization.
        def walks(position: int) -> Callable:
            def start(args, kwargs):
                scenario = kwargs.get("scenario") or args[position]
                self._bookkeep(
                    lambda: counts("enumerate.configs", scenario.count_configs())
                )
                return args, kwargs, None

            return start

        self._patch_attr(BatchPrefixEvaluator, "iter_scenario_batches", self._generator(
            BatchPrefixEvaluator.__dict__["iter_scenario_batches"], "vectorized.cohort",
            lambda batch, _s: counts("vectorized.cohort_rows", len(batch)), walks(1),
        ))
        self._patch_function(
            "repro.explore.vectorized", "iter_scenario_shards",
            lambda fn: self._generator(
                fn, "vectorized.shard", lambda _i, _s: counts("vectorized.shards", 1),
                walks(0),
            ),
        )
        for attr in ("costs", "rows"):
            self._patch_attr(BatchRows, attr, self._call(
                BatchRows.__dict__[attr], "vectorized.materialize",
                lambda a, _k, _r: counts("vectorized.rows_materialized", len(a[0])),
            ))
        self._patch_attr(BatchRows, "cost", self._count(
            BatchRows.__dict__["cost"], "vectorized.rows_materialized",
            lambda _a, _r: 1,
        ))

        # result: collected rows, export, frontier and top-k reductions.
        rows_prop = ExplorationResult.__dict__["rows"]
        self._patch_attr(ExplorationResult, "rows", property(
            self._call(rows_prop.fget, "result.rows"), rows_prop.fset
        ))
        self._patch_attr(ExplorationResult, "to_csv", self._call(
            ExplorationResult.__dict__["to_csv"], "result.export",
            lambda _a, _k, text: counts("result.export_bytes", len(text.encode("utf-8"))),
        ))
        frontier_init = ParetoFrontier.__dict__["__init__"]

        @functools.wraps(frontier_init)
        def record_axes(frontier: Any, axes: Any, *args: Any, **kwargs: Any) -> None:
            frontier_init(frontier, axes, *args, **kwargs)
            if self._active():
                self._axes[id(frontier)] = tuple(axes)

        self._patch_attr(ParetoFrontier, "__init__", record_axes)

        def pareto_in(args, _k, _r):
            frontier, rows = args[0], args[1]
            counts("result.pareto_rows_in", len(rows))
            axes = self._axes.get(id(frontier))
            if axes is not None:
                self._frontiers[id(frontier)] = (frontier, axes)

        for attr in ("add", "add_batch"):
            self._patch_attr(ParetoFrontier, attr, self._call(
                ParetoFrontier.__dict__[attr], "result.pareto", pareto_in
            ))
            self._patch_attr(TopK, attr, self._call(TopK.__dict__[attr], "result.topk"))
        for attr in ("write_rows", "write_batch"):
            self._patch_methods(ResultSink, attr, lambda fn: self._call(
                fn, "sink.write", lambda _a, _k, _r: counts("sink.writes", 1)
            ))

        # executor: main-process waits on the pool, the chunks it submits,
        # and the bytes of each item and result, computed by pickling.
        def record_items(args, kwargs):
            consumed: list[Any] = []

            def items(source):
                for item in source:
                    consumed.append(item)
                    yield item

            if len(args) > 2:
                args = (*args[:2], items(args[2]), *args[3:])
            else:
                kwargs = {**kwargs, "items": items(kwargs["items"])}
            return args, kwargs, consumed

        def shipped(result, consumed):
            while consumed:
                counts("executor.bytes_out", len(pickle.dumps(consumed.pop())))
            counts("executor.bytes_in", len(pickle.dumps(result)))

        self._patch_attr(SweepExecutor, "imap", self._generator(
            SweepExecutor.__dict__["imap"], "executor.wait", shipped, record_items
        ))
        for pool in (ProcessPoolExecutor, ThreadPoolExecutor):
            self._patch_attr(pool, "submit", self._count(
                pool.__dict__["submit"], "executor.tasks", lambda _a, _r: 1
            ))

        # campaign: the chunk interleaver, dedup finalize, cache stats.
        def campaign_stats(_a, _k, result):
            stats = result.cache_stats
            counts("campaign.evaluations_skipped", stats["evaluations_skipped"])
            counts("campaign.evaluations_computed", stats["evaluations_computed"])
            counts("campaign.rows_materialized", sum(
                g["rows_materialized"] for g in stats["dedup_groups"].values()
            ))
            cache = stats["prefix_cache"] or {}
            counts("campaign.prefix_cache_hits", cache.get("hits", 0))

        self._patch_attr(Campaign, "run", self._call(
            Campaign.__dict__["run"], "campaign.run", campaign_stats
        ))
        self._patch_attr(Campaign, "iter_runs", self._generator(
            Campaign.__dict__["iter_runs"], "campaign.run"
        ))
        self._patch_attr(PipelineCostCache, "finalize_group", self._call(
            PipelineCostCache.__dict__["finalize_group"], "campaign.finalize_group"
        ))

        # scheduling: policy decisions and latency feedback.
        self._patch_methods(SchedulingPolicy, "select", lambda fn: self._call(
            fn, "scheduling.select",
            lambda _a, _k, _r: counts("scheduling.select_calls", 1),
        ))
        self._patch_methods(SchedulingPolicy, "observe", lambda fn: self._call(
            fn, "scheduling.select"
        ))

        # joint: candidate compression and the capacity-bounded search.
        self._patch_attr(JointCandidateSink, "candidates", self._call(
            JointCandidateSink.__dict__["candidates"], "joint.candidates"
        ))

        def searched(_a, _k, result):
            found = result[3]
            counts("joint.n_searched", found.get("n_searched", 0))
            counts("joint.n_pruned", found.get("n_capacity_pruned", 0)
                   + found.get("n_bound_pruned", 0))

        self._patch_function(
            "repro.explore.joint", "search_joint_assignment",
            lambda fn: self._call(fn, "joint.search", searched),
        )
