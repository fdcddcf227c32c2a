"""Produce the stored reference answers from the repo's scalar oracle.

Every answer a benchmark query must reproduce is derived here from
``explore_brute_force`` (the pre-streaming engine the test suite holds the
fast paths byte-identical to) plus reductions written independently of
the code under test: a numpy Pareto filter over distinct points, a stable
sort for top-k and best rows, and, for ``fleet_pool``'s joint search, the
naive per-member oracle fed to ``joint_candidates`` /
``search_joint_assignment``.

The 2.39M-config space does not fit in memory as oracle rows, so large
depth cohorts are evaluated in slices: a slice fixes the platforms of the
leading blocks (a sub-pipeline whose leading blocks offer one platform
each) and keeps one cut depth. Slices are taken in enumeration order and
every reduction here is order-stable, so the merged answer is exactly the
whole-space answer (``--check-slicing`` proves it on a small space).

Run once per seed variant, from the repository root::

    PYTHONPATH=src python3 perfbench/make_refs.py            # all variants
    PYTHONPATH=src python3 perfbench/make_refs.py --variants 0 5

Writes ``perfbench/refs/variant<v>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from repro.core.pipeline import PipelineConfig  # noqa: E402
from repro.explore import (  # noqa: E402
    explore_brute_force,
    joint_candidates,
    search_joint_assignment,
)

REFS = HERE / "refs"
#: Largest oracle slice, in configurations (bounds the oracle's memory).
SLICE_ROWS = 200_000

#: The domains' default frontier axes and directions, as documented on
#: ``ExplorationResult.pareto``.
AXES = {
    "throughput": (("compute_fps", "communication_fps"), True),
    "energy": (("total_energy_j", "active_seconds"), False),
}


# -- independent reductions ----------------------------------------------------


def pareto_rows(rows: list[dict], domain: str) -> list[dict]:
    """Rows whose axis point no other point dominates (ties all survive),
    in input order: a sweep over distinct points by descending first axis."""
    if not rows:
        return []
    axes, maximize = AXES[domain]
    points = np.array([[row[a] for a in axes] for row in rows], dtype=float)
    if not maximize:
        points = -points
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    dominated = np.ones(len(distinct), dtype=bool)
    best_y = -np.inf  # highest second axis among strictly larger first axes
    order = np.lexsort((-distinct[:, 1], -distinct[:, 0]))
    start = 0
    while start < len(order):
        x = distinct[order[start], 0]
        stop = start
        while stop < len(order) and distinct[order[stop], 0] == x:
            stop += 1
        top = order[start]  # same first axis: only the highest second survives
        if distinct[top, 1] > best_y:
            dominated[top] = False
        best_y = max(best_y, distinct[top, 1])
        start = stop
    keep = ~dominated[inverse.reshape(-1)]
    return [row for row, kept in zip(rows, keep) if kept]


def best_of(rows: list[dict], domain: str) -> dict:
    """Highest total_fps / lowest total_energy_j; earliest row on ties."""
    if domain == "throughput":
        return sorted(rows, key=lambda r: r["total_fps"], reverse=True)[0]
    return sorted(rows, key=lambda r: r["total_energy_j"])[0]


def top_k(held: list[dict], rows: list[dict], metric: str, maximize: bool) -> list:
    """Stable top-k of ``held`` (earlier rows) followed by ``rows``."""
    return sorted(held + rows, key=lambda r: r[metric], reverse=maximize)[: wl.TOP_K]


# -- sliced oracle ---------------------------------------------------------------


def oracle_rows(
    scenario: Any, slice_rows: int = SLICE_ROWS
) -> Iterator[list[dict]]:
    """The oracle's rows of a scenario, in enumeration order, as slices
    of at most ``slice_rows`` rows (one slice when the space is small or
    pruned)."""
    if (
        scenario.count_configs() <= slice_rows
        or scenario.prefix_pruner() is not None
        or scenario.prune is not None
        or scenario.depth_prune_hook() is not None
    ):
        yield explore_brute_force(scenario).rows
        return
    blocks = scenario.pipeline.blocks[: scenario.max_blocks]
    options = [sorted(block.implementations) for block in blocks]
    depths = range(0 if scenario.include_empty else 1, len(options) + 1)
    for depth in depths:
        size = int(np.prod([len(o) for o in options[:depth]]))
        lead = 0
        while size > slice_rows:
            size //= len(options[lead])
            lead += 1
        for prefix in itertools.product(*options[:lead]):
            pipeline = replace(
                scenario.pipeline,
                blocks=tuple(
                    replace(b, implementations={prefix[i]: b.implementations[prefix[i]]})
                    if i < lead else b
                    for i, b in enumerate(scenario.pipeline.blocks)
                ),
            )
            part = replace(
                scenario, pipeline=pipeline, prune_depth=lambda d, keep=depth: d != keep
            )
            rows = explore_brute_force(part).rows
            if not lead:
                yield rows
                continue
            # A one-platform block drops its "(platform)" from the config
            # label; relabel against the full pipeline.
            for row in rows:
                row["config"] = PipelineConfig(
                    pipeline=scenario.pipeline,
                    platforms=tuple(row["platforms"].split("+")),
                ).label
            yield rows


def top_k_reference(scenario: Any, metric: str, maximize: bool) -> list[dict]:
    held: list[dict] = []
    for rows in oracle_rows(scenario):
        held = top_k(held, rows, metric, maximize)
    return held


def frontier_reference(scenario: Any) -> dict:
    rows = explore_brute_force(scenario).rows
    return wl.frontier_entry(
        pareto_rows(rows, scenario.domain),
        best_of(rows, scenario.domain),
        sum(1 for row in rows if row["feasible"]),
    )


# -- per-workload references ----------------------------------------------------


def reference(workload: str, seed: int) -> dict:
    if workload == "frontier":
        w = wl.Frontier(seed)
        out = {s.name: frontier_reference(s) for s in w.scenarios}
        deep = out[w.deep.name]
        out["deep7-sink"] = {
            "pareto_n": deep["pareto_n"], "pareto_sha256": deep["pareto_sha256"]
        }
        return out
    if workload == "lazy_sweep":
        return {
            s.name: {"top_k": top_k_reference(s, metric, maximize)}
            for s, metric, maximize in wl.lazy_scenarios(seed)
        }
    if workload == "collected_sweep":
        scenario = wl.deep_scenario(seed, 11)
        result = explore_brute_force(scenario)
        feasible = [row for row in result.rows if row["feasible"]]
        return {
            "rows": len(result.rows),
            "feasible": len(feasible),
            "feasible_sha256": wl.digest(feasible),
            "top_k": top_k([], result.rows, "total_fps", True),
            "csv_sha256": wl.digest(result.to_csv()),
        }
    if workload == "fleet_pool":
        fleet = {}
        for scenario in wl.energy_fleet(seed):
            rows = explore_brute_force(scenario).rows
            pareto = pareto_rows(rows, "energy")
            fleet[scenario.name] = {
                "top_k": top_k([], rows, "total_energy_j", False),
                "pareto_n": len(pareto),
                "pareto_sha256": wl.digest(pareto),
                "best": best_of(rows, "energy"),
                "feasible": sum(1 for row in rows if row["feasible"]),
            }
        joint = wl.joint_fleet(seed)
        candidates = [
            joint_candidates(member, explore_brute_force(member).rows)
            for member in joint.members
        ]
        choice, value, demand, _ = search_joint_assignment(
            candidates, joint.capacity_bps
        )
        return {
            "solo": {
                "top_k": top_k_reference(wl.deep_scenario(seed, 10), "total_fps", True)
            },
            "fleet": fleet,
            "joint": {
                "assignment": None if choice is None
                else [candidates[m][i].row["config"] for m, i in enumerate(choice)],
                "fleet_fps": value,
                "demand_bps": demand,
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def check_slicing() -> None:
    """The sliced oracle equals the whole-space oracle on a 9x3 space."""
    scenario = wl.deep_scenario(wl.DEFAULT_SEED, 9)
    whole = explore_brute_force(scenario).rows
    sliced = [row for rows in oracle_rows(scenario, slice_rows=1000) for row in rows]
    assert json.dumps(sliced) == json.dumps(whole), "sliced oracle differs"
    print(f"sliced oracle == whole-space oracle ({len(whole)} rows)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", type=int, nargs="*",
                        default=list(range(wl.VARIANTS)))
    parser.add_argument("--workloads", nargs="*", default=list(wl.WORKLOADS))
    parser.add_argument("--check-slicing", action="store_true")
    args = parser.parse_args()
    if args.check_slicing:
        check_slicing()
        return
    REFS.mkdir(exist_ok=True)
    for variant in args.variants:
        path = REFS / f"variant{variant}.json"
        refs = json.loads(path.read_text()) if path.exists() else {}
        for workload in args.workloads:
            begin = time.perf_counter()
            refs[workload] = reference(workload, variant)
            print(f"variant {variant} {workload}: "
                  f"{time.perf_counter() - begin:.1f}s", flush=True)
            path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
