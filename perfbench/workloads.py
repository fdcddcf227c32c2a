"""The benchmark's four workloads: seeded inputs, one query each, and
the answer every query must reproduce.

A *query* is one user question answered end to end through the public
``repro.explore`` API. Each workload builds its inputs once (set-up) and
then answers the same question back to back. The program under test only
ever receives built ``Scenario`` / ``JointFleetScenario`` objects.

Seeds. Inputs come from ``--seed`` through ``repro.datasets.rng``, with
every value drawn from a small discrete set: the platform names, a
constant offset on every compute rate, per-block energy and active-time
rank permutations and pass rates, the fleet's energy budget and the joint
uplink's contention. None of these reorders a comparison the frontier or
the fold makes on one axis (a constant offset keeps every compute-rate
comparison; energy ranks only feed the energy top-k), so every seed does
the same work and keeps each workload's defining property exactly: the
same tie-heavy frontier on ``frontier``, a prune band in the middle of the
depths at 65 FPS on ``lazy_sweep``, one pipeline shared across the fleet's
links on ``fleet_pool``. What changes is the answer: labels, rates, the
best rows, feasible sets and the joint assignment.

The scalar oracle needs minutes and gigabytes per seed on the 2.39M-config
space, so references are precomputed (``make_refs.py``) for a fixed pool
of ``VARIANTS`` seeds; ``--seed n`` selects variant ``n % VARIANTS``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Callable

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.datasets.rng import make_rng
from repro.explore import (
    Campaign,
    JointFleetScenario,
    ParetoSink,
    Scenario,
    SweepExecutor,
    TopKSink,
    explore,
    explore_joint,
    load_builtin,
)
from repro.hw.network import LinkModel

#: Benchmark workloads, in report order.
WORKLOADS = ("frontier", "lazy_sweep", "collected_sweep", "fleet_pool")

#: Size of the seed pool that has stored oracle references.
VARIANTS = 8
#: The seed runs use unless told otherwise; bounds were set on it.
DEFAULT_SEED = 0
#: A seed (variant) kept out of setting the bounds, to check they carry over.
HELD_OUT_SEED = 5

TOP_K = 5
PLATFORM_NAMES = ("asic", "cpu", "dsp", "fpga", "gpu")
PASS_RATES = (0.85, 0.9, 0.95)
FPS_OFFSETS = (0.0, 1.0, 2.0, 3.0)
ENERGY_BUDGETS_J = (1.5e-4, 2e-4, 2.5e-4)

#: fleet_pool: process pool sized to the 2-core reference machine.
POOL_WORKERS = 2
FLEET_BLOCKS = 9
FLEET_LINKS = 8
#: Per-camera rates of the joint fleet; block 0 caps compute at 26 fps.
JOINT_RATES = (12.0, 15.0, 18.0, 21.0)
#: Contended shared uplink: this share of the fleet's solo demand.
JOINT_CAPACITY_FRACTIONS = (0.45, 0.5, 0.55)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def digest(value: Any) -> str:
    """sha256 of a value's canonical JSON (rows keep key order)."""
    if not isinstance(value, str):
        value = json.dumps(value)
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


# -- seeded pipelines -------------------------------------------------------


def deep_pipeline(seed: int, n_blocks: int) -> InCameraPipeline:
    """The deep synthetic throughput chain: payloads shrink with depth,
    the fastest rate slows with depth. Shallow cuts are communication
    bound, deep cuts compute bound, so a 65 FPS bar prunes both ends and
    leaves a band in the middle; compute rates take few distinct values,
    so the frontier is made of exact ties."""
    rng = make_rng([variant_of(seed), n_blocks])
    names = sorted(str(n) for n in rng.choice(PLATFORM_NAMES, 3, replace=False))
    offset = float(rng.choice(FPS_OFFSETS))
    blocks = []
    for i in range(n_blocks):
        energy_rank, active_rank = rng.permutation(3), rng.permutation(3)
        blocks.append(
            Block(
                name=f"B{i}",
                output_bytes=float(1000 - 50 * (i + 1)),
                pass_rate=float(rng.choice(PASS_RATES)),
                implementations={
                    name: Implementation(
                        name,
                        fps=100.0 + offset - 4 * i + j,
                        energy_per_frame=1e-6 * (int(energy_rank[j]) + 1),
                        active_seconds=1e-3 * (int(active_rank[j]) + 1),
                    )
                    for j, name in enumerate(names)
                },
            )
        )
    return InCameraPipeline(
        name=f"deep{n_blocks}",
        sensor_bytes=2000.0,
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


DEEP_LINK = LinkModel(name="bench-link", raw_bps=520000.0, tx_energy_per_bit=1e-9)


def deep_scenario(seed: int, n_blocks: int, **fields: Any) -> Scenario:
    base = dict(
        name=f"deep{n_blocks}", pipeline=deep_pipeline(seed, n_blocks),
        link=DEEP_LINK, target_fps=80.0,
    )
    base.update(fields)
    return Scenario(**base)


def fleet_choices(seed: int) -> tuple[list[str], float, float]:
    """The fleet's seeded values: platform names, the energy fleet's
    budget and the joint uplink's share of solo demand."""
    rng = make_rng([variant_of(seed), 1000 + FLEET_BLOCKS])
    names = sorted(str(n) for n in rng.choice(PLATFORM_NAMES, 3, replace=False))
    return (
        names,
        float(rng.choice(ENERGY_BUDGETS_J)),
        float(rng.choice(JOINT_CAPACITY_FRACTIONS)),
    )


def fleet_pipeline(seed: int) -> InCameraPipeline:
    """The 9-block fleet chain shared by every fleet member."""
    names = fleet_choices(seed)[0]
    blocks = tuple(
        Block(
            name=f"b{i}",
            output_bytes=4000.0 * (0.82 ** (i + 1)),
            pass_rate=1.0 - 0.04 * i,
            implementations={
                name: Implementation(
                    name,
                    fps=20.0 + 7.0 * i + 3.0 * rank,
                    energy_per_frame=1e-6 * (1.0 + 0.31 * i + 0.17 * rank),
                    active_seconds=1e-4 * (1.0 + 0.13 * i + 0.07 * rank),
                )
                for rank, name in enumerate(names)
            },
        )
        for i in range(FLEET_BLOCKS)
    )
    return InCameraPipeline(
        name="fleet-chain", sensor_bytes=4000.0, blocks=blocks,
        sensor_energy_per_frame=1e-6,
    )


FLEET_LINK_TIERS = tuple(
    LinkModel(
        name=f"tier{index}",
        raw_bps=10.0 ** (5.0 + 0.6 * index),
        efficiency=0.5 + 0.05 * index,
        tx_energy_per_bit=10.0 ** (-8.5 - 0.3 * index),
    )
    for index in range(FLEET_LINKS)
)


def energy_fleet(seed: int) -> list[Scenario]:
    pipeline = fleet_pipeline(seed)
    budget = fleet_choices(seed)[1]
    return [
        Scenario(
            name=f"fleet@{link.name}", pipeline=pipeline, link=link,
            domain="energy", energy_budget_j=budget,
        )
        for link in FLEET_LINK_TIERS
    ]


def joint_fleet(seed: int) -> JointFleetScenario:
    pipeline = fleet_pipeline(seed)
    uplink = LinkModel(name="shared-uplink", raw_bps=2.0e6, efficiency=0.8)
    members = tuple(
        Scenario(name=f"cam{i}", pipeline=pipeline, link=uplink, target_fps=rate)
        for i, rate in enumerate(JOINT_RATES)
    )
    fleet = JointFleetScenario(name="joint-fleet", members=members, capacity_bps=1.0)
    return replace(
        fleet, capacity_bps=fleet_choices(seed)[2] * fleet.solo_demand_bps()
    )


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload's built inputs and its query.

    ``query()`` answers the workload's question and returns the raw
    result objects; ``answer(raw)`` reduces them to the JSON-able answer
    compared against the stored reference (kept out of the timed region).
    ``configs`` is the sum of ``count_configs()`` over every exploration
    one query runs; ``answer_rows(raw)`` counts the distinct rows the
    query hands back to its user.
    """

    name: str
    configs: int
    query: Callable[[], Any]
    answer: Callable[[Any], dict[str, Any]]
    answer_rows: Callable[[Any], int]


def frontier_entry(pareto: list, best: dict, n_feasible: int) -> dict[str, Any]:
    return {
        "pareto_n": len(pareto),
        "pareto_sha256": digest(pareto),
        "best": best,
        "feasible": n_feasible,
    }


class Frontier(Workload):
    """The paper's Fig. 10 question, default calls: collected explore()
    plus .pareto()/.best/.feasible on every builtin catalog scenario and
    on the tie-heavy 7x3 deep pipeline, plus a ParetoSink export."""

    name = "frontier"

    def __init__(self, seed: int):
        self.catalog = load_builtin().build_all()
        self.deep = deep_scenario(seed, 7)
        self.scenarios = [*self.catalog, self.deep]
        self.configs = sum(s.count_configs() for s in self.scenarios) + (
            self.deep.count_configs()
        )

    def query(self) -> Any:
        answered = []
        for scenario in self.scenarios:
            result = explore(scenario)
            answered.append(
                (scenario.name, result.pareto(), result.best, result.feasible)
            )
        sink = ParetoSink()
        explore(self.deep, sink=sink, collect=False)
        return answered, sink.pareto()

    def answer(self, raw: Any) -> dict[str, Any]:
        answered, sink_pareto = raw
        out = {}
        for name, pareto, best, feasible in answered:
            out[name] = frontier_entry(pareto, best, len(feasible))
        out["deep7-sink"] = {"pareto_n": len(sink_pareto),
                             "pareto_sha256": digest(sink_pareto)}
        return out

    def answer_rows(self, raw: Any) -> int:
        answered, sink_pareto = raw
        rows = {id(row) for row in sink_pareto}
        for _, pareto, best, feasible in answered:
            rows.update(id(row) for row in [*pareto, best, *feasible])
        return len(rows)


def lazy_scenarios(seed: int) -> list[tuple[Scenario, str, bool]]:
    """(scenario, top-k metric, maximize) of the three lazy exports."""
    thr = deep_scenario(seed, 13)
    energy = replace(thr, name="deep13-energy", domain="energy", target_fps=None)
    pruned = replace(
        thr, name="deep13-pruned65", target_fps=65.0, auto_prune_configs=True
    )
    return [
        (thr, "total_fps", True),
        (energy, "total_energy_j", False),
        (pruned, "total_fps", True),
    ]


class LazySweep(Workload):
    """Export-only TopKSink queries over the 13x3 space: throughput,
    energy, and fused-pruned at 65 FPS."""

    name = "lazy_sweep"

    def __init__(self, seed: int):
        self.runs = lazy_scenarios(seed)
        self.configs = sum(s.count_configs() for s, _, _ in self.runs)

    def query(self) -> Any:
        answers = []
        for scenario, metric, maximize in self.runs:
            sink = TopKSink(metric, k=TOP_K, maximize=maximize)
            explore(scenario, sink=sink, collect=False)
            answers.append((scenario.name, sink.top_k()))
        return answers

    def answer(self, raw: Any) -> dict[str, Any]:
        return {name: {"top_k": top} for name, top in raw}

    def answer_rows(self, raw: Any) -> int:
        return sum(len(top) for _, top in raw)


class CollectedSweep(Workload):
    """The default collected path on the 11x3 space: explore(), then
    .rows, .feasible, .top_k and .to_csv()."""

    name = "collected_sweep"

    def __init__(self, seed: int):
        self.scenario = deep_scenario(seed, 11)
        self.configs = self.scenario.count_configs()

    def query(self) -> Any:
        result = explore(self.scenario)
        rows = result.rows
        feasible = result.feasible
        top = result.top_k("total_fps", k=TOP_K)
        return len(rows), feasible, top, result.to_csv()

    def answer(self, raw: Any) -> dict[str, Any]:
        n_rows, feasible, top, csv = raw
        return {
            "rows": n_rows,
            "feasible": len(feasible),
            "feasible_sha256": digest(feasible),
            "top_k": top,
            "csv_sha256": digest(csv),
        }

    def answer_rows(self, raw: Any) -> int:
        return raw[0]  # .rows hands back every row


class FleetPool(Workload):
    """Three runs on a 2-worker process pool: a solo 10x3 top-k export,
    an 8-link energy fleet via Campaign.run(dedup=True, collect=False),
    and the 4-camera export-only joint search on a contended uplink."""

    name = "fleet_pool"

    def __init__(self, seed: int):
        self.executor = SweepExecutor(workers=POOL_WORKERS, backend="process")
        self.solo = deep_scenario(seed, 10)
        self.fleet = energy_fleet(seed)
        self.joint = joint_fleet(seed)
        self.configs = (
            self.solo.count_configs()
            + sum(s.count_configs() for s in self.fleet)
            + sum(m.count_configs() for m in self.joint.members)
        )

    def query(self) -> Any:
        solo_sink = TopKSink("total_fps", k=TOP_K)
        explore(self.solo, self.executor, sink=solo_sink, collect=False)
        sinks = {
            s.name: TopKSink("total_energy_j", k=TOP_K, maximize=False)
            for s in self.fleet
        }
        campaign = Campaign(self.fleet, name="energy-fleet").run(
            self.executor, sinks=sinks, collect=False, dedup=True
        )
        joint = explore_joint(self.joint, self.executor, collect=False)
        return solo_sink, sinks, campaign, joint

    def answer(self, raw: Any) -> dict[str, Any]:
        solo_sink, sinks, campaign, joint = raw
        members = {}
        for run in campaign:
            pareto = run.pareto()
            members[run.name] = {
                "top_k": sinks[run.name].top_k(),
                "pareto_n": len(pareto),
                "pareto_sha256": digest(pareto),
                "best": run.best,
                "feasible": run.n_feasible,
            }
        assignment = joint.best_assignment
        return {
            "solo": {"top_k": solo_sink.top_k()},
            "fleet": members,
            "joint": {
                "assignment": None if assignment is None
                else [c.row["config"] for c in assignment],
                "fleet_fps": joint.best_fleet_fps,
                "demand_bps": joint.best_demand_bps,
            },
        }

    def answer_rows(self, raw: Any) -> int:
        solo_sink, sinks, campaign, joint = raw
        rows = {id(row) for row in solo_sink.top_k()}
        for run in campaign:
            rows.update(id(row) for row in [*sinks[run.name].top_k(), *run.pareto()])
            if run.best is not None:
                rows.add(id(run.best))
        rows.update(id(c.row) for c in joint.best_assignment or [])
        return len(rows)


BY_NAME: dict[str, Callable[[int], Workload]] = {
    "frontier": Frontier,
    "lazy_sweep": LazySweep,
    "collected_sweep": CollectedSweep,
    "fleet_pool": FleetPool,
}
