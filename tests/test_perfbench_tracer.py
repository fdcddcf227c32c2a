"""The benchmark tracer still fits the engine it patches.

``perfbench/tracing.py`` wraps engine entry points by name (cost
kernels, cohort and shard walks, reductions, sinks, the executor, the
campaign driver) and restores them afterwards. A refactor that renames
or deletes one of those names would otherwise surface only when the
traced benchmark runs, so this test installs and uninstalls the tracer
and checks both halves of the contract.

``perfbench/`` is not a package, so the module is loaded by file path.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_attributes_and_restores_them():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert attr in vars(owner), (owner, attr)
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer._undo
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_tracer_counts_a_traced_dedup_campaign_and_joint_fleet():
    """Tracing a serial dedup campaign and a default joint fleet runs to
    the end: every submitted chunk pickles (the tracer counts its
    bytes), and the campaign and scheduling counters register."""
    from repro.explore import Campaign, JointFleetScenario, Scenario, explore_joint
    from repro.hw.network import ETHERNET_25G, WIFI_CLASS, LinkModel
    from repro.vr.scenarios import build_vr_pipeline

    pipeline = build_vr_pipeline()
    links = (ETHERNET_25G, WIFI_CLASS, LinkModel("slow", raw_bps=1e8))

    def camera(name, link):
        return Scenario(name=name, pipeline=pipeline, link=link, target_fps=30.0)

    fleet = [camera(f"vr@{link.name}", link) for link in links]
    joint = JointFleetScenario(
        name="joint",
        members=(camera("cam0", ETHERNET_25G), camera("cam1", ETHERNET_25G)),
        capacity_bps=ETHERNET_25G.goodput_bps,
    )
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        root = tracer.begin_query(0)
        Campaign(fleet).run(dedup=True, collect=False)
        explore_joint(joint, collect=False)
        metrics = tracer.end_query(root)
    finally:
        tracer.uninstall()
    assert metrics["campaign.evaluations_skipped"] > 0
    assert metrics["scheduling.select_calls"] > 0
    assert metrics["executor.bytes_out"] > 0
