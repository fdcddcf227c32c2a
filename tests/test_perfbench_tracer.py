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
