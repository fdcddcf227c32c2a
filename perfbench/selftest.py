"""Self-checks of the benchmark itself (not of the program under test).

    python3 perfbench/selftest.py [--workloads lazy_sweep] [--seed 0]

1. Answer check: corrupt one value of the workload's stored reference and
   run the workload against the corrupted copy; every query must fail
   (``failed_frac`` = 1, ``correct`` false).
2. Exact counts: two traced runs with the same seed, each in its own
   process, must report identical per-layer counts. A difference is
   printed as nondeterminism.

Every run's result line must also carry exactly the metrics that
``BENCHMARK.json`` lists (end-to-end untraced, per-layer traced).

Exits non-zero when either check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402

RUN = HERE / "run.py"
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"] for m in listed}
    got = set(result["metrics"])
    if got != want:
        raise SystemExit(
            f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - got)}, extra {sorted(got - want)}"
        )
    return result


def corrupt(value):
    """Change the first leaf of a reference (a digest, count or row field)."""
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: corrupt(value[key])}
    if isinstance(value, list):
        return [corrupt(value[0]), *value[1:]]
    if isinstance(value, str):
        return value + "-corrupted"
    if isinstance(value, bool) or value is None:
        return not value
    return value + 1


def check_answers(workload: str, seed: int) -> bool:
    refs_path = HERE / "refs" / f"variant{wl.variant_of(seed)}.json"
    refs = json.loads(refs_path.read_text())
    refs[workload] = corrupt(refs[workload])
    OUT.mkdir(exist_ok=True)
    bad = OUT / f"corrupted-{workload}.json"
    bad.write_text(json.dumps(refs))
    result = run(workload, seed, 0, "--refs", str(bad))
    frac = result["failed"] / result["attempted"]
    ok = frac == 1.0 and result["correct"] is False
    print(f"{workload}: corrupted reference -> failed_frac {frac:g} over "
          f"{result['attempted']} queries: {'ok' if ok else 'NOT DETECTED'}")
    return ok


def check_counts(workload: str, seed: int) -> bool:
    first, second = (run(workload, seed, 1)["metrics"] for _ in range(2))
    differ = [
        f"{name}: {first[name]['value']} vs {second[name]['value']}"
        for name in COUNT_METRICS
        if first[name]["value"] != second[name]["value"]
    ]
    for name in ("trace.count_mismatches",):
        for result in (first, second):
            if result[name]["value"]:
                differ.append(f"{name} = {result[name]['value']} within one run")
    if differ:
        print(f"{workload}: NONDETERMINISM between two traced runs: "
              + "; ".join(differ))
    else:
        print(f"{workload}: {len(COUNT_METRICS)} per-layer counts identical "
              "across two traced runs")
    return not differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=["lazy_sweep", "fleet_pool"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        ok &= check_answers(workload, args.seed)
        ok &= check_counts(workload, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
