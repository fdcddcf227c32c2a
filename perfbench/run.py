"""Run one benchmark workload and report its metrics.

    python3 perfbench/run.py --workload frontier --seed 0 --seconds 20 --trace 0

Queries run closed-loop, back to back, from this one benchmark process (one
client). Every answer is checked against the stored oracle reference; a
mismatch or an exception is a failed query. With ``--trace 0`` the run
times a fixed number of queries per workload (``QUERIES_PER_SECOND`` times
``--seconds``), and the last stdout line carries the end-to-end metrics,
taken with tracing off, in reference-host seconds (see ``hostspeed.py``);
with ``--trace 1`` the per-layer
metrics of the traced run (see ``tracing.py``) plus the tracing overhead.
Everything before the last line is a human-readable report.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402

#: Fewest timed queries one run measures, whatever ``--seconds`` says.
MIN_QUERIES = 3
#: Timed queries per second of ``--seconds``, from each workload's query
#: rate on the commit that defined the benchmark (2-vCPU VM, Python 3.11).
QUERIES_PER_SECOND = {
    "frontier": 0.2,
    "lazy_sweep": 1.0,
    "collected_sweep": 0.2,
    "fleet_pool": 0.3,
}
#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
OUT = HERE / "out"
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
}


def load_reference(workload: str, seed: int, path: str | None) -> dict:
    refs = Path(path) if path else HERE / "refs" / f"variant{wl.variant_of(seed)}.json"
    return json.loads(refs.read_text())[workload]


def first_difference(got, want, where: str = "answer") -> str | None:
    """Path of the first place two JSON values differ (None if equal)."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                return f"{where}.{key} missing"
            found = first_difference(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where}: {len(got)} entries, expected {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{where}: got {got!r}, expected {want!r}"


class Runner:
    """Answers queries and checks each against the reference."""

    def __init__(self, workload: wl.Workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_query(self, tracer: Tracer | None = None) -> tuple[float, dict | None]:
        """One query: (wall seconds, per-layer metrics when traced)."""
        gc.collect()
        layers = None
        root = tracer.begin_query(self.attempted) if tracer else None
        begin = time.perf_counter()
        try:
            raw = self.workload.query()
        except Exception as exc:  # a failed query, reported and counted
            raw, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - begin
        if tracer:
            layers = tracer.end_query(root)
        self.attempted += 1
        if error is None:
            answer = json.loads(json.dumps(self.workload.answer(raw)))
            error = first_difference(answer, self.reference)
            if layers is not None:
                layers["result.answer_rows"] = self.workload.answer_rows(raw)
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        del raw
        return seconds, layers


def timed_queries(workload: str, seconds: float) -> int:
    """How many queries a ``--trace 0`` run times: fixed per workload and
    ``--seconds``, never by how fast the queries go, so ``query_s.tail``
    is the same order statistic on every commit."""
    return max(MIN_QUERIES, round(QUERIES_PER_SECOND[workload] * seconds))


def tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum until that percentile is at least the median (n >= 21)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of n={n} (fewer than 21 samples)"
    j = n - 11
    return ordered[j], f"p{100 * (j + 1) / n:.1f} of n={n} (10 samples beyond it)"


def spawn_setups(args: argparse.Namespace, count: int) -> tuple[list, list]:
    """Time ``count`` set-ups, each in a fresh interpreter: their wall
    seconds, and the host probes bracketing each one."""
    samples, probes = [], [hostspeed.probe()]
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        probes.append(hostspeed.probe())
    return samples, probes


def traced_query(runner: Runner, tracer: Tracer) -> dict:
    """One query with the layer wrappers installed; its per-layer metrics."""
    tracer.install()
    try:
        layers = runner.run_query(tracer)[1]
    finally:
        tracer.uninstall()
    return derived(layers, runner.workload.configs)


def measure(runner: Runner, count: int) -> tuple[list, list]:
    """Time ``count`` queries back to back, after one untraced warm-up
    query that is checked but not timed (first-use costs are paid once per
    process, not per query): their wall seconds, and the host probes
    bracketing each one."""
    runner.run_query()
    durations, probes = [], [hostspeed.probe()]
    for _ in range(count):
        durations.append(runner.run_query()[0])
        probes.append(hostspeed.probe())
    return durations, probes


def end_to_end(args, runner: Runner, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics; every time in reference-host seconds."""
    setup_probe = hostspeed.probe()  # after this process's set-up
    walls, probes = measure(runner, timed_queries(args.workload, args.seconds))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spawned, spawn_probes = spawn_setups(args, SETUP_SAMPLES - 1)
    durations = hostspeed.reference_seconds(walls, probes)
    setups = hostspeed.reference_seconds(
        [setup_s], [setup_probe, setup_probe]
    ) + hostspeed.reference_seconds(spawned, spawn_probes)
    tail_s, tail_note = tail(durations)
    p50 = statistics.median(durations)
    metrics = {
        "query_s.p50": p50,
        "query_s.tail": tail_s,
        "configs_per_s": runner.workload.configs / p50,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
    }
    failed_frac = runner.failed / runner.attempted
    report = [
        f"{'':16s} timed queries, wall s: " + ", ".join(f"{d:.4f}" for d in walls),
        f"{'':16s} host factors: " + ", ".join(
            f"{w / d:.3f}" for w, d in zip(walls, durations)),
        f"{'':16s} set-ups, wall s: " + ", ".join(
            f"{s:.4f}" for s in [setup_s] + spawned),
    ]
    report += [
        f"{name:16s} {value:14.6g} {UNITS[name]}" for name, value in metrics.items()
    ]
    report.insert(5, f"{'':16s} query_s.tail is the {tail_note}")
    report.append(f"{'failed_frac':16s} {failed_frac:14.6g} ratio "
                  f"({runner.failed} of {runner.attempted} queries)")
    return metrics, report


def derived(layers: dict, configs: int) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = dict(layers)
    out["prune.keep_ratio"] = ratio(layers["prune.rows_kept"], layers["prune.rows_in"])
    out["vectorized.materialize_useful_ratio"] = ratio(
        layers["result.answer_rows"], layers["vectorized.rows_materialized"]
    )
    out["vectorized.materialized_per_config"] = ratio(
        layers["vectorized.rows_materialized"], configs
    )
    out["result.pareto_distinct_share"] = ratio(
        layers["result.pareto_distinct_points"], layers["result.pareto_rows_out"]
    )
    skipped = layers["campaign.evaluations_skipped"]
    out["campaign.skip_ratio"] = ratio(
        skipped, skipped + layers["campaign.evaluations_computed"]
    )
    out["executor.bytes_per_config"] = ratio(
        layers["executor.bytes_out"] + layers["executor.bytes_in"], configs
    )
    query = layers["query_s"] - layers["trace.bookkeeping_s"]
    out["share.pareto"] = ratio(layers["result.pareto_s"], query)
    out["share.materialize_rows_export"] = ratio(
        layers["vectorized.materialize_s"] + layers["result.rows_s"]
        + layers["result.export_s"], query
    )
    out["share.executor_wait"] = ratio(layers["executor.wait_s"], query)
    return out


def traced(args, runner: Runner) -> tuple[dict, list[str]]:
    """One warm-up query, then traced and untraced queries alternate, so
    the overhead compares like with like in one process."""
    tracer = Tracer()
    runner.run_query()  # warm-up: first-use costs land on neither side
    plain: list[float] = []
    rows: list[dict] = []
    begin = time.perf_counter()
    while True:
        if len(rows) <= len(plain):
            rows.append(traced_query(runner, tracer))
        else:
            plain.append(runner.run_query()[0])
        elapsed = time.perf_counter() - begin
        if len(rows) >= 2 and plain and (
            elapsed + statistics.median(plain) > args.seconds
        ):
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    counted = set(COUNT_METRICS) | {"result.answer_rows"}
    mismatched = sorted(
        name for name in counted if len({row[name] for row in rows}) > 1
    )
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        value = values[0] if name in counted else statistics.median(values)
        metrics[name] = value
    traced_p50 = metrics.pop("query_s")
    metrics["query.traced_s.p50"] = traced_p50
    metrics["query.untraced_s.p50"] = statistics.median(plain)
    metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(plain)
    metrics["trace.count_mismatches"] = len(mismatched)
    report = [f"{name:40s} {value:14.6g}" for name, value in sorted(metrics.items())]
    report.append(
        f"traced queries: {len(rows)}, untraced: {len(plain)}; tracing overhead "
        f"{100 * (metrics['trace.overhead_ratio'] - 1):+.1f}% on query_s.p50"
    )
    if mismatched:
        report.append("NONDETERMINISM: counts differ between traced queries of "
                      "the same inputs: " + ", ".join(mismatched))
    report.extend(property_report(args.workload, metrics, "traced queries"))
    return metrics, report


def property_report(workload: str, m: dict, source: str) -> list[str]:
    """The property that justifies each workload, and the layer share the
    seed measurements predict, confirmed or reported against."""
    checks = {
        "frontier": [
            (f"frontier distinct points / frontier rows = "
             f"{m['result.pareto_distinct_share']:.4f} (tie-heavy if << 1)",
             m["result.pareto_distinct_share"] < 0.1),
            (f"result.pareto_s share of query = {m['share.pareto']:.3f} "
             "(predicted >= 0.90)", m["share.pareto"] >= 0.90),
        ],
        "lazy_sweep": [
            (f"rows materialized / configs = "
             f"{m['vectorized.materialized_per_config']:.3g} (predicted < 0.001)",
             m["vectorized.materialized_per_config"] < 0.001),
        ],
        "collected_sweep": [
            (f"rows materialized / configs = "
             f"{m['vectorized.materialized_per_config']:.3g} (collected: ~1)",
             m["vectorized.materialized_per_config"] >= 0.99),
            (f"materialize + rows + export share of query = "
             f"{m['share.materialize_rows_export']:.3f} (predicted >= 0.80)",
             m["share.materialize_rows_export"] >= 0.80),
        ],
        "fleet_pool": [
            (f"campaign.skip_ratio = {m['campaign.skip_ratio']:.3f} "
             "(dedup-heavy if > 0.5)", m["campaign.skip_ratio"] > 0.5),
            (f"executor.bytes_per_config = {m['executor.bytes_per_config']:.1f} "
             "bytes (computed by pickling)", m["executor.bytes_per_config"] > 0),
            (f"executor.wait_s share of query = {m['share.executor_wait']:.3f} "
             "(predicted >= 0.50)", m["share.executor_wait"] >= 0.50),
        ],
    }[workload]
    return [f"property ({source}): {text} -> {'holds' if ok else 'DOES NOT HOLD'}"
            for text, ok in checks]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", help="reference file (default: the seed's)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for setup_s)")
    args = parser.parse_args()

    workload = wl.BY_NAME[args.workload](args.seed)
    reference = load_reference(args.workload, args.seed, args.refs)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload, reference)
    print(f"workload {args.workload}: seed {args.seed} (variant "
          f"{wl.variant_of(args.seed)}), {workload.configs} configs per query, "
          f"closed loop, 1 client")
    if args.trace:
        metrics, report = traced(args, runner)
    else:
        metrics, report = end_to_end(args, runner, setup_s)
    print("\n".join(report))
    for error in runner.errors[:5]:
        print(f"FAILED query: {error}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
