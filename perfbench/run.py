"""The repo benchmark: one command per workload, metrics on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hybrid-script --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` splits the time between two phases on fresh
fixtures, untraced and then with timers around every layer boundary, and
reports the per-layer metrics plus the tracing overhead (the traced
phase's stmt/s against the untraced phase's).  Both audit a fixed sample of the served answers against the
model's and the exact engine's batch answers (1e-12 budget); a mismatch,
an errored statement or a rejected script counts as a failed statement.

Every metric is printed by name with its unit, then the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark writes only below ``perfbench/``: SQLite, version-store and
checkpoint files under ``perfbench/.work/`` (removed after each run) and
the traced run's spans under ``perfbench/out/``.  It never touches the
``repro.bench`` results store.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Gated script latency: the upper quartile.  Throughput, the median, the
#: p90 and the p99 are printed with their sample counts but are not
#: end-to-end metrics of BENCHMARK.json.  On a shared 2-CPU host the program
#: runs at two speeds that switch every few seconds to minutes
#: (hybrid-script scripts take ~27 ms or ~46 ms), and every timing follows
#: them.  The worst ten-seed spreads (quartile distance over median) seen
#: across the workloads were: stmt_per_s 0.27; p50 0.26 on hybrid-script,
#: where the median flips between the two speeds; p90 0.27 and p99 0.56 on
#: front-mixed, whose tail stretches with the host's stalls; p75 0.22 on
#: drift-cycle.  The p75 has the smallest worst case of these.
PRINTED_PERCENTILES = (50, 90, 99)
GATED_PERCENTILE = 75

END_TO_END = {
    "script_p75_ms": "ms",
    "avg_rmse": "u",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}



def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs right now.

    Printed beside the results so a run taken while other tenants slowed
    the host can be told apart from a slower program.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _timed_setups(workload) -> tuple[object, list[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last fixture."""
    times, fixture = [], None
    for _ in range(SETUP_REPEATS):
        if fixture is not None:
            fixture.close()
        start = time.perf_counter()
        fixture = workload.setup()
        times.append(time.perf_counter() - start)
    return fixture, times


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.analysis.instrument import race_check_requested

    # The race detector wraps every lock and the fault soak widens the fault
    # matrix: a timing taken under either measures a different program.
    if race_check_requested() or os.environ.get("REPRO_FAULT_SOAK", "") not in ("", "0"):
        print(
            "refusing to time with REPRO_RACE_CHECK or REPRO_FAULT_SOAK set: they "
            "instrument the program under measurement",
            file=sys.stderr,
        )
        return 2
    import numpy as np

    import audit
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # a traced run times an untraced and a traced phase of half length each
    seconds = args.seconds / 2 if args.trace else args.seconds
    fixture, setup_times = _timed_setups(workload)
    try:
        inputs = workload.inputs(fixture, args.seed)
        probe_before = _speed_probe_ms()
        run = workload.drive(fixture, inputs, seconds=seconds)
        probe_after = _speed_probe_ms()
    finally:
        fixture.close()  # the front and the checkpointer stop outside the timing
    checked, mismatches = audit.audit(run.audit)
    rmse = audit.avg_rmse(run.audit)
    latencies_ms = [x * 1e3 for x in run.latencies]
    end_to_end = {
        "script_p75_ms": _percentile(latencies_ms, GATED_PERCENTILE),
        "avg_rmse": rmse,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    attempted = run.statements
    failed = run.failed + mismatches

    print(f"workload        {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(
        f"environment     cpus={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"machine={platform.machine()}"
    )
    print(
        f"host speed      {probe_before:.3g} ms before, {probe_after:.3g} ms after the timed "
        "phase (fixed pure-Python loop; larger is a slower host)"
    )
    print(
        "writes          perfbench/.work (SQLite, versions, checkpoints; removed per run), "
        "perfbench/out (traced spans); checkpoints fsync every manifest and journal entry; "
        "the front and the checkpointer close after the timed phase"
    )
    print(
        f"audit           {checked} statements checked, {mismatches} mismatches "
        f"(budget {audit.DEVIATION_BUDGET:g}); {run.failed} errored/rejected"
    )
    print(f"error_share     {failed / attempted:.6f}  ({failed} of {attempted} statements)")
    print(f"stmt_per_s      {run.stmt_per_s:.6g} 1/s over {run.elapsed:.3g} s (not a gated metric)")
    for q in sorted((*PRINTED_PERCENTILES, GATED_PERCENTILE)):
        value = _percentile(latencies_ms, q)
        beyond = sum(x > value for x in latencies_ms)
        print(
            f"script latency  p{q} {value:.6g} ms over {len(latencies_ms)} scripts, "
            f"{beyond} beyond it{'' if q == GATED_PERCENTILE else ' (not a gated metric)'}"
        )
    if run.recovery_scripts:
        print(
            f"drift recovery  median {statistics.median(run.recovery_scripts)} scripts "
            f"over {len(run.recovery_scripts)} drifts"
        )
    for name, value in end_to_end.items():
        print(f"{name:<28}{value:.6g} {END_TO_END[name]}")

    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end.items()}
    if args.trace:
        tracer = Tracer()
        fixture = workload.setup()
        try:
            with layers.install(tracer, fixture) as installation:
                traced = workload.drive(fixture, inputs, seconds=seconds, tracer=tracer)
            overhead = (run.stmt_per_s - traced.stmt_per_s) / run.stmt_per_s * 100.0
            per_layer = layers.layer_metrics(
                installation,
                fixture,
                rejected=traced.rejected,
                recovery_scripts=traced.recovery_scripts,
                overhead_pct=overhead,
            )
            checked_t, mismatches_t = audit.audit(traced.audit)
        finally:
            fixture.close()
        attempted += traced.statements
        failed += traced.failed + mismatches_t
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(out)
        print(
            f"traced phase    {traced.stmt_per_s:.6g} stmt/s vs {run.stmt_per_s:.6g} untraced "
            f"({overhead:+.2f}% overhead); {len(tracer.spans)} spans -> {out.relative_to(HERE.parent)}"
        )
        print(f"traced audit    {checked_t} statements checked, {mismatches_t} mismatches")
        for name, (unit, _) in layers.PER_LAYER.items():
            print(f"{name:<28}{per_layer[name]:.6g} {unit}")
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()
        }

    correct = failed == 0 and checked > 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
