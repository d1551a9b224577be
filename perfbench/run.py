"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout; nothing is installed.  ``--trace 0``
measures the end-to-end metrics (``setup_s``, ``p50_ms``,
``rate_per_s``, ``peak_rss_mb``); ``--trace 1`` runs the workload once
more with tracing on and reports the per-layer metrics instead.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it name every metric the workload measured, with its unit
and sample count.  Every workload reports every metric of its kind; a
per-layer metric of a layer the workload never reaches reads 0.  With
``--all`` the metric names are prefixed by the workload's.  The exit code is 1 when a correctness gate fails
and 2 when the program cannot be found.  The full report, spans
included, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serve-churn", "serve-scan", "trial-sweep", "query-batch")

#: Unit of every end-to-end metric (reported by every workload).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Units of the workload-specific metrics printed beside them.
NAMED_UNITS = {
    "write_p50_ms": "ms", "write_p99_ms": "ms",
    "read_p50_ms": "ms", "read_p99_ms": "ms",
    "max_rate_ops_s": "ops/s", "failed_frac": "ratio",
    "trials_per_s": "trials/s", "queries_per_s": "queries/s",
    "peak_rss_mb": "MiB", "disk_bytes_per_point": "bytes/point",
    "spec_p90_ms": "ms", "round_p99_ms": "ms", "p50_all_ms": "ms",
    "pass_p50_raw_ms": "ms", "round_p50_raw_ms": "ms", "probe_p50_ms": "ms",
}


def _load_program():
    """Import the program from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program at {src}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    os.environ["REPRO_NO_DB"] = "1"


def stop_helper_processes() -> None:
    """Stop and reap multiprocessing's resource tracker.  The worker
    pool's shared-memory blocks start it as a child of this process,
    and nothing else stops it: it would outlive the run by however
    long it takes to notice this process is gone."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from harness import cpu_ticks, environment, run_context, write_report

    with run_context(ROOT, workload, seed, seconds, traced) as ctx:
        began = time.perf_counter()
        steal0, total0 = cpu_ticks()
        with ctx.span(f"run.{workload}", "bench"):
            if workload.startswith("serve-"):
                import serve_workloads as mod
                runner = mod.run_traced if traced else mod.run_untraced
                outcome = asyncio.run(runner(ctx, workload))
            elif workload == "trial-sweep":
                import sweep_workload as mod
                outcome = (mod.run_traced if traced else mod.run_untraced)(ctx)
            else:
                import query_workload as mod
                outcome = (mod.run_traced if traced else mod.run_untraced)(ctx)
        outcome["wall_s"] = time.perf_counter() - began
        if traced:
            for layer, seconds_in in ctx.spans.self_times().items():
                outcome["metrics"][f"self_ms.{layer}"] = seconds_in * 1e3
            outcome["spans"] = ctx.spans.to_list()
        steal1, total1 = cpu_ticks()
        outcome["environment"] = environment(
            ROOT, outcome.pop("workers", 1)
        )
        outcome["environment"]["cpu_steal_frac"] = round(
            (steal1 - steal0) / max(1, total1 - total0), 4)
        outcome["workload"] = workload
        outcome["seed"] = seed
        outcome["traced"] = traced
        write_report(ROOT, f"{workload}-seed{seed}-trace{int(traced)}.json",
                     outcome)
    return outcome


def _fmt(value) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_outcome(workload: str, outcome: dict, per_layer: list) -> None:
    env = outcome["environment"]
    print(f"== {workload} (seed {outcome['seed']}, "
          f"trace {int(outcome['traced'])}) ==")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())))
    samples = outcome.get("samples", {})
    for name, value in outcome["metrics"].items():
        unit = END_TO_END.get(name) or per_layer.get(name, "")
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"   {name:<40} {_fmt(value):>14} {unit}{suffix}")
    for name, value in outcome.get("named", {}).items():
        print(f"   {name:<40} {_fmt(value):>14} {NAMED_UNITS.get(name, '')}")
    for cls, stats in outcome.get("classes", {}).items():
        print(f"   class {cls:<34} n={stats['count']} "
              f"p50={stats['p50_ms']:.3f}ms p99={stats['p99_ms']:.3f}ms")
    print(f"   attempted={outcome['attempted']} failed={outcome['failed']}")
    for gate, ok in outcome["gates"].items():
        print(f"   gate {gate:<35} {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    _load_program()
    # a terminated run still unwinds, so its server child and worker
    # pool are stopped by the cleanup on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    per_layer = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    workloads = WORKLOADS if args.all else (args.workload,)
    outcomes = []
    try:
        for workload in workloads:
            outcome = run_one(workload, args.seed, args.seconds,
                              bool(args.trace))
            print_outcome(workload, outcome, per_layer)
            outcomes.append(outcome)
    finally:
        stop_helper_processes()
    correct = all(all(o["gates"].values()) for o in outcomes)
    wanted = per_layer if args.trace else END_TO_END
    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome['workload']}." if args.all else ""
        for name, unit in wanted.items():
            # a layer the workload never reaches did no work: 0
            value = outcome["metrics"].get(name, 0.0)
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
