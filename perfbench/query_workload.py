"""``query-batch``: batched range, k-NN and partial-match queries on
``repro.kernels.QueryKernel`` over 200,000 points.

Two kernels are built, one over uniform and one over Gaussian points.
The unit operation is one *round*: on each kernel in turn, a batch of
range boxes (side 0.05), a batch of k=8 nearest queries and a batch of
partial matches on axis 0, all from a seeded ``QueryWorkload``.  Timing
both kernels as one unit keeps the median off the gap between the two
kernels' round times.  Half the partial-match values are x-coordinates of
stored points, so those queries have answers to check.  Each round is
followed by one host-speed probe (hostspeed.py), and the reported round
times are normalised by it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.geometry import Rect
from repro.kernels import QueryKernel
from repro.obs import Tracer
from repro.workloads import GaussianPoints, UniformPoints
from repro.workloads.queries import QueryWorkload

from harness import (
    RunContext, finite_or_zero, fresh_gc, mean, median, quantile,
    tree_hwm_mb,
)
from hostspeed import HostProbe

N_POINTS = 200_000
CAPACITY = 8
BATCH = 16  # queries of each kind per round
RANGE_SIDE = 0.05
KNN_K = 8
PM_AXES = (0,)
GATE_ROUNDS = 2  # rounds whose answers are checked by brute force
GATE_QUERIES = 5  # queries of each kind checked per such round
SETUP_PROBES = 3  # host-speed probes after each set-up


def _generators(seed: int):
    return (("uniform", UniformPoints(seed=seed * 2 + 1)),
            ("gaussian", GaussianPoints(seed=seed * 2 + 2)))


def build(ctx: RunContext) -> Tuple[List[tuple], Dict[str, float]]:
    """Generate both point sets and build a kernel over each; returns
    ``[(name, points, kernel)]`` and the time each step took."""
    out, took = [], {}
    for name, generator in _generators(ctx.seed):
        with ctx.span(f"workloads.generate_array.{name}", "workloads"):
            t0 = time.perf_counter()
            points = generator.generate_array(N_POINTS)
            took[f"generate.{name}"] = time.perf_counter() - t0
        with ctx.span("kernels.QueryKernel.build", "kernels"):
            t0 = time.perf_counter()
            kernel = QueryKernel.build(points, capacity=CAPACITY)
            took[f"build.{name}"] = time.perf_counter() - t0
        out.append((name, points, kernel))
    return out, took


def round_queries(seed: int, index: int, points: np.ndarray):
    workload = QueryWorkload(dim=2, seed=seed * 1_000_003 + index)
    rects = workload.range_rects(BATCH, side=RANGE_SIDE)
    knn = workload.knn_points(BATCH)
    pm = workload.partial_match_values(BATCH, PM_AXES)
    stored = np.random.default_rng([seed, index]).integers(
        len(points), size=BATCH)
    pm[::2, 0] = points[stored[::2], PM_AXES[0]]
    return rects, knn, pm


def _lex(rows: np.ndarray) -> np.ndarray:
    order = np.lexsort(tuple(rows[:, a] for a in range(rows.shape[1] - 1,
                                                       -1, -1)))
    return rows[order]


def check_round(points: np.ndarray, queries, answers) -> bool:
    """Brute-force numpy answers for the first few queries of each
    kind must equal the kernel's."""
    rects, knn, pm = queries
    ranges, neighbours, partial = answers
    for i in range(GATE_QUERIES):
        rect: Rect = rects[i]
        lo, hi = np.array(rect.lo.coords), np.array(rect.hi.coords)
        inside = ((points >= lo) & (points < hi)).all(axis=1)
        if not np.array_equal(_lex(points[inside]), ranges[i]):
            return False
        dist = np.sqrt(((points - knn[i]) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:KNN_K]
        if not np.array_equal(_lex(points[nearest]), _lex(neighbours[i])):
            return False
        exact = points[points[:, PM_AXES[0]] == pm[i, 0]]
        if not np.array_equal(_lex(exact), partial.matches[i]):
            return False
    return True


def _round(ctx: RunContext, kernel: QueryKernel, queries,
           timings: Dict[str, List[float]]):
    rects, knn, pm = queries
    with ctx.span("kernels.batch_range", "kernels"):
        t0 = time.perf_counter()
        ranges = kernel.batch_range(rects)
        t1 = time.perf_counter()
    with ctx.span("kernels.batch_knn", "kernels"):
        neighbours = kernel.batch_knn(knn, k=KNN_K)
        t2 = time.perf_counter()
    with ctx.span("kernels.batch_partial_match", "kernels"):
        partial = kernel.batch_partial_match(PM_AXES, pm)
        t3 = time.perf_counter()
    timings["range"].append(t1 - t0)
    timings["knn"].append(t2 - t1)
    timings["pm"].append(t3 - t2)
    return ranges, neighbours, partial


def _run_rounds(ctx: RunContext, built, seconds: float, first: int = 0):
    """Answer rounds until ``seconds`` have passed, each followed by one
    host-speed probe; the answers of the first ``GATE_ROUNDS`` are
    checked after the clock stops.  Returns the round times and the
    probe time after each."""
    timings: Dict[str, List[float]] = {"range": [], "knn": [], "pm": []}
    latencies: List[float] = []
    probe = HostProbe()
    nodes: List[float] = []
    to_check = []
    fresh_gc()
    began = time.perf_counter()
    index = first
    while time.perf_counter() - began < seconds:
        took = 0.0
        for kind, (_, points, kernel) in enumerate(built):
            queries = round_queries(ctx.seed, index * len(built) + kind,
                                    points)
            t0 = time.perf_counter()
            answers = _round(ctx, kernel, queries, timings)
            took += time.perf_counter() - t0
            nodes.extend(answers[2].nodes_visited.tolist())
            if index - first < GATE_ROUNDS:
                to_check.append((points, queries, answers))
        latencies.append(took)
        probe.run()
        index += 1
    checked = [check_round(*args) for args in to_check]
    return latencies, probe.times, timings, nodes, checked


def run_untraced(ctx: RunContext) -> dict:
    setups = []
    built = None
    probe = HostProbe()
    for _ in range(3):
        built = None
        fresh_gc()
        t0 = time.perf_counter()
        built, _ = build(ctx)
        setups.append(HostProbe.normalise(time.perf_counter() - t0,
                                          probe.median_of(SETUP_PROBES)))
    latencies, probes, _, _, checked = _run_rounds(ctx, built, ctx.seconds)
    normalised = [HostProbe.normalise(t, p) for t, p in zip(latencies, probes)]
    per_round = len(built) * 3 * BATCH
    queries = len(latencies) * per_round
    rss = tree_hwm_mb()
    return {
        "metrics": {
            "setup_s": median(setups),
            "p50_ms": median(normalised) * 1e3,
            "rate_per_s": queries / sum(normalised),
            "peak_rss_mb": rss,
        },
        "samples": {"setup_s": len(setups), "p50_ms": len(latencies),
                    "rate_per_s": queries, "peak_rss_mb": 1},
        "named": {"queries_per_s": queries / sum(latencies),
                  "failed_frac": 0.0,
                  "round_p50_raw_ms": median(latencies) * 1e3,
                  "round_p99_ms": quantile(normalised, 0.99) * 1e3,
                  "probe_p50_ms": median(probes) * 1e3,
                  "peak_rss_mb": rss},
        "attempted": queries,
        "failed": 0,
        "gates": {"answers_match_brute_force": bool(checked)
                  and all(checked)},
        "detail": {"setup_times_s": setups, "rounds": len(latencies)},
    }


def run_traced(ctx: RunContext) -> dict:
    built, took = build(ctx)
    half = ctx.seconds / 2
    base, _, _, _, checked_a = _run_rounds(ctx, built, half)
    with obs.tracing(Tracer()):
        rounds, _, timings, nodes, checked_b = _run_rounds(
            ctx, built, half, first=len(base))
    metrics = {
        "kernels.query_build_s":
            mean([took["build.uniform"], took["build.gaussian"]]),
        "workloads.generate_ms_per_trial.uniform":
            took["generate.uniform"] * 1e3,
        "workloads.generate_ms_per_trial.gaussian":
            took["generate.gaussian"] * 1e3,
        "kernels.range_us": median(timings["range"]) / BATCH * 1e6,
        "kernels.knn_us": median(timings["knn"]) / BATCH * 1e6,
        "kernels.pm_us": median(timings["pm"]) / BATCH * 1e6,
        "kernels.pm_nodes_visited": mean(nodes),
        "obs.tracing_overhead_frac": median(rounds) / median(base) - 1.0,
    }
    attempted = (len(base) + len(rounds)) * len(built) * 3 * BATCH
    return {
        "metrics": {k: finite_or_zero(v) for k, v in metrics.items()},
        "attempted": attempted,
        "failed": 0,
        "gates": {"answers_match_brute_force":
                  bool(checked_a) and all(checked_a + checked_b)},
    }
