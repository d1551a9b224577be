"""``trial-sweep``: the paper's Table 4 (uniform) and Table 5 (Gaussian)
phasing sweeps at the 13 paper sizes, m=8, through
``repro.runtime.execute`` on the vector engine with a worker pool.

One *pass* is the 26 experiment specs (2 distributions x 13 sizes) of
ten trials each -- reproducing both tables once; passes repeat with
fresh seeds until the run's time is up.  The latency reported is that
of a pass, normalised by host-speed probes run between its specs
(hostspeed.py).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.paper_data import PHASING_SIZES
from repro.kernels import vector_census
from repro.obs import Tracer
from repro.runtime import ExperimentSpec, MetricsCollector, RuntimeConfig, \
    execute, runtime_session

from harness import (
    RunContext, finite_or_zero, fresh_gc, mean, median, quantile,
    tree_cpu_s, tree_hwm_mb,
)
from hostspeed import HostProbe, mean_of_cpu_medians

CAPACITY = 8
TRIALS = 10
GENERATORS = ("uniform", "gaussian")
WORKERS = max(1, min(2, os.cpu_count() or 1))
SETUPS = 9
SETUP_PROBES = 3  # host-speed probes on each CPU after each set-up
#: The pool's workers run on every CPU, and the CPUs' speeds drift
#: apart, so the host-speed probe takes turns on each.
PROBE_CPUS = sorted(os.sched_getaffinity(0))


def pass_specs(seed: int, index: int) -> List[ExperimentSpec]:
    """The 26 specs of pass ``index``; seed blocks never overlap."""
    specs = []
    for g, generator in enumerate(GENERATORS):
        for i, n in enumerate(PHASING_SIZES):
            block = ((index * len(GENERATORS) + g) * len(PHASING_SIZES) + i)
            specs.append(ExperimentSpec(
                capacity=CAPACITY, n_points=n, trials=TRIALS,
                seed=seed * 10_000_000 + block * 1_000,
                generator=generator,
            ))
    return specs


def new_config(workers: int, tracer=None) -> RuntimeConfig:
    """A fresh runtime: no cache, no run database, a new autotuner."""
    return RuntimeConfig(workers=workers, engine="vector", use_cache=False,
                         db_path=None, tracer=tracer)


def _spin_up(stack: ExitStack, workers: int, seed: int,
             tracer=None) -> Tuple[RuntimeConfig, float]:
    """Open a runtime session, start its pool and warm both point
    generators with one small spec each.  Returns the session's config
    and the time taken, normalised to the reference host by the
    host-speed probes run after it."""
    began = time.perf_counter()
    config = stack.enter_context(runtime_session(new_config(workers, tracer)))
    for generator in GENERATORS:
        execute(ExperimentSpec(capacity=CAPACITY, n_points=512,
                               trials=TRIALS, seed=seed,
                               generator=generator), config)
    took = time.perf_counter() - began
    return config, HostProbe.normalise(took, HostProbe().across_cpus(
        SETUP_PROBES, PROBE_CPUS))


def _payload(result) -> str:
    return json.dumps(result.to_payload(), sort_keys=True)


def _run_passes(ctx: RunContext, config: RuntimeConfig, seconds: float,
                first_pass: int, span_name: str):
    """Execute whole passes, starting new ones until ``seconds`` have
    passed, with one host-speed probe after each spec, taking turns on
    each CPU.  Returns the per-spec latencies of each pass, the trials
    run, the seconds of each pass raw and normalised to the reference
    host, the CPU seconds each pass took (this process plus its pool
    workers, probes left out) normalised the same way, and every
    spec's result."""
    passes: List[List[float]] = []
    pass_times: List[float] = []
    pass_norm: List[float] = []
    pass_cpu: List[float] = []
    probe = HostProbe()
    trials = 0
    results: Dict[ExperimentSpec, object] = {}
    fresh_gc()
    began = time.perf_counter()
    index = first_pass
    while time.perf_counter() - began < seconds:
        passes.append([])
        probes: Dict[int, List[float]] = {cpu: [] for cpu in PROBE_CPUS}
        cpu_s = 0.0
        for i, spec in enumerate(pass_specs(ctx.seed, index)):
            with ctx.span(span_name, "runtime"):
                cpu0 = tree_cpu_s()
                t0 = time.perf_counter()
                results[spec] = execute(spec, config)
                passes[-1].append(time.perf_counter() - t0)
                cpu_s += tree_cpu_s() - cpu0
            cpu = PROBE_CPUS[i % len(PROBE_CPUS)]
            probes[cpu].append(probe.run_pinned(cpu))
            trials += spec.trials
        probe_s = mean_of_cpu_medians(probes)
        pass_times.append(sum(passes[-1]))
        pass_norm.append(HostProbe.normalise(pass_times[-1], probe_s))
        pass_cpu.append(HostProbe.normalise(cpu_s, probe_s))
        index += 1
    return passes, trials, pass_times, pass_norm, pass_cpu, results


def _gate(ctx: RunContext, results: Dict[ExperimentSpec, object]) -> bool:
    """A sampled spec's pooled census must be bit-identical to a
    serial run of the same spec."""
    specs = sorted(results, key=lambda s: s.seed)
    pick = specs[int(np.random.default_rng(ctx.seed).integers(len(specs)))]
    with runtime_session(new_config(1)) as serial:
        with ctx.span("gate.serial_execute", "runtime"):
            expected = execute(pick, serial)
    return _payload(expected) == _payload(results[pick])


def run_untraced(ctx: RunContext) -> dict:
    with ExitStack() as stack:
        setups = []
        for attempt in range(SETUPS - 1):
            with ExitStack() as discarded:
                setups.append(_spin_up(discarded, WORKERS, seed=attempt)[1])
        config, took = _spin_up(stack, WORKERS, seed=SETUPS - 1)
        setups.append(took)
        passes, trials, pass_times, pass_norm, pass_cpu, results = \
            _run_passes(ctx, config, ctx.seconds, 0, "runtime.execute")
        rss = tree_hwm_mb()
    gate = _gate(ctx, results)
    per_pass = len(pass_specs(ctx.seed, 0)) * TRIALS
    latencies = [t for one in passes for t in one]
    return {
        "metrics": {
            "setup_s": median(setups),
            # the user's unit of work: reproduce Tables 4 and 5 once,
            # on the reference host (hostspeed.py)
            "p50_ms": median(pass_norm) * 1e3,
            # trials per (normalised) CPU-second of this process and its
            # workers, per pass; a median over passes does not depend on
            # how many passes fit, nor on the chunk autotuner's first pass
            "rate_per_s": median([per_pass / c for c in pass_cpu]),
            "peak_rss_mb": rss,
        },
        "samples": {"setup_s": len(setups), "p50_ms": len(pass_times),
                    "rate_per_s": len(pass_times), "peak_rss_mb": 1},
        "named": {"trials_per_s": trials / sum(pass_times),
                  "failed_frac": 0.0,
                  "pass_p50_raw_ms": median(pass_times) * 1e3,
                  "spec_p90_ms": quantile(latencies, 0.90) * 1e3,
                  "peak_rss_mb": rss},
        "attempted": trials,
        "failed": 0,
        "gates": {"pool_census_matches_serial": gate},
        "workers": WORKERS,
        "detail": {"setup_times_s": setups, "pass_times_s": pass_times,
                   "pass_norm_s": pass_norm, "pass_cpu_norm_s": pass_cpu},
    }


def _layer_times(ctx: RunContext) -> Dict[str, float]:
    """Point generation and the census kernel, timed per trial from
    outside, over one pass's trials."""
    gen_ms: Dict[str, List[float]] = {g: [] for g in GENERATORS}
    census_ms: List[float] = []
    for spec in pass_specs(ctx.seed, 0):
        for trial in range(spec.trials):
            generator = spec.make_generator(trial)
            with ctx.span("workloads.generate_array", "workloads"):
                t0 = time.perf_counter()
                points = generator.generate_array(spec.n_points)
                gen_ms[spec.generator].append(
                    (time.perf_counter() - t0) * 1e3)
            with ctx.span("kernels.vector_census", "kernels"):
                t0 = time.perf_counter()
                vector_census(points, spec.capacity)
                census_ms.append((time.perf_counter() - t0) * 1e3)
    return {
        "workloads.generate_ms_per_trial.uniform": mean(gen_ms["uniform"]),
        "workloads.generate_ms_per_trial.gaussian": mean(gen_ms["gaussian"]),
        "kernels.census_ms_per_trial": mean(census_ms),
    }


def run_traced(ctx: RunContext) -> dict:
    metrics: Dict[str, float] = {}
    share = ctx.seconds / 3
    with ExitStack() as stack:
        config, _ = _spin_up(stack, WORKERS, seed=0)
        _, base_trials, base_times, _, _, _ = _run_passes(
            ctx, config, share, 0, "runtime.execute.untraced")
    tracer = Tracer()
    with ExitStack() as stack:
        config, _ = _spin_up(stack, WORKERS, seed=0, tracer=tracer)
        # the spin-up specs are not part of the measured sweep
        config.collector = MetricsCollector()
        _, trials, times, _, _, results = _run_passes(
            ctx, config, share, 0, "runtime.execute.traced")
        report = config.report()
    with runtime_session(new_config(1)) as serial:
        _, serial_trials, serial_times, _, _, _ = _run_passes(
            ctx, serial, share, 0, "runtime.execute.serial")
    gate = _gate(ctx, results)
    gauges = tracer.gauges
    base_rate = base_trials / sum(base_times)
    serial_rate = serial_trials / sum(serial_times)
    metrics.update({
        "runtime.worker_busy_frac":
            gauges["pool.worker.busy_fraction"].mean
            if "pool.worker.busy_fraction" in gauges else 0.0,
        "runtime.straggler_ratio":
            gauges["pool.straggler_ratio"].mean
            if "pool.straggler_ratio" in gauges else 0.0,
        "runtime.chunks": float(len(report.chunks)),
        "runtime.retries": float(report.retries),
        "runtime.serial_trials_per_s": serial_rate,
        "runtime.pool_speedup": base_rate / serial_rate,
        "obs.tracing_overhead_frac":
            (base_rate / (trials / sum(times))) - 1.0,
    })
    metrics.update(_layer_times(ctx))
    return {
        "metrics": {k: finite_or_zero(v) for k, v in metrics.items()},
        "attempted": base_trials + trials + serial_trials,
        "failed": 0,
        "gates": {"pool_census_matches_serial": gate},
        "workers": WORKERS,
    }
