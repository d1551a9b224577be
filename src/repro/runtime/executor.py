"""The trial-execution engine: chunked, parallel, cached, measured.

``execute(spec)`` is the one entry point.  It answers an
:class:`~repro.runtime.spec.ExperimentSpec` with a :class:`TrialResult`,
taking the fastest correct path available:

1. **cache** — if the active config enables caching and a valid entry
   exists, no tree is built at all;
2. **process pool** — with ``workers > 1`` the trial range is split
   into chunks and fanned out over a pool of **persistent workers**
   (one ``ProcessPoolExecutor`` per :func:`runtime_session`, not one
   per call).  A submission carries only the spec and a trial range:
   each worker draws its chunk's points from the seed stream itself
   and runs the same trial loop as the serial path
   (:func:`build_trials`) — on the vector engine one batched kernel
   call per chunk (:func:`repro.kernels.vector_census_batch`) — so the
   coordinator only plans, submits and merges.  A failed chunk is
   retried once in the pool; a **broken** pool (worker crash) sends
   the failed chunk and every surviving future straight to in-process
   rescue — no futile resubmissions.  If the pool cannot be created at
   all (sandboxed platform without ``fork``/semaphores) the whole run
   degrades to in-process execution rather than failing.  Traced runs
   give every worker its own :class:`~repro.obs.Tracer`; the snapshots
   ride home with each chunk and merge into the coordinator's report
   as ``worker.N`` subtrees plus utilization gauges (busy fraction per
   worker, straggler ratio, rescue fraction), and each chunk's
   transport shows as ``pool.dispatch`` (submit → worker start) and
   ``pool.collect`` (worker end → result in hand).  Those same
   utilization numbers feed a
   :class:`~repro.runtime.autotune.ChunkAutotuner` that adapts the
   default chunk size run over run;
3. **serial** — ``workers <= 1`` runs the same trial loop in-process
   with zero pool overhead.

Every path preserves the harness's seed-stream contract: trial ``t``
uses generator seed ``spec.seed + t``, and partial results merge in
trial order, so parallel results are bit-identical to serial ones (see
``tests/test_runtime_parity.py``).

Configuration travels either explicitly (pass a :class:`RuntimeConfig`)
or ambiently via :func:`runtime_session`, which the CLI and the
benchmark suite use so deep call stacks need no new parameters.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..geometry import Rect
from ..obs import Tracer
from ..quadtree import CensusAccumulator, DepthCensus, PRQuadtree
from .autotune import ChunkAutotuner, PoolRunStats
from .cache import ResultCache
from .metrics import MetricsCollector
from .spec import ExperimentSpec


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class TrialResult:
    """Everything a spec's trials measured, in mergeable form."""

    capacity: int
    accumulator: CensusAccumulator
    depth_censuses: List[DepthCensus] = field(default_factory=list)
    area_occupancy: List[Tuple[float, int]] = field(default_factory=list)

    @classmethod
    def empty(cls, capacity: int) -> "TrialResult":
        """A zero-trial result to merge partials into."""
        return cls(capacity=capacity, accumulator=CensusAccumulator(capacity))

    @property
    def trials(self) -> int:
        """Trials folded in so far."""
        return self.accumulator.trials

    def merge(self, other: "TrialResult") -> None:
        """Fold another partial result in (callers merge in trial order
        so collected lists line up with the serial path)."""
        if other.capacity != self.capacity:
            raise ValueError(
                f"capacity mismatch: {other.capacity} vs {self.capacity}"
            )
        self.accumulator.merge(other.accumulator)
        self.depth_censuses.extend(other.depth_censuses)
        self.area_occupancy.extend(other.area_occupancy)

    # -- serialization (cache entries, worker transport) ---------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready representation; exact under a JSON round trip
        (counts are integer-valued floats, areas round-trip via repr)."""
        return {
            "count_sums": list(self.accumulator.count_sums),
            "trials": self.trials,
            "depth_censuses": [
                {
                    "capacity": census.capacity,
                    "by_depth": {
                        str(depth): list(row)
                        for depth, row in census.by_depth.items()
                    },
                }
                for census in self.depth_censuses
            ],
            "area_occupancy": [[a, o] for a, o in self.area_occupancy],
        }

    @classmethod
    def from_payload(
        cls, spec: ExperimentSpec, payload: Dict[str, Any]
    ) -> "TrialResult":
        """Rebuild a result for ``spec``; raises ``ValueError`` (or
        ``KeyError``/``TypeError`` from malformed shapes) when the
        payload cannot be the answer to ``spec``."""
        count_sums = [float(x) for x in payload["count_sums"]]
        if len(count_sums) != spec.capacity + 1:
            raise ValueError("count_sums length does not match capacity")
        trials = int(payload["trials"])
        if trials != spec.trials:
            raise ValueError("stored trial count does not match spec")
        censuses = []
        for item in payload["depth_censuses"]:
            capacity = int(item["capacity"])
            if capacity != spec.capacity:
                raise ValueError("depth census capacity mismatch")
            by_depth = {}
            for depth, row in item["by_depth"].items():
                counts = tuple(int(c) for c in row)
                if len(counts) != capacity + 1:
                    raise ValueError("depth census row length mismatch")
                by_depth[int(depth)] = counts
            censuses.append(DepthCensus(by_depth, capacity))
        area = [(float(a), int(o)) for a, o in payload["area_occupancy"]]
        return cls(
            capacity=spec.capacity,
            accumulator=CensusAccumulator(
                spec.capacity, _count_sums=count_sums, _trials=trials
            ),
            depth_censuses=censuses,
            area_occupancy=area,
        )


@dataclass
class ChunkOutcome:
    """What one chunk of trials produced (picklable worker return)."""

    start: int
    trials: int
    payload: Dict[str, Any]
    #: ``time.perf_counter()`` when the chunk began and ended in its
    #: worker.  The clock is CLOCK_MONOTONIC, shared by every process on
    #: Linux, so the coordinator can set these against its own submit
    #: and receive stamps (``pool.dispatch`` / ``pool.collect``).
    began: float
    ended: float
    #: worker process id — chunks from the same pool worker share one,
    #: which is how the coordinator groups per-worker telemetry
    pid: int = 0
    #: the worker-local tracer's ``to_dict()`` snapshot, when the
    #: coordinating run was traced (``None`` otherwise)
    trace: Optional[Dict[str, Any]] = None

    @property
    def wall_time(self) -> float:
        """Seconds the chunk took where it ran."""
        return self.ended - self.began


# ----------------------------------------------------------------------
# the work itself (module-level so it pickles to worker processes)
# ----------------------------------------------------------------------


ENGINES = ("object", "vector")

#: Most points one batched kernel call censuses.  A chunk larger than
#: this runs as several batches, so a long serial run's memory stays
#: bounded by the batch, not by its trial count.
BATCH_POINTS = 1 << 20


def build_trials(
    spec: ExperimentSpec, start: int, count: int, engine: str = "object"
) -> TrialResult:
    """Run trials ``start .. start+count-1`` of ``spec`` in-process.

    This is *the* trial loop — serial execution, pool workers and
    in-process rescue all funnel through it, so the seed contract lives
    in exactly one place: trial ``t`` draws its points from
    ``spec.make_generator(t)``.  ``engine`` picks how each trial's
    census is computed: ``"object"`` builds a real :class:`PRQuadtree`
    per trial from ``generate`` (the parity oracle, and the only engine
    that can enumerate leaf rectangles); ``"vector"`` draws the chunk's
    points with ``generate_array`` (bit-identical to ``generate``) and
    censuses the whole chunk in one batched kernel call
    (:func:`repro.kernels.vector_census_batch`) — bit-identical
    censuses, no tree.  Specs that collect leaf areas use the object
    engine regardless, since the kernel has no blocks to measure.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    result = TrialResult.empty(spec.capacity)
    if engine == "vector" and not spec.collect_area:
        step = max(1, BATCH_POINTS // max(1, spec.n_points))
        stop = start + count
        for first in range(start, stop, step):
            _census_batch(spec, range(first, min(first + step, stop)), result)
        return result
    bounds = spec.bounds_rect()
    for trial in range(start, start + count):
        generator = spec.make_generator(trial)
        _object_trial(spec, bounds, generator.generate(spec.n_points), result)
    return result


def _object_trial(
    spec: ExperimentSpec,
    bounds: Optional[Rect],
    points: Any,
    result: TrialResult,
) -> None:
    """One object-engine trial: build the tree, fold its censuses in."""
    with obs.span("trial.build"):
        tree = PRQuadtree(
            capacity=spec.capacity, bounds=bounds, max_depth=spec.max_depth
        )
        tree.insert_many(points)
    with obs.span("trial.census"):
        result.accumulator.add(tree.occupancy_census())
        if spec.collect_depth:
            result.depth_censuses.append(tree.depth_census())
        if spec.collect_area:
            result.area_occupancy.extend(
                (rect.volume, min(occ, spec.capacity))
                for rect, _, occ in tree.leaves()
            )
    if obs.enabled():
        # structural signals the tree counted for free during the
        # build (pool workers record them into their own tracer,
        # which the coordinator merges back after the pool drains)
        obs.count("tree.built")
        obs.count("tree.splits", tree.split_count)
        obs.count("tree.replace_scans", tree.replace_scans)
        obs.gauge("tree.max_depth", tree.max_depth_reached)


def _census_batch(
    spec: ExperimentSpec, trials: range, result: TrialResult
) -> None:
    """Draw ``trials``' points and census them in one kernel call.

    Spans keep the object loop's names (``trial.build`` around the
    kernel, ``trial.census`` around the fold) so worker subtrees stay
    comparable across engines — but each appears once per *batch* here,
    after a ``trial.generate`` span for the draw.
    """
    from ..kernels import vector_census_batch

    # the object tree defaults omitted bounds to the unit square
    bounds = spec.bounds_rect() or Rect.unit(2)
    with obs.span("trial.generate"):
        arrays = np.stack([
            spec.make_generator(trial).generate_array(spec.n_points)
            for trial in trials
        ])
    with obs.span("trial.build"):
        partitions = vector_census_batch(
            arrays,
            spec.capacity,
            bounds=bounds,
            dim=bounds.dim,
            max_depth=spec.max_depth,
        )
    with obs.span("trial.census"):
        for partition in partitions:
            result.accumulator.add(partition.occupancy_census())
            if spec.collect_depth:
                result.depth_censuses.append(partition.depth_census())


def _run_chunk(
    spec: ExperimentSpec,
    start: int,
    count: int,
    engine: str = "object",
    traced: bool = False,
) -> ChunkOutcome:
    """Worker entry point: run one chunk, return a picklable outcome.

    The worker draws the chunk's points itself from the seed stream, so
    a submission carries only the spec and the trial range.  With
    ``traced=True`` (the coordinator's run was traced) the chunk runs
    under its own worker-local :class:`Tracer` and ships the snapshot
    home in the outcome; the coordinator merges per-worker snapshots
    into ``worker.N`` subtrees (see ``_merge_worker_traces``).
    """
    began = time.perf_counter()
    trace: Optional[Dict[str, Any]] = None
    if traced:
        tracer = Tracer()
        with obs.tracing(tracer):
            result = build_trials(spec, start, count, engine)
        trace = tracer.to_dict()
    else:
        result = build_trials(spec, start, count, engine)
    payload = result.to_payload()
    return ChunkOutcome(
        start=start,
        trials=count,
        payload=payload,
        began=began,
        ended=time.perf_counter(),
        pid=os.getpid(),
        trace=trace,
    )


def plan_chunks(
    trials: int, workers: int, chunk_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``trials`` into contiguous ``(start, count)`` chunks.

    Defaults to ~4 chunks per worker so slow chunks load-balance, while
    keeping per-chunk scheduling overhead amortized over several trees.
    A runt tail (smaller than half ``chunk_size``) merges into the
    previous chunk — a 1–2-trial straggler can't amortize its
    scheduling cost, and the merged chunk stays under 1.5×
    ``chunk_size``.  Plans always cover ``0..trials`` exactly, in
    order, without overlap (property-tested).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size is None:
        # one chunk per serial run; otherwise ~4 chunks per worker
        chunk_size = trials if workers == 1 \
            else max(1, -(-trials // (workers * 4)))
    elif chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = [
        (start, min(chunk_size, trials - start))
        for start in range(0, trials, chunk_size)
    ]
    if len(chunks) >= 2 and chunks[-1][1] * 2 < chunk_size:
        start, count = chunks[-2]
        chunks[-2] = (start, count + chunks[-1][1])
        chunks.pop()
    return chunks


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


class PersistentPool:
    """One ``ProcessPoolExecutor`` kept warm across ``execute`` calls.

    The old pool path paid worker spawn + interpreter import on every
    ``_execute_fresh`` — often more than the trials themselves.  A
    session now owns one of these: :meth:`acquire` returns the live
    pool, recreating it only when the requested width changes or a
    worker crash marked it broken.  ``runtime_session`` tears it down
    on exit; ad-hoc configs (an ``execute`` call outside any session)
    still get a per-call pool, so nothing leaks.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._broken = False

    def acquire(self, workers: int) -> ProcessPoolExecutor:
        """The live pool at ``workers`` width (created or recreated as
        needed; raises ``OSError`` where pool creation is impossible,
        which ``_execute_fresh`` turns into a degraded serial run)."""
        if self._pool is not None and (
            self._broken or self._workers != workers
        ):
            self.shutdown()
        if self._pool is None:
            # the module-global name, so tests can stub pool creation
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._workers = workers
            self._broken = False
        return self._pool

    def mark_broken(self) -> None:
        """Note a worker crash; the next :meth:`acquire` recreates."""
        self._broken = True

    @property
    def is_live(self) -> bool:
        """Whether a usable pool currently exists."""
        return self._pool is not None and not self._broken

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._broken = False


@dataclass
class RuntimeConfig:
    """How the engine should run: width, caching, instrumentation."""

    workers: int = 1
    use_cache: bool = False
    cache_dir: Union[str, None] = None
    chunk_size: Optional[int] = None
    verbose: bool = False
    #: Let pool-utilization telemetry adapt the default chunk size
    #: between runs (explicit ``chunk_size`` always wins).
    autotune: bool = True
    #: Census engine: ``"object"`` builds real trees, ``"vector"`` runs
    #: the Morton-code kernel.  Deliberately part of the runtime config,
    #: not the :class:`ExperimentSpec` — engines are bit-identical, so
    #: the choice is about *how* to execute, not *what* experiment it
    #: is, and cached results stay shared between engines.
    engine: str = "object"
    collector: MetricsCollector = field(default_factory=MetricsCollector)
    #: Optional span/counter/gauge tracer.  ``runtime_session`` and
    #: ``execute`` install it as the ambient :mod:`repro.obs` tracer, so
    #: setting it turns on structured instrumentation for the whole run.
    tracer: Optional[Tracer] = None
    #: Run-database path (see :mod:`repro.rundb`).  ``None`` (the
    #: default) records nothing — library and test use stays free of
    #: side effects; the CLI opts in via ``rundb.resolve_db_path``.
    #: With a path set, every ``execute()`` is buffered and the session
    #: flushes one run row at exit, and the chunk autotuner loads/saves
    #: its locked-in sizes keyed by (engine, n, workers).
    db_path: Union[str, Path, None] = None
    #: Label stamped on the recorded run (e.g. the CLI command name).
    db_label: Optional[str] = None
    _cache: Optional[ResultCache] = field(
        default=None, repr=False, compare=False
    )
    _pool: Optional[PersistentPool] = field(
        default=None, repr=False, compare=False
    )
    _autotuner: Optional[ChunkAutotuner] = field(
        default=None, repr=False, compare=False
    )
    _recorder: Optional[Any] = field(
        default=None, repr=False, compare=False
    )
    _fallback_noted: bool = field(default=False, repr=False, compare=False)

    def result_cache(self) -> ResultCache:
        """The configured cache (constructed lazily, then reused)."""
        if self._cache is None:
            self._cache = ResultCache(self.cache_dir)
        return self._cache

    def persistent_pool(self) -> PersistentPool:
        """This config's pool holder (constructed lazily, then reused)."""
        if self._pool is None:
            self._pool = PersistentPool()
        return self._pool

    def autotuner(self) -> ChunkAutotuner:
        """This config's chunk autotuner (lazy, persists across runs).
        With a run DB configured it loads/saves locked-in sizes keyed
        by (engine, n, workers), so sessions stop relearning."""
        if self._autotuner is None:
            store = None
            if self.db_path is not None:
                from ..rundb.recorder import AutotuneStore
                store = AutotuneStore(self.db_path)
            self._autotuner = ChunkAutotuner(store=store)
        return self._autotuner

    def recorder(self):
        """This config's session recorder, or ``None`` when no run DB
        is configured (lazy; flushed by ``runtime_session`` exit)."""
        if self.db_path is None:
            return None
        if self._recorder is None:
            from ..rundb.recorder import SessionRecorder
            self._recorder = SessionRecorder(
                self.db_path, label=self.db_label
            )
        return self._recorder

    def flush_recording(self) -> None:
        """Write any buffered session record (safe to call always)."""
        if self._recorder is not None:
            self._recorder.flush(self)

    def shutdown_pool(self) -> None:
        """Stop any persistent workers (safe when none were started)."""
        if self._pool is not None:
            self._pool.shutdown()

    def report(self):
        """The collector's current RunReport, carrying the tracer's
        span tree when instrumentation recorded anything.  Traced runs
        also get the run-end ``cache.hit_ratio`` gauge here — the last
        observation is always the whole run's ratio."""
        report = self.collector.report()
        if self.tracer is not None and not self.tracer.is_empty():
            if report.runs:
                self.tracer.gauge("cache.hit_ratio", report.cache_hit_ratio)
            report.trace = self.tracer
        return report


_ACTIVE: List[RuntimeConfig] = []


def active_config() -> Optional[RuntimeConfig]:
    """The innermost runtime session's config, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def runtime_session(
    config: Optional[RuntimeConfig] = None, **kwargs
) -> Iterator[RuntimeConfig]:
    """Install ``config`` (or ``RuntimeConfig(**kwargs)``) as the
    ambient runtime for the dynamic extent of the ``with`` block.

    Sessions nest; the innermost wins.  The CLI wraps each command in
    one so every ``run_trials`` call under it inherits ``--workers``
    and the cache settings without signature changes down the stack.
    A session also scopes the persistent worker pool: the first pooled
    ``execute`` under it spins the workers up, later ones reuse them,
    and session exit shuts them down.
    """
    if config is None:
        config = RuntimeConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config object or kwargs, not both")
    _ACTIVE.append(config)
    try:
        if config.tracer is not None:
            with obs.tracing(config.tracer):
                yield config
        else:
            yield config
    finally:
        _ACTIVE.pop()
        if not any(config is entry for entry in _ACTIVE):
            config.shutdown_pool()
            config.flush_recording()


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def execute(
    spec: ExperimentSpec, config: Optional[RuntimeConfig] = None
) -> TrialResult:
    """Answer ``spec``: from cache if possible, else by building trees
    (in parallel when the config asks for it), recording metrics either
    way."""
    if config is None:
        config = active_config() or RuntimeConfig()
    if config.tracer is not None and obs.active_tracer() is not config.tracer:
        # direct execute() call outside a runtime_session: the config's
        # tracer still sees the run
        with obs.tracing(config.tracer):
            return _execute(spec, config)
    return _execute(spec, config)


def _execute(spec: ExperimentSpec, config: RuntimeConfig) -> TrialResult:
    if config.engine not in ENGINES:
        raise ValueError(
            f"unknown engine {config.engine!r}; expected one of {ENGINES}"
        )
    collector = config.collector
    collector.record_workers(max(1, config.workers))
    began = time.perf_counter()
    try:
        with obs.span("runtime.execute"):
            cache = config.result_cache() if config.use_cache else None
            result: Optional[TrialResult] = None
            if cache is not None:
                payload = cache.load(spec)
                if payload is not None:
                    try:
                        result = TrialResult.from_payload(spec, payload)
                    except (KeyError, TypeError, ValueError):
                        result = None  # malformed entry: treat as a miss
            if result is not None:
                collector.record_cache_hit()
                _note_execution(config, spec, result, True, began)
                return result
            collector.record_cache_miss()
            with obs.span("runtime.build"):
                result = _execute_fresh(spec, config, collector)
            if cache is not None:
                cache.store(spec, result.to_payload())
            _note_execution(config, spec, result, False, began)
            return result
    finally:
        collector.add_wall_time(time.perf_counter() - began)


def _note_execution(
    config: RuntimeConfig,
    spec: ExperimentSpec,
    result: TrialResult,
    cache_hit: bool,
    began: float,
) -> None:
    """Buffer one execution into the config's session recorder (no-op
    without a configured run DB; pure in-memory append with one)."""
    recorder = config.recorder()
    if recorder is not None:
        recorder.note_execution(
            spec, result, config.engine, config.workers, cache_hit,
            time.perf_counter() - began,
        )


def _execute_fresh(
    spec: ExperimentSpec, config: RuntimeConfig, collector: MetricsCollector
) -> TrialResult:
    if config.engine == "vector" and spec.collect_area:
        # the kernel has no blocks to measure: this spec silently used
        # the object engine before — now it says so
        obs.count("runtime.engine_fallback")
        if config.verbose and not config._fallback_noted:
            config._fallback_noted = True
            print(
                "note: engine 'vector' cannot collect leaf areas; "
                "running these trials on the object engine",
                file=sys.stderr,
            )
    workers = max(1, config.workers)
    chunk_size = config.chunk_size
    if chunk_size is None and config.autotune and workers > 1:
        chunk_size = config.autotuner().suggest(
            spec.trials, workers, key=(config.engine, spec.n_points)
        )
    chunks = plan_chunks(spec.trials, workers, chunk_size)
    if workers <= 1 or len(chunks) <= 1:
        return _run_serial(spec, chunks, collector, config.engine)
    try:
        outcomes = _run_pool(spec, chunks, workers, collector, config)
    except OSError:
        # pool could not be created at all (no semaphores / no fork):
        # degrade the entire run to in-process execution
        return _run_serial(
            spec, chunks, collector, config.engine, mode="degraded"
        )
    return _merge_outcomes(spec, outcomes)


def _run_serial(
    spec: ExperimentSpec,
    chunks: List[Tuple[int, int]],
    collector: MetricsCollector,
    engine: str = "object",
    mode: str = "serial",
) -> TrialResult:
    result = TrialResult.empty(spec.capacity)
    if mode == "degraded":
        obs.count("runtime.degraded")
    for start, count in chunks:
        began = time.perf_counter()
        with obs.span(f"chunk.{mode}"):
            result.merge(build_trials(spec, start, count, engine))
        collector.record_chunk(count, time.perf_counter() - began, mode)
    return result


def _run_pool(
    spec: ExperimentSpec,
    chunks: List[Tuple[int, int]],
    workers: int,
    collector: MetricsCollector,
    config: RuntimeConfig,
) -> List[ChunkOutcome]:
    """Fan chunks over the (persistent) process pool; workers draw their
    own points.  A failed chunk is retried once in the pool, then
    rescued in-process.  A broken pool (worker crash) short-circuits
    every surviving future straight to the rescue list — no
    resubmissions to a dead pool, no inflated retry counts.  Only raises
    if a chunk fails even in-process (a genuine bug, not a pool issue).
    """
    engine = config.engine
    # configs installed by runtime_session keep their pool warm across
    # execute() calls; ad-hoc configs get a per-call pool so direct
    # execute(spec, config) use can't leak worker processes
    persistent = any(config is entry for entry in _ACTIVE)
    if persistent:
        pool = config.persistent_pool().acquire(workers)
    else:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))

    outcomes: List[ChunkOutcome] = []
    rescued: List[Tuple[int, int]] = []
    traced = obs.enabled()
    broken = False
    # coordinator-side stamps per future: when it was submitted and
    # when its result arrived (set by the pool's result thread)
    submitted: Dict[Any, float] = {}
    arrived: Dict[Any, float] = {}
    delivered: List[Tuple[ChunkOutcome, Any]] = []

    def _mark_broken() -> None:
        nonlocal broken
        broken = True
        obs.count("runtime.pool_broken")
        if persistent:
            config.persistent_pool().mark_broken()

    def _submit(start: int, count: int) -> Any:
        at = time.perf_counter()
        future = pool.submit(_run_chunk, spec, start, count, engine, traced)
        submitted[future] = at
        future.add_done_callback(
            lambda done: arrived.__setitem__(done, time.perf_counter())
        )
        return future

    try:
        pool_began = time.perf_counter()
        futures: List[Tuple[int, int, Any]] = []
        for start, count in chunks:
            if broken:
                rescued.append((start, count))
                continue
            try:
                futures.append((start, count, _submit(start, count)))
            except BrokenProcessPool:
                _mark_broken()
                rescued.append((start, count))
        for start, count, future in futures:
            if broken:
                # a dead pool fails every surviving future; send them
                # straight to rescue instead of burning retries
                rescued.append((start, count))
                continue
            try:
                outcome = future.result()
            except BrokenProcessPool:
                _mark_broken()
                rescued.append((start, count))
                continue
            except Exception:
                collector.record_retry()
                obs.count("runtime.retry")
                try:
                    future = _submit(start, count)
                    outcome = future.result()
                except BrokenProcessPool:
                    _mark_broken()
                    rescued.append((start, count))
                    continue
                except Exception:
                    rescued.append((start, count))
                    continue
            outcomes.append(outcome)
            delivered.append((outcome, future))
            collector.record_chunk(outcome.trials, outcome.wall_time, "pool")
            # pool chunks time themselves in the worker; fold the
            # measured duration into the coordinator's span tree
            obs.record("chunk.pool", outcome.wall_time)
        pool_elapsed = time.perf_counter() - pool_began

        rescue_s = 0.0
        for start, count in rescued:
            obs.count("runtime.degraded")
            began = time.perf_counter()
            with obs.span("chunk.degraded"):
                result = build_trials(spec, start, count, engine)
            ended = time.perf_counter()
            outcomes.append(
                ChunkOutcome(
                    start=start,
                    trials=count,
                    payload=result.to_payload(),
                    began=began,
                    ended=ended,
                )
            )
            collector.record_chunk(count, ended - began, "degraded")
            rescue_s += ended - began

        if traced:
            _record_transport(delivered, submitted, arrived)
            _merge_worker_traces(outcomes, pool_elapsed)
            total = pool_elapsed + rescue_s
            obs.gauge(
                "pool.rescue_fraction",
                rescue_s / total if rescued and total > 0.0 else 0.0,
            )
        if config.autotune:
            config.autotuner().observe(
                _pool_run_stats(
                    chunks, outcomes, workers, pool_elapsed, rescue_s,
                    bool(rescued),
                ),
                key=(engine, spec.n_points),
            )
    finally:
        if not persistent:
            pool.shutdown(wait=True)
    return outcomes


def _record_transport(
    delivered: List[Tuple[ChunkOutcome, Any]],
    submitted: Dict[Any, float],
    arrived: Dict[Any, float],
) -> None:
    """Record each pool chunk's transport cost around its worker time.

    ``pool.dispatch`` runs from the moment the chunk could start — its
    submission, or the end of the previous chunk on the same worker if
    that came later — to the worker's start stamp: pickling, queueing
    and wake-up, not time spent waiting behind a busy worker.
    ``pool.collect`` runs from the worker's end stamp to the result's
    arrival in the coordinator: result pickling and the trip home.
    """
    previous_end: Dict[int, float] = {}
    for outcome, future in sorted(delivered, key=lambda d: d[0].began):
        ready = max(
            submitted[future], previous_end.get(outcome.pid, float("-inf"))
        )
        previous_end[outcome.pid] = outcome.ended
        obs.record("pool.dispatch", outcome.began - ready)
        # done-callbacks run just after the result is set, so a stamp
        # can still be missing when the last result was only just read
        if future in arrived:
            obs.record("pool.collect", arrived[future] - outcome.ended)


def _pool_run_stats(
    chunks: List[Tuple[int, int]],
    outcomes: List[ChunkOutcome],
    workers: int,
    pool_elapsed: float,
    rescue_s: float,
    had_rescues: bool,
) -> PoolRunStats:
    """Utilization summary of one pool run for the chunk autotuner.

    Computed from chunk wall times and worker pids, so it works on
    untraced runs too (rescued chunks carry ``pid=0`` and count only
    toward the rescue fraction, never toward worker busy time).
    """
    busy_by_pid: Dict[int, float] = {}
    for outcome in outcomes:
        if outcome.pid:
            busy_by_pid[outcome.pid] = (
                busy_by_pid.get(outcome.pid, 0.0) + outcome.wall_time
            )
    mean_busy_fraction = 0.0
    straggler_ratio = 1.0
    if busy_by_pid and pool_elapsed > 0.0:
        busy = list(busy_by_pid.values())
        mean_busy = sum(busy) / len(busy)
        mean_busy_fraction = mean_busy / pool_elapsed
        if mean_busy > 0.0:
            straggler_ratio = max(busy) / mean_busy
    total = pool_elapsed + rescue_s
    return PoolRunStats(
        workers=workers,
        chunk_size=chunks[0][1],
        chunk_count=len(chunks),
        pool_elapsed=pool_elapsed,
        mean_busy_fraction=mean_busy_fraction,
        straggler_ratio=straggler_ratio,
        rescue_fraction=rescue_s / total if had_rescues and total > 0.0
        else 0.0,
    )


def _merge_worker_traces(
    outcomes: List[ChunkOutcome], pool_elapsed: float
) -> None:
    """Graft pool-worker telemetry onto the ambient tracer.

    Chunk outcomes carry their worker's tracer snapshot and pid; chunks
    from the same pid merge into one per-worker view, mounted under the
    open coordinator span as ``worker.0 .. worker.k-1`` (pids sorted,
    so numbering is stable for a given run).  Each worker's subtree is
    its true span tree — ``trial.build`` / ``trial.census`` timings and
    ``tree.*`` / ``kernel.*`` / ``storage.pool.*`` counters recorded in
    the worker process, not synthesized by the coordinator.  Utilization
    lands in gauges: ``pool.worker.busy_fraction`` (one observation per
    worker: busy seconds / pool wall seconds) and ``pool.straggler_ratio``
    (slowest worker's busy time over the mean — 1.0 is a perfectly
    balanced pool).
    """
    tracer = obs.active_tracer()
    if tracer is None:
        return
    by_pid: Dict[int, List[ChunkOutcome]] = {}
    for outcome in outcomes:
        if outcome.trace is not None:
            by_pid.setdefault(outcome.pid, []).append(outcome)
    if not by_pid:
        return
    busy_times: List[float] = []
    for index, pid in enumerate(sorted(by_pid)):
        group = by_pid[pid]
        merged = Tracer()
        for outcome in group:
            merged.merge(Tracer.from_dict(outcome.trace))
        busy = sum(outcome.wall_time for outcome in group)
        busy_times.append(busy)
        tracer.graft(
            f"worker.{index}", merged, count=len(group), total=busy
        )
        if pool_elapsed > 0.0:
            obs.gauge("pool.worker.busy_fraction", busy / pool_elapsed)
    obs.gauge("pool.workers_used", float(len(by_pid)))
    mean_busy = sum(busy_times) / len(busy_times)
    if mean_busy > 0.0:
        obs.gauge("pool.straggler_ratio", max(busy_times) / mean_busy)


def _merge_outcomes(
    spec: ExperimentSpec, outcomes: List[ChunkOutcome]
) -> TrialResult:
    """Combine chunk outcomes *in trial order* so collected lists match
    the serial path element for element."""
    result = TrialResult.empty(spec.capacity)
    for outcome in sorted(outcomes, key=lambda o: o.start):
        partial_spec = spec.with_trials(outcome.trials)
        result.merge(TrialResult.from_payload(partial_spec, outcome.payload))
    return result
