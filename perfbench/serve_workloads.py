"""The two serve workloads: a real ``repro serve start`` child process
driven open-loop over one connection.

Untraced runs start the server with ``--no-trace``; the end-to-end
numbers come from the client.  Traced runs start one untraced server
for a short reference phase (the tracing-overhead baseline), then a
traced one, poll its ``metrics`` op before and after the timed phase,
and replay the phase's operations through the program's layers in
process (storage, WAL, protocol) to time each from outside.
"""

from __future__ import annotations

import asyncio
import math
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import AsyncIterator, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.population import PopulationModel
from repro.geometry import Point, Rect
from repro.obs import Histogram
from repro.quadtree.pr import PRQuadtree
from repro.service import WriteAheadLog, open_state, wal_path_for
from repro.service.loadgen import ServiceClient
from repro.service.protocol import decode_payload, encode_frame
from repro.service.wal import OP_DELETE, OP_INSERT
from repro.storage.bulkload import bulk_load_paged
from repro.storage.paged_tree import PagedPRQuadtree
from repro.workloads import UniformPoints

from harness import (
    RunContext, client_gc_paused, finite_or_zero, mean, min_window_median,
    process_cpu_s, median, quantile, vm_hwm_mb,
)
from hostspeed import HostProbe
from openloop import OpenLoopClient, PhaseResult, Request, \
    poisson_arrivals, ramp_arrivals, sustained_rate

POOL_PAGES = 256
COMMIT_INTERVAL_S = 0.002
MAX_BATCH = 512
CHECKPOINT_EVERY = 50000
DIM = 2
RANGE_SIDE = 0.1
K = 3
WARMUP_S = 0.5
#: range and k-nearest queries whose answers the gates check
GATE_READS = 16

#: With two or more CPUs the load generator and the server each get
#: their own: left to the scheduler, the two ping-ponging processes are
#: often woken onto one CPU, and a run then measures that contention.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(_CPUS[:1]) if len(_CPUS) >= 2 else set()
SERVER_CPUS = set(_CPUS[1:]) if len(_CPUS) >= 2 else set()


@contextmanager
def pinned(cpus):
    """Keep this process on ``cpus`` (if any) for the duration."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


#: The busy loop ``cpus_kept_awake`` runs on each CPU: at SCHED_IDLE,
#: pinned to one CPU, until its parent (the benchmark) is gone.
_SPIN = (
    "import os, sys\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "parent = int(sys.argv[2])\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


@contextmanager
def cpus_kept_awake(cpus):
    """Keep each of ``cpus`` busy with a SCHED_IDLE loop for the duration.

    An idle vCPU halts, and on a shared host waking it waits for the
    hypervisor to schedule it again.  Under contention that adds
    milliseconds to every request that wakes the server or the client:
    over serve-scan runs alternating without and with these loops, the
    reference phase's read p50 was 11.7-23.8 ms without them (1.8-8.4%
    steal) and 9.9-14.2 ms with them.  A SCHED_IDLE task gets a CPU
    only when nothing else wants it, so the server, the client and the
    probe preempt the loops at once; they stand in for booting the
    guest with idle=poll."""
    procs: List[subprocess.Popen] = []
    try:
        for cpu in sorted(cpus):
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu), str(os.getpid())],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            ))
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


@dataclass(frozen=True)
class ServeSpec:
    capacity: int
    preload: int
    write_frac: float
    rate: float  # reference offered rate, ops/s
    limit_ms: float  # tail-latency limit of a sustainable rate
    #: the capacity ramp climbs from ramp[0] to ramp[1] times ``rate``
    ramp: Tuple[float, float]
    #: ramp slices; each is one rate step of (ramp[1]/ramp[0])**(1/n)
    ramp_bins: int
    #: share of reads that are range boxes (the rest are k-nearest)
    range_frac: float = 0.5
    #: the quantile the limit applies to within one ramp slice: the
    #: highest with ten samples beyond it near the workload's knee
    ramp_quantile: float = 0.95
    #: whether the reference latency is the server's CPU work (not
    #: fsync), so that p50_ms is normalised by the host-speed probe
    cpu_bound: bool = False


SPECS: Dict[str, ServeSpec] = {
    "serve-churn": ServeSpec(
        capacity=4, preload=2000, write_frac=0.8, rate=500.0,
        limit_ms=50.0, ramp=(0.5, 12.0), ramp_bins=48,
    ),
    "serve-scan": ServeSpec(
        capacity=8, preload=50000, write_frac=0.1, rate=60.0,
        limit_ms=100.0, ramp=(0.5, 6.0), ramp_bins=24, ramp_quantile=0.9,
        # mostly range reads, so the median sits inside one mode of a
        # two-mode (range ~8 ms, nearest ~1 ms) latency distribution
        range_frac=0.75, cpu_bound=True,
    ),
}

# ----------------------------------------------------------------------
# the operation stream
# ----------------------------------------------------------------------


def range_fields(center) -> dict:
    """A range box of side ``RANGE_SIDE`` around ``center``, clipped to
    the unit square."""
    half = RANGE_SIDE / 2
    return {"lo": [max(0.0, float(c) - half) for c in center],
            "hi": [min(1.0, float(c) + half) for c in center]}


def preload_points(n: int, seed: int) -> np.ndarray:
    """The points ``serve start --preload n --preload-seed seed`` loads
    (``generate_array`` is bit-identical to the ``generate`` it uses)."""
    return UniformPoints(dim=DIM, seed=seed).generate_array(n)


class OpStream:
    """Seeded request mix over a live point set.

    Mutations alternate delete-a-live-point / insert-a-fresh-point, so
    the live set stays at its preloaded size.  Reads are range boxes
    (``range_fields``; a ``range_frac`` share) and ``K``-nearest queries
    at uniform points.
    """

    def __init__(self, spec: ServeSpec, seed: int, live: np.ndarray):
        self._spec = spec
        self._rng = np.random.default_rng([seed, 2])
        self._live: List[Tuple[float, float]] = [tuple(p) for p in live]
        self._insert_next = False

    def take(self, dues: np.ndarray) -> Iterator[Request]:
        """Requests due at ``dues``, made one at a time as they are
        sent: a phase that stops early leaves the live set untouched
        by requests it never sent."""
        for due in dues:
            yield self._next(float(due))

    def _next(self, due: float) -> Request:
        rng = self._rng
        spec = self._spec
        if rng.random() < spec.write_frac:
            self._insert_next = not self._insert_next
            if self._insert_next and self._live:
                at = int(rng.integers(len(self._live)))
                victim = self._live[at]
                self._live[at] = self._live[-1]
                self._live.pop()
                return Request(due, "write", "delete",
                               {"point": list(victim)}, expect=True)
            fresh = (float(rng.random()), float(rng.random()))
            self._live.append(fresh)
            return Request(due, "write", "insert",
                           {"point": list(fresh)}, expect=True)
        center = rng.random(DIM)
        if rng.random() < spec.range_frac:
            return Request(due, "read", "range", range_fields(center))
        return Request(due, "read", "nearest",
                       {"point": [float(c) for c in center], "k": K})


# ----------------------------------------------------------------------
# the server child process
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve start`` in its own process."""

    def __init__(self, ctx: RunContext, spec: ServeSpec, path: Path,
                 preload_seed: int, traced: bool):
        self.path = path
        cmd = [
            sys.executable, "-m", "repro", "serve", "start", str(path),
            "--host", "127.0.0.1", "--port", "0", "--no-db",
            "--capacity", str(spec.capacity), "--dim", str(DIM),
            "--pool-pages", str(POOL_PAGES),
            "--commit-interval", str(COMMIT_INTERVAL_S),
            "--max-batch", str(MAX_BATCH),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--preload", str(spec.preload),
            "--preload-seed", str(preload_seed),
        ]
        if not traced:
            cmd.append("--no-trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        env["REPRO_NO_DB"] = "1"
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.scratch, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        try:
            if SERVER_CPUS:
                os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
            self._pump.start()
            self.host, self.port = self._await_listening(timeout=120.0)
        except BaseException:
            self.kill()
            raise

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not start listening in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"server exited during start-up (code "
                    f"{self.proc.wait()})"
                )
            if line.startswith("serving "):
                address = line.split(" on ", 1)[1].split(" ", 1)[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL: the OS page cache survives, so recovery after it
        exercises WAL replay, not fsync."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._pump.is_alive():
            self._pump.join(timeout=10)

    def disk_bytes(self) -> int:
        total = 0
        for path in (self.path, wal_path_for(self.path)):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total


# ----------------------------------------------------------------------
# one serve session: set-up, phases, gates
# ----------------------------------------------------------------------


class ServeSession:
    """A live server plus the client state that must survive across
    phases (the op stream and every acknowledged mutation)."""

    def __init__(self, ctx: RunContext, name: str, index: int,
                 traced: bool):
        self.ctx = ctx
        self.spec = SPECS[name]
        self.preload_seed = ctx.seed * 1000 + 17
        self.preload = preload_points(self.spec.preload, self.preload_seed)
        self.stream = OpStream(self.spec, ctx.seed, self.preload)
        self._schedule_seed = 0
        self.path = ctx.scratch / f"server{index}" / "points.pf"
        self.path.parent.mkdir()
        self.server: Optional[ServerProcess] = None
        self.client: Optional[OpenLoopClient] = None
        self.traced = traced
        self.warmup: List[Request] = []
        self.probe = HostProbe()

    def _next_seed(self) -> int:
        self._schedule_seed += 1
        return self.ctx.seed * 7919 + self._schedule_seed

    def requests(self, rate: float, seconds: float) -> Iterator[Request]:
        count = max(1, int(math.ceil(rate * seconds)))
        return self.stream.take(
            poisson_arrivals(rate, count, seed=self._next_seed()))

    async def ramp(self, seconds: float) -> Tuple[float, PhaseResult, list]:
        """Offer a rate climbing over ``seconds`` and return the highest
        rate the server sustained, the phase, and the per-slice log."""
        spec = self.spec
        start, end = spec.rate * spec.ramp[0], spec.rate * spec.ramp[1]
        limit_s = spec.limit_ms / 1e3
        dues = ramp_arrivals(start, end, seconds, seed=self._next_seed())
        with client_gc_paused():
            result = await self.client.run(
                self.stream.take(dues),
                abort_outstanding=int(2 * max(32.0, end * limit_s)),
                drain_timeout=5.0,
            )
        await self.settle(timeout=20.0)
        rate, log = sustained_rate(result, start, end, seconds,
                                   spec.ramp_bins, limit_s,
                                   spec.ramp_quantile)
        return rate, result, log

    async def start(self) -> float:
        """Spawn, preload, connect and warm up; returns seconds taken."""
        began = time.perf_counter()
        self.server = ServerProcess(self.ctx, self.spec, self.path,
                                    self.preload_seed, self.traced)
        self.client = await OpenLoopClient.connect(self.server.host,
                                                   self.server.port)
        # kept, so the traced run's storage replay starts where the
        # server's timed phase did
        self.warmup = list(self.requests(self.spec.rate, WARMUP_S))
        await self.client.run(self.warmup)
        return time.perf_counter() - began

    async def phase(self, rate: float, seconds: float,
                    on_sent=None) -> PhaseResult:
        limit_s = self.spec.limit_ms / 1e3
        with client_gc_paused():
            return await self.client.run(
                self.requests(rate, seconds),
                abort_outstanding=int(4 * max(8.0, rate * limit_s)),
                on_sent=on_sent,
            )

    def probe_server_cpu(self) -> float:
        """The median of ``PROBES`` host-speed probes run on the
        server's CPU (call it while the server is idle)."""
        with pinned(SERVER_CPUS):
            return self.probe.median_of(PROBES)

    async def probed_phase(self, rate: float, seconds: float
                           ) -> Tuple[PhaseResult, List[tuple]]:
        """An open-loop phase run as ``PROBED_SLICES`` slices, with the
        host-speed probe run after each once every answer is in.
        Returns the whole phase and, per slice, its latencies in due
        order and the probe time after it."""
        whole = PhaseResult()
        slices = []
        for _ in range(PROBED_SLICES):
            part = await self.phase(rate, seconds / PROBED_SLICES)
            await self.settle()
            slices.append(([latency for _, latency in sorted(part.samples)],
                           self.probe_server_cpu()))
            whole.merge(part)
        return whole, slices

    async def settle(self, timeout: float = 30.0) -> bool:
        """Wait until every request sent has been answered."""
        deadline = time.perf_counter() + timeout
        while self.client.outstanding_total and \
                time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        return self.client.outstanding_total == 0

    @asynccontextmanager
    async def control(self) -> AsyncIterator[ServiceClient]:
        """A second connection, for requests outside the schedule."""
        client = await ServiceClient.connect(self.server.host,
                                             self.server.port)
        try:
            yield client
        finally:
            await client.close()

    @staticmethod
    async def call(control: ServiceClient, op: str, **fields) -> object:
        """One request on ``control``; its result, or an error."""
        response = await control.call(op, **fields)
        if not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response.get('error')}")
        return response["result"]

    def expected_live(self) -> set:
        """The preload plus every acknowledged mutation, applied in
        acknowledgement order."""
        live = {tuple(p) for p in self.preload}
        for request, result in self.client.acked:
            if request.cls != "write" or result is not True:
                continue
            point = tuple(request.fields["point"])
            if request.op == "insert":
                live.add(point)
            else:
                live.discard(point)
        return live

    async def gates(self) -> Dict[str, bool]:
        """Census and seeded reads against a local PRQuadtree replay of
        the acknowledged mutations, then SIGKILL and check every
        acknowledged point came back through ``open_state``."""
        settled = await self.settle()
        live = self.expected_live()
        local = PRQuadtree(capacity=self.spec.capacity, dim=DIM)
        for coords in live:
            local.insert(Point(*coords))
        async with self.control() as control:
            census = await self.call(control, "census")
            reads_ok = await self._reads_match(local, control)
        census_ok = list(local.occupancy_census().counts) == \
            list(census["counts"])
        await self.client.close()
        self.server.kill()
        tree, wal, _ = open_state(self.path, pool_pages=POOL_PAGES)
        try:
            recovered = {tuple(p.coords) for p in tree.points()}
        finally:
            wal.close()
            tree.close()
        return {
            "settled": settled,
            "census_matches_replay": census_ok,
            "reads_match_replay": reads_ok,
            "recovered_after_sigkill": recovered == live,
        }

    async def _reads_match(self, local: PRQuadtree,
                           control: ServiceClient) -> bool:
        """The server's answers to seeded range and k-nearest queries
        equal the local replay's."""
        rng = np.random.default_rng([self.ctx.seed, 3])
        for center in rng.random((GATE_READS, DIM)):
            box = range_fields(center)
            got = await self.call(control, "range", **box)
            want = local.range_search(Rect(Point(*box["lo"]),
                                           Point(*box["hi"])))
            if sorted(map(tuple, got)) != sorted(p.coords for p in want):
                return False
            point = [float(c) for c in center]
            got = await self.call(control, "nearest", point=point, k=K)
            want = local.nearest(Point(*point), K)
            if [tuple(p) for p in got] != [tuple(p.coords) for p in want]:
                return False
        return True

    async def stop(self) -> None:
        try:
            if self.client is not None:
                await self.client.close()
        finally:
            if self.server is not None:
                self.server.kill()


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


#: Share of a run at the reference rate; the capacity ramp gets the rest.
REFERENCE_SHARE = 0.7

#: Without ``cpu_bound``, the reference phase's p50 is the lowest slice
#: median, over at most ten slices of at least a hundred requests each.
P50_WINDOWS = 10
P50_WINDOW_MIN = 100

#: The reference phase runs as this many slices, each followed by
#: ``PROBES`` host-speed probes (hostspeed.py).  With ``cpu_bound``,
#: p50 is the median of the slices' medians, each normalised by its
#: probe; the server's CPU seconds are normalised by the median probe.
PROBED_SLICES = 7
PROBES = 3


def class_summary(result: PhaseResult) -> Dict[str, Dict[str, float]]:
    out = {}
    for cls, values in sorted(result.latencies.items()):
        out[cls] = {
            "count": len(values),
            "p50_ms": quantile(values, 0.50) * 1e3,
            "p99_ms": quantile(values, 0.99) * 1e3,
        }
    return out


async def _setups(ctx: RunContext, name: str, repeats: int,
                  traced: bool, first: int = 0
                  ) -> Tuple[ServeSession, List[float]]:
    """Set the server up ``repeats`` times; keep the last one live."""
    times = []
    session = None
    for index in range(first, first + repeats):
        if session is not None:
            await session.stop()
            shutil.rmtree(session.path.parent)
        session = ServeSession(ctx, name, index, traced)
        try:
            times.append(await session.start())
        except BaseException:
            await session.stop()
            raise
    # write the preloaded files back now, not during the timed phase
    os.sync()
    return session, times


async def run_untraced(ctx: RunContext, name: str) -> dict:
    with pinned(CLIENT_CPUS), cpus_kept_awake(_CPUS):
        return await _run_untraced(ctx, name)


async def run_traced(ctx: RunContext, name: str) -> dict:
    with pinned(CLIENT_CPUS), cpus_kept_awake(_CPUS):
        return await _run_traced(ctx, name)


async def _run_untraced(ctx: RunContext, name: str) -> dict:
    spec = SPECS[name]
    session, setup_times = await _setups(ctx, name, 3, traced=False)
    try:
        ref_s = ctx.seconds * REFERENCE_SHARE
        cpu0 = process_cpu_s(session.server.proc.pid)
        ref, slices = await session.probed_phase(spec.rate, ref_s)
        cpu1 = process_cpu_s(session.server.proc.pid)
        max_rate, ramp, log = await session.ramp(ctx.seconds - ref_s)
        cpu2 = process_cpu_s(session.server.proc.pid)
        rss = session.server.peak_rss_mb()
        gates = await session.gates()
        live = len(session.expected_live())
        disk = session.server.disk_bytes()
    finally:
        await session.stop()
    # the ramp overloads the server on purpose; the reference rate must not
    gates["reference_phase_no_failures"] = ref.failed == 0
    everything = ref.all_latencies()
    if spec.cpu_bound:
        p50_s = median([HostProbe.normalise(median(latencies), probe_s)
                        for latencies, probe_s in slices])
    else:
        in_due_order = [x for latencies, _ in slices for x in latencies]
        p50_s = min_window_median(
            in_due_order,
            max(1, min(P50_WINDOWS, len(in_due_order) // P50_WINDOW_MIN)))
    probe_s = median([probe_s for _, probe_s in slices])
    per_cpu_s = ref.attempted / HostProbe.normalise(cpu1 - cpu0, probe_s)
    attempted = ref.attempted + ramp.attempted
    failed = ref.failed + ramp.failed
    classes = class_summary(ref)
    named = {
        "write_p50_ms": classes.get("write", {}).get("p50_ms", math.nan),
        "write_p99_ms": classes.get("write", {}).get("p99_ms", math.nan),
        "read_p50_ms": classes.get("read", {}).get("p50_ms", math.nan),
        "read_p99_ms": classes.get("read", {}).get("p99_ms", math.nan),
        "p50_all_ms": quantile(everything, 0.50) * 1e3,
        "max_rate_ops_s": max_rate,
        "failed_frac": failed / attempted if attempted else 0.0,
        "peak_rss_mb": rss,
        "disk_bytes_per_point": disk / live if live else math.nan,
    }
    return {
        "metrics": {
            "setup_s": median(setup_times),
            "p50_ms": p50_s * 1e3,
            "rate_per_s": per_cpu_s,
            "peak_rss_mb": rss,
        },
        "samples": {
            "setup_s": len(setup_times), "p50_ms": len(everything),
            "rate_per_s": ref.attempted,
            "peak_rss_mb": 1,
        },
        "named": named,
        "classes": classes,
        "attempted": attempted,
        "failed": failed,
        "gates": gates,
        "detail": {
            "setup_times_s": setup_times,
            # per reference slice: raw median latency and probe time, ms
            "slices_ms": [(median(latencies) * 1e3, probe_s * 1e3)
                          for latencies, probe_s in slices],
            "reference_rate": spec.rate,
            "server_cpu_ms_per_op_ramp": (cpu2 - cpu1) * 1e3 / ramp.attempted,
            "reference_send_lag_p99_ms":
                quantile(ref.send_lags, 0.99) * 1e3,
            "reference_max_outstanding": ref.max_outstanding,
            "ramp": [
                {"rate": b.rate, "n": b.requests, "ok": b.ok,
                 "tail_ms": b.tail_s * 1e3, "lag_p99_ms": b.lag_s * 1e3}
                for b in log
            ],
        },
    }


# ----------------------------------------------------------------------
# traced run: server metrics + in-process layer replays
# ----------------------------------------------------------------------


def _hist(payload: dict, name: str) -> Histogram:
    data = payload.get("histograms", {}).get(name)
    return Histogram.from_dict(data) if data else Histogram()


def _server_side(payload: dict) -> Dict[str, float]:
    """Per-layer service numbers from one ``metrics`` delta (covering
    the timed phase and the one checkpoint asked for after it)."""
    def p50_ms(name):
        h = _hist(payload, name)
        return h.p50 * 1e3 if h.count else 0.0

    commit = _hist(payload, "service.commit_batch")
    checkpoint = _hist(payload, "service.checkpoint")
    writes = _hist(payload, "service.op.insert")
    writes.merge(_hist(payload, "service.op.delete"))
    reads = _hist(payload, "service.op.range")
    reads.merge(_hist(payload, "service.op.nearest"))
    return {
        "service.handler_ms.range": p50_ms("service.op.range"),
        "service.handler_ms.nearest": p50_ms("service.op.nearest"),
        "service.commit_batch_ms.p50":
            commit.p50 * 1e3 if commit.count else 0.0,
        "service.commit_batch_ms.p99":
            commit.p99 * 1e3 if commit.count else 0.0,
        "service.writer_queue_depth":
            _hist(payload, "service.writer.queue_depth").mean,
        "service.commit_batch_size":
            _hist(payload, "service.commit_batch_size").mean,
        "service.checkpoint_ms":
            checkpoint.mean * 1e3 if checkpoint.count else 0.0,
        "service.checkpoints":
            float(payload.get("counters", {}).get("service.checkpoints", 0)),
        "_server_write_ms": writes.p50 * 1e3 if writes.count else 0.0,
        "_server_read_ms": reads.p50 * 1e3 if reads.count else 0.0,
    }


def _protocol_layer(ctx: RunContext, result: PhaseResult) -> Dict[str, float]:
    """decode_payload / encode_frame over the phase's real responses."""
    sample = result.answered[:: max(1, len(result.answered) // 400)]
    encode, decode, sizes = [], [], []
    for _, payload in sample:
        with ctx.span("protocol.decode_payload", "protocol"):
            t0 = time.perf_counter()
            response = decode_payload(payload)
            t1 = time.perf_counter()
        with ctx.span("protocol.encode_frame", "protocol"):
            frame = encode_frame(response)
            t2 = time.perf_counter()
        decode.append(t1 - t0)
        encode.append(t2 - t1)
        sizes.append(len(frame))
    by_cls: Dict[str, List[float]] = {}
    for (request, _), e, d in zip(sample, encode, decode):
        by_cls.setdefault(request.cls, []).append(e + d)
    return {
        "protocol.encode_us": median(encode) * 1e6,
        "protocol.decode_us": median(decode) * 1e6,
        "protocol.response_bytes": mean(sizes),
        "_codec_ms.write": median(by_cls.get("write", [])) * 1e3,
        "_codec_ms.read": median(by_cls.get("read", [])) * 1e3,
    }


def _wal_layer(ctx: RunContext, writes: List[Request],
               batch_size: int) -> Dict[str, float]:
    """WriteAheadLog.append / sync on a scratch log, in the run's
    group-commit batch sizes."""
    path = ctx.scratch / "scratch.wal"
    wal = WriteAheadLog.create(path, 0, DIM)
    header = path.stat().st_size
    appends, syncs = [], []
    try:
        batch_size = max(1, batch_size)
        for start in range(0, len(writes), batch_size):
            for request in writes[start:start + batch_size]:
                op = OP_INSERT if request.op == "insert" else OP_DELETE
                point = Point(*request.fields["point"])
                with ctx.span("wal.append", "wal"):
                    t0 = time.perf_counter()
                    wal.append(op, point)
                    appends.append(time.perf_counter() - t0)
            with ctx.span("wal.sync", "wal"):
                t0 = time.perf_counter()
                wal.sync()
                syncs.append(time.perf_counter() - t0)
    finally:
        wal.close()
    size = path.stat().st_size - header
    return {
        "wal.append_us": median(appends) * 1e6,
        "wal.sync_ms": median(syncs) * 1e3,
        "wal.bytes_per_mutation": size / len(writes) if writes else 0.0,
    }


def _storage_layer(ctx: RunContext, session: ServeSession,
                   phase_requests: List[Request]) -> Dict[str, float]:
    """Replay the warm-up and the timed phase into a fresh
    PagedPRQuadtree through its public methods."""
    spec = session.spec
    path = ctx.scratch / "replay.pf"
    with ctx.span("storage.bulk_load_paged", "storage"):
        t0 = time.perf_counter()
        tree = bulk_load_paged(path, session.preload,
                               capacity=spec.capacity, dim=DIM,
                               pool_pages=POOL_PAGES)
        bulk_s = time.perf_counter() - t0
    times: Dict[str, List[float]] = {}
    misses_reads = 0
    mutations = reads = 0
    try:
        for request in session.warmup:
            _apply(tree, request)
        start_counters = tree.pool.counters
        for request in phase_requests:
            before = tree.pool.counters
            with ctx.span(f"storage.{request.op}", "storage"):
                t0 = time.perf_counter()
                _apply(tree, request)
                times.setdefault(request.op, []).append(
                    time.perf_counter() - t0)
            if request.cls == "read":
                reads += 1
                misses_reads += tree.pool.counters["misses"] - before["misses"]
            else:
                mutations += 1
        # a page dirtied by a mutation may be written back when a later
        # read evicts it, or at the final flush: count every write-back
        tree.pool.flush()
        end_counters = tree.pool.counters
        hits = end_counters["hits"] - start_counters["hits"]
        misses = end_counters["misses"] - start_counters["misses"]
        writebacks = end_counters["writebacks"] - start_counters["writebacks"]
        written = writebacks * tree.pagefile.page_size
    finally:
        tree.close()
    user_bytes = mutations * DIM * 8
    return {
        "storage.apply_us.insert": median(times.get("insert", [])) * 1e6,
        "storage.apply_us.delete": median(times.get("delete", [])) * 1e6,
        "storage.range_ms": median(times.get("range", [])) * 1e3,
        "storage.nearest_ms": median(times.get("nearest", [])) * 1e3,
        "storage.pool_hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "storage.pool_misses_per_read":
            misses_reads / reads if reads else 0.0,
        "storage.pool_writebacks_per_mutation":
            writebacks / mutations if mutations else 0.0,
        "storage.bytes_written_per_user_byte":
            written / user_bytes if user_bytes else 0.0,
        "storage.bulk_load_s": bulk_s,
        "_apply_ms.write": median(
            times.get("insert", []) + times.get("delete", [])) * 1e3,
        "_apply_ms.read": median(
            times.get("range", []) + times.get("nearest", [])) * 1e3,
    }


def _apply(tree: PagedPRQuadtree, request: Request) -> None:
    f = request.fields
    if request.op == "insert":
        tree.insert(Point(*f["point"]))
    elif request.op == "delete":
        tree.delete(Point(*f["point"]))
    elif request.op == "range":
        tree.range_search(Rect(Point(*f["lo"]), Point(*f["hi"])))
    else:
        tree.nearest(Point(*f["point"]), f["k"])


async def _run_traced(ctx: RunContext, name: str) -> dict:
    spec = SPECS[name]
    ref_s = ctx.seconds * REFERENCE_SHARE
    # the untraced baseline for obs.tracing_overhead_frac
    with ctx.span("serve.untraced_baseline", "bench"):
        base, _ = await _setups(ctx, name, 1, traced=False)
        try:
            untraced = await base.phase(spec.rate, ref_s * 0.5)
        finally:
            await base.stop()
    with ctx.span("serve.setup", "bench"):
        session, _ = await _setups(ctx, name, 1, traced=True, first=1)
    try:
        # ``metrics`` answers deltas since the last poll on the same
        # connection, so both polls go over one
        async with session.control() as control:
            await session.call(control, "metrics")
            sent: List[Request] = []
            with ctx.span("serve.reference_phase", "service"):
                ref = await session.phase(spec.rate, ref_s,
                                          on_sent=sent.append)
            # checkpoints are rare in a short run (every CHECKPOINT_EVERY
            # mutations), so the traced run asks for one to time it
            await session.call(control, "checkpoint")
            payload = await session.call(control, "metrics")
            census = await session.call(control, "census")
        with ctx.span("serve.gates", "bench"):
            gates = await session.gates()
        live = len(session.expected_live())
        disk = session.server.disk_bytes()
    finally:
        await session.stop()
    gates["reference_phase_no_failures"] = \
        ref.failed == 0 and untraced.failed == 0
    server = _server_side(payload)
    writes = [r for r in sent if r.cls == "write"]
    layers: Dict[str, float] = {}
    layers.update(_protocol_layer(ctx, ref))
    layers.update(_wal_layer(
        ctx, writes, int(round(server["service.commit_batch_size"]))))
    replay = sent[:600] if spec.preload > 10000 else sent
    layers.update(_storage_layer(ctx, session, replay))

    client_write = quantile(ref.latencies.get("write", []), 0.5) * 1e3
    client_read = quantile(ref.latencies.get("read", []), 0.5) * 1e3
    batch = max(1.0, server["service.commit_batch_size"])
    in_process = {
        # a write waits for its batch's appends, one fsync, its apply,
        # and one encode + decode of its frame
        "write": batch * layers["wal.append_us"] / 1e3
        + layers["wal.sync_ms"] + layers["_apply_ms.write"]
        + layers["_codec_ms.write"],
        "read": layers["_apply_ms.read"] + layers["_codec_ms.read"],
    }
    wire = {
        "write": client_write - server["_server_write_ms"],
        "read": client_read - server["_server_read_ms"],
    }
    metrics = {k: v for k, v in server.items() if not k.startswith("_")}
    metrics.update({k: v for k, v in layers.items()
                    if not k.startswith("_")})
    model = PopulationModel(capacity=spec.capacity, dim=DIM)
    metrics.update({
        "service.wire_ms.read": wire["read"],
        "service.wire_ms.write": wire["write"],
        "storage.mean_leaf_occupancy": census["mean_occupancy"],
        "storage.occupancy_vs_model":
            census["mean_occupancy"] / model.average_occupancy(),
        "storage.disk_bytes_per_point": disk / live if live else 0.0,
        "loadgen.send_lag_p99_ms": quantile(ref.send_lags, 0.99) * 1e3,
        "loadgen.max_outstanding": float(ref.max_outstanding),
        "budget.client_ms.read": client_read,
        "budget.client_ms.write": client_write,
        "budget.unaccounted_ms.read":
            client_read - wire["read"] - in_process["read"],
        "budget.unaccounted_ms.write":
            client_write - wire["write"] - in_process["write"],
    })
    base_p50 = quantile(untraced.all_latencies(), 0.5)
    traced_p50 = quantile(ref.all_latencies(), 0.5)
    metrics["obs.tracing_overhead_frac"] = (traced_p50 - base_p50) / base_p50
    budget = {
        cls: {
            "client_ms": {"write": client_write, "read": client_read}[cls],
            "server_ms": server[f"_server_{cls}_ms"],
            "wire_ms": wire[cls],
            "in_process_layers_ms": in_process[cls],
            "unaccounted_ms": metrics[f"budget.unaccounted_ms.{cls}"],
        }
        for cls in ("write", "read")
    }
    return {
        "metrics": {k: finite_or_zero(v) for k, v in metrics.items()},
        "attempted": ref.attempted + untraced.attempted,
        "failed": ref.failed + untraced.failed,
        "gates": gates,
        "detail": {"budget": budget, "classes": class_summary(ref)},
    }
