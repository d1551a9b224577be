"""Open-loop load generation over one pipelined connection.

Requests are sent on a fixed schedule (Poisson arrivals at an offered
rate) whether or not earlier ones have been answered, and each one's
latency is timed from the moment it was *due*, not from when it was
actually written.  A server that stalls therefore has the stall
charged to every request queued behind it (the coordinated-omission
correction of wrk2/HdrHistogram), and a generator that falls behind
its schedule shows up as send lag instead of as a lower offered load.

A request that fails -- an ``ok: false`` answer, an answer that
contradicts what the request had to return, or no answer at all --
is recorded with infinite latency, so it misses every latency limit.
"""

from __future__ import annotations

import asyncio
import math
import re
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.service.protocol import (
    MAX_FRAME_BYTES, ProtocolError, decode_payload, encode_frame,
)

from harness import quantile


@dataclass
class Request:
    """One scheduled request: due ``due`` seconds after phase start."""

    due: float
    cls: str  # "write" or "read"
    op: str
    fields: Dict[str, Any]
    #: The result a correct server must return (``None``: any).
    expect: Optional[bool] = None


def poisson_arrivals(rate: float, count: int, seed: int) -> np.ndarray:
    """``count`` arrival offsets (seconds) of a Poisson process at
    ``rate`` per second; the same seed gives the same schedule."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, count))


_LENGTH = struct.Struct(">I")

# The server encodes with sorted keys, so an answer without an error
# starts with its id and ok flag, and a boolean result ends it.
_HEAD = re.compile(rb'\{"id":(\d+),"ok":(true|false)')


async def read_payload(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame's payload bytes; ``None`` at a clean end of stream."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("connection closed mid frame") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"peer declared a {length}-byte frame")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid frame") from exc


def summarize(payload: bytes) -> Tuple[Any, bool, Any]:
    """``(id, ok, result)`` of one answer, where ``result`` is only
    read when it is a boolean (a mutation's).  Decoding a 500-point
    range answer in full would make the generator, not the server, the
    bottleneck; anything not in the expected shape is decoded fully."""
    head = _HEAD.match(payload)
    if head is not None:
        result = None
        if payload.endswith(b',"result":true}'):
            result = True
        elif payload.endswith(b',"result":false}'):
            result = False
        return int(head.group(1)), head.group(2) == b"true", result
    try:
        message = decode_payload(payload)
    except ProtocolError:
        return None, False, None
    result = message.get("result")
    return (message.get("id"), bool(message.get("ok")),
            result if isinstance(result, bool) else None)


@dataclass
class PhaseResult:
    """What one open-loop phase measured."""

    attempted: int = 0
    failed: int = 0
    #: Seconds from due time to response, per request class; a failed
    #: request is ``inf``.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: (due offset, latency) per request, in answer order.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: (due offset, seconds the send ran behind schedule) per request.
    lags: List[Tuple[float, float]] = field(default_factory=list)
    max_outstanding: int = 0
    #: (request, response payload bytes) of every correct answer.
    answered: List[tuple] = field(default_factory=list)

    def all_latencies(self) -> List[float]:
        return [latency for _, latency in self.samples]

    def merge(self, later: "PhaseResult") -> None:
        """Fold a later phase's figures into this one (due offsets stay
        relative to the start of the phase they came from)."""
        self.attempted += later.attempted
        self.failed += later.failed
        for cls, values in later.latencies.items():
            self.latencies.setdefault(cls, []).extend(values)
        self.samples.extend(later.samples)
        self.lags.extend(later.lags)
        self.max_outstanding = max(self.max_outstanding,
                                   later.max_outstanding)
        self.answered.extend(later.answered)

    @property
    def send_lags(self) -> List[float]:
        return [lag for _, lag in self.lags]


class OpenLoopClient:
    """One connection; ``run`` drives a schedule of requests over it."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        # id -> (request, absolute due time, result being filled)
        self._pending: Dict[int, tuple] = {}
        # requests given up on as failed whose answers may still come
        self._expired: Dict[int, Request] = {}
        #: Every correct answer, on time or late: (request, result).
        self.acked: List[tuple] = []
        self._dead: Optional[str] = None
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "OpenLoopClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def outstanding_total(self) -> int:
        """Unanswered requests, including those already counted as
        failed for being too late."""
        return len(self._pending) + len(self._expired)

    @staticmethod
    def _correct(request: Request, ok: bool, result: Any) -> bool:
        return ok and (request.expect is None or result is request.expect)

    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await read_payload(self._reader)
                now = time.perf_counter()
                if payload is None:
                    break
                rid, ok, answer = summarize(payload)
                entry = self._pending.pop(rid, None)
                if entry is None:
                    late = self._expired.pop(rid, None)
                    if late is not None and self._correct(late, ok, answer):
                        self.acked.append((late, answer))
                    continue
                request, due_at, result = entry
                correct = self._correct(request, ok, answer)
                self._record(result, request,
                             now - due_at if correct else math.inf)
                if correct:
                    self.acked.append((request, answer))
                    result.answered.append((request, payload))
        except (ConnectionError, OSError) as exc:
            self._dead = str(exc) or type(exc).__name__
        finally:
            if self._dead is None:
                self._dead = "server closed the connection"
            self._fail_pending()

    @staticmethod
    def _record(result: PhaseResult, request: Request, latency: float) -> None:
        result.latencies.setdefault(request.cls, []).append(latency)
        result.samples.append((request.due, latency))
        if math.isinf(latency):
            result.failed += 1

    def _fail_pending(self) -> None:
        pending, self._pending = self._pending, {}
        self._expired.clear()
        for request, _, result in pending.values():
            self._record(result, request, math.inf)

    async def run(
        self,
        requests: Iterable[Request],
        abort_outstanding: Optional[int] = None,
        drain_timeout: float = 10.0,
        on_sent: Optional[Callable[[Request], None]] = None,
    ) -> PhaseResult:
        """Send ``requests`` on their schedule and wait for the answers.

        Sending stops early once more than
        ``abort_outstanding`` requests are unanswered: the server has
        clearly fallen behind, and the rest of the schedule would only
        lengthen the drain.  Requests unanswered ``drain_timeout``
        seconds after the last send count as failed.
        """
        result = PhaseResult()
        began = time.perf_counter()
        for request in requests:
            due_at = began + request.due
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            result.lags.append((request.due, max(0.0, sent - due_at)))
            result.attempted += 1
            if self._dead is not None:
                self._record(result, request, math.inf)
                continue
            self._next_id += 1
            message = {"id": self._next_id, "op": request.op,
                       **request.fields}
            self._pending[self._next_id] = (request, due_at, result)
            self._writer.write(encode_frame(message))
            if on_sent is not None:
                on_sent(request)
            try:
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                self._dead = str(exc) or type(exc).__name__
            result.max_outstanding = max(result.max_outstanding,
                                         len(self._pending))
            if abort_outstanding is not None and \
                    len(self._pending) > abort_outstanding:
                break
        deadline = time.perf_counter() + drain_timeout
        while self._pending and time.perf_counter() < deadline:
            if self._dead is not None:
                break
            await asyncio.sleep(0.001)
        # anything still unanswered missed every limit; its answer is
        # still wanted, to know what the server applied
        for rid in [rid for rid, (_, _, r) in self._pending.items()
                    if r is result]:
            request, _, _ = self._pending.pop(rid)
            self._record(result, request, math.inf)
            if self._dead is None:
                self._expired[rid] = request
        result.elapsed = time.perf_counter() - began
        return result

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def ramp_arrivals(start: float, end: float, seconds: float,
                  seed: int) -> np.ndarray:
    """Arrival offsets of a Poisson process whose rate climbs
    exponentially from ``start`` to ``end`` per second over
    ``seconds``: unit-rate arrivals mapped through the inverse of the
    cumulative rate ``start / k * (exp(k t) - 1)``."""
    if not 0 < start < end:
        raise ValueError(f"need 0 < start < end, got {start}, {end}")
    k = math.log(end / start) / seconds
    total = start / k * math.expm1(k * seconds)
    rng = np.random.default_rng(seed)
    unit = np.cumsum(rng.exponential(1.0, int(total * 1.2) + 16))
    unit = unit[unit < total]
    return np.log1p(unit * k / start) / k


@dataclass
class RampBin:
    """One slice of a ramp: the offered rate where it began and whether
    the server kept up with it."""

    rate: float
    requests: int
    tail_s: float
    lag_s: float
    ok: bool


def sustained_rate(
    result: PhaseResult,
    start: float,
    end: float,
    seconds: float,
    bins: int,
    limit_s: float,
    quantile_q: float,
) -> Tuple[float, List[RampBin]]:
    """The highest offered rate of a ramp that the server sustained.

    The ramp is cut into ``bins`` slices by due time.  A slice keeps
    up when its ``quantile_q`` latency (failed requests count as
    misses) is under ``limit_s`` and the generator sent its p99 within
    a quarter of the limit of schedule, so the client's own delay
    cannot decide the verdict.  Past the server's capacity the backlog
    grows and every later slice fails, so the answer is the offered
    rate where the final run of failing slices begins; a slice that
    fails and recovers (a passing interference burst) does not count.
    Slices after an aborted send have no requests and fail.
    """
    width = seconds / bins
    lat: List[List[float]] = [[] for _ in range(bins)]
    lag: List[List[float]] = [[] for _ in range(bins)]
    for due, latency in result.samples:
        lat[min(int(due / width), bins - 1)].append(latency)
    for due, delay in result.lags:
        lag[min(int(due / width), bins - 1)].append(delay)
    log = []
    for k in range(bins):
        rate = start * (end / start) ** (k / bins)
        tail = quantile(lat[k], quantile_q)
        behind = quantile(lag[k], 0.99)
        ok = bool(lat[k]) and tail < limit_s and behind < limit_s / 4
        log.append(RampBin(rate, len(lat[k]), tail, behind, ok))
    first_bad = bins
    while first_bad > 0 and not log[first_bad - 1].ok:
        first_bad -= 1
    if first_bad == bins:
        return end, log
    if first_bad == 0:
        return start, log
    return _crossing(log[first_bad - 1], log[first_bad], end / start,
                     bins, limit_s), log


def _crossing(passed: RampBin, failed: RampBin, ratio: float, bins: int,
              limit_s: float) -> float:
    """Where the tail meets ``limit_s`` between the last slice that
    kept up and the first that did not, interpolating log tail against
    log rate between the slices' middles; the boundary between the two
    slices when the failing one has no finite tail."""
    step = ratio ** (1.0 / bins)
    boundary = failed.rate
    if not (0 < passed.tail_s < limit_s) or not math.isfinite(failed.tail_s) \
            or failed.tail_s <= limit_s:
        return boundary
    share = math.log(limit_s / passed.tail_s) / \
        math.log(failed.tail_s / passed.tail_s)
    return passed.rate * math.sqrt(step) * step ** share
