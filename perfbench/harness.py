"""Shared plumbing for the benchmark: spans, statistics, isolation, memory.

Nothing here imports ``repro``; the workload modules do.  Every run
gets a :class:`RunContext`: a fresh scratch directory inside the
checkout, the environment fingerprint stamped on its result, and (in
traced runs) a :class:`SpanRecorder` that the workloads wrap around
each call into a layer of the program.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: Layers a span may be charged to.  ``bench`` is the harness itself.
LAYERS = (
    "bench", "service", "protocol", "wal", "storage",
    "kernels", "workloads", "runtime",
)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer, as the benchmark saw it."""

    sid: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


class SpanRecorder:
    """In-memory span log with parent links (written out at the end).

    Spans nest on a stack: a span opened while another is open is its
    child.  Only synchronous calls are wrapped, so the stack is exact.
    A disabled recorder times nothing and keeps nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1].sid if self._stack else None
        record = Span(len(self.spans), name, layer, time.perf_counter(),
                      parent=parent)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer spent in its own spans, minus the time
        their child spans cover."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = (
                    child_time.get(s.parent, 0.0) + (s.end - s.start)
                )
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.layer] += (s.end - s.start) - child_time.get(s.sid, 0.0)
        return out

    def to_list(self) -> List[dict]:
        return [
            {"id": s.sid, "name": s.name, "layer": s.layer,
             "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile.  Handles ``inf`` (a failed request) and
    returns ``nan`` for an empty sample."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def min_window_median(values: Sequence[float], windows: int) -> float:
    """The lowest median among ``windows`` equal consecutive slices of
    ``values``.  On a shared virtual machine the host takes CPUs away
    in bursts (steal), which only ever adds time; the least-disturbed
    slice estimates the program's own latency, and a change that slows
    every request still moves it."""
    size = len(values) // windows
    if size == 0:
        return median(values)
    return min(median(values[i * size:(i + 1) * size])
               for i in range(windows))


def finite_or_zero(value: float) -> float:
    """Per-layer metrics report 0 for a layer the workload never
    reached (the buffer pool's own convention for an unused pool)."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) \
        else 0.0


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB; 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used.  Time the
    host took the CPU away (steal) is not charged to the process."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> List[int]:
    """Live direct children of ``pid`` (pool workers, servers)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("PPid:"):
                if int(line.split()[1]) == pid:
                    out.append(int(entry.name))
                break
    return out


def tree_cpu_s() -> float:
    """CPU seconds used by this process and its live children."""
    me = os.getpid()
    return process_cpu_s(me) + sum(process_cpu_s(c) for c in child_pids(me))


def tree_hwm_mb() -> float:
    """This process's peak RSS plus that of each live child."""
    me = os.getpid()
    return vm_hwm_mb(me) + sum(vm_hwm_mb(c) for c in child_pids(me))


# ----------------------------------------------------------------------
# isolation and provenance
# ----------------------------------------------------------------------


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of all CPUs since boot.  Time a virtual
    machine's CPUs wait for the host counts as steal; a run with much
    of it measured the host, not the program."""
    try:
        fields = [int(x) for x in
                  Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields))


def fresh_gc() -> None:
    """Collect garbage before a timed phase so an earlier phase's
    garbage is not charged to it."""
    gc.collect()


@contextmanager
def client_gc_paused() -> Iterator[None]:
    """Collect, then keep the collector off while a load generator
    runs, so its own pauses are not charged to the server it drives."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def source_fingerprint(root: Path) -> Dict[str, object]:
    """Which code ran: the git SHA when the checkout is a repository,
    and always a hash of the sources, since a bare checkout has no
    SHA."""
    sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def environment(root: Path, workers: int) -> Dict[str, object]:
    """The fingerprint stamped on every result.  Results from hosts
    with another ``nproc`` or interpreter are not comparable."""
    import numpy

    out: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workers,
    }
    out.update(source_fingerprint(root))
    return out


@dataclass
class RunContext:
    """Everything one benchmark run shares across its phases."""

    root: Path
    workload: str
    seed: int
    seconds: float
    traced: bool
    scratch: Path
    spans: SpanRecorder

    def span(self, name: str, layer: str):
        return self.spans.span(name, layer)


@contextmanager
def run_context(
    root: Path, workload: str, seed: int, seconds: float, traced: bool
) -> Iterator[RunContext]:
    """A fresh scratch directory under ``.perfbench/`` in the checkout,
    removed when the run ends however it ends."""
    base = root / ".perfbench" / "scratch"
    base.mkdir(parents=True, exist_ok=True)
    scratch = base / f"{workload}-s{seed}-t{int(traced)}-p{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir()
    ctx = RunContext(root, workload, seed, seconds, traced, scratch,
                     SpanRecorder(enabled=traced))
    try:
        yield ctx
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def write_report(root: Path, name: str, report: dict) -> Path:
    """Keep the full report (spans included) beside the checkout's
    other benchmark output."""
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(report, indent=1, sort_keys=True,
                               default=float) + "\n")
    return path
