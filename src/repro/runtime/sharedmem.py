"""Zero-copy point transport between the coordinator and pool workers.

The pool path used to make every worker regenerate its chunk's points
from the seed stream — correct, but it serialized the slow Python
generator loop into every chunk.  Now the coordinator generates each
trial's coordinate array exactly once (see
``PointGenerator.generate_array``), writes it straight into one
``multiprocessing.shared_memory`` block shaped ``(trials, n_points,
dim)`` float64, and workers attach numpy *views* by name — no point
ever pickles, and a chunk submission carries only the frozen spec plus
a :class:`SharedBlockRef` (a name and a shape).

Lifecycle (pinned by ``tests/test_runtime_executor.py``):

- the **coordinator** is the only process that ever ``unlink``s.  It
  does so in ``_run_pool``'s ``finally`` — normal completion, worker
  crashes, and in-process rescue all pass through it, so no block
  outlives its run;
- **workers** only ever ``close``.  Each worker caches its attachment
  per block name and drops stale ones when a new run's block arrives,
  so a persistent worker holds at most one mapping at a time;
- a module-level registry of live coordinator-side blocks backs the
  leak assertions in tests (``live_block_count`` must return to zero
  after every run, crash paths included).

``close()`` can raise ``BufferError`` while a numpy view of the buffer
is still referenced somewhere; we treat that as "the mapping is freed
when the last view dies" and still unlink immediately — unlinking only
needs the name, and the POSIX semantics (like an open unlinked file)
free the segment once every mapping is gone.
"""

from __future__ import annotations

import array
import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SharedBlockRef:
    """The picklable coordinates of one shared point block."""

    name: str
    trials: int
    n_points: int
    dim: int

    @property
    def shape(self) -> Tuple[int, int, int]:
        """The block's array shape."""
        return (self.trials, self.n_points, self.dim)


#: Coordinator-side registry of blocks created and not yet unlinked.
_LIVE: Dict[str, "SharedPointBlock"] = {}


class SharedPointBlock:
    """Coordinator-side owner of one run's shared coordinate tensor."""

    def __init__(
        self, shm: shared_memory.SharedMemory, trials: int,
        n_points: int, dim: int,
    ) -> None:
        self._shm = shm
        self._ref = SharedBlockRef(shm.name, trials, n_points, dim)
        self._array: Optional[np.ndarray] = np.ndarray(
            self._ref.shape, dtype=np.float64, buffer=shm.buf
        )
        self._closed = False

    @classmethod
    def create(cls, trials: int, n_points: int, dim: int) -> "SharedPointBlock":
        """Allocate a block for ``trials`` arrays of ``(n_points, dim)``
        float64 coordinates (1 byte minimum: zero-size maps are
        rejected by the OS, and zero-point specs still need a name to
        ship)."""
        if trials < 1 or n_points < 0 or dim < 1:
            raise ValueError(
                f"bad block shape ({trials}, {n_points}, {dim})"
            )
        nbytes = max(trials * n_points * dim * 8, 1)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        block = cls(shm, trials, n_points, dim)
        _LIVE[shm.name] = block
        return block

    @property
    def ref(self) -> SharedBlockRef:
        """What a worker needs to attach."""
        return self._ref

    @property
    def array(self) -> np.ndarray:
        """The writable ``(trials, n_points, dim)`` view."""
        if self._array is None:
            raise ValueError("shared block is closed")
        return self._array

    def close_and_unlink(self) -> None:
        """Release and destroy the block (idempotent; the one cleanup
        path — both normal completion and crash rescue call it)."""
        if self._closed:
            return
        self._closed = True
        _LIVE.pop(self._ref.name, None)
        self._array = None
        try:
            self._shm.close()
        except BufferError:
            # a live numpy view still points into the buffer; the
            # mapping is released when the last view is collected
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


#: Longest :func:`start_tracker` waits for the tracker to serve.
TRACKER_WAIT_S = 2.0


def start_tracker() -> None:
    """Start multiprocessing's resource tracker and wait until it serves.

    Every block registers with the tracker, a fresh interpreter that
    is exec'd on first use.  Its boot takes tens of milliseconds;
    started lazily by the first block, it competes with the pool
    workers for cores through the first pooled runs.  The persistent
    pool calls this at spin-up instead, so that cost lands there.  The
    wait sends the tracker a probe and polls the pipe's unread byte
    count (``FIONREAD``) until the tracker has read it, for at most
    :data:`TRACKER_WAIT_S` seconds; where that ioctl is unsupported it
    returns at once.  A live tracker reads the probe in well under a
    millisecond, so every call probes afresh — a tracker that was
    stopped in between is restarted and waited for again.
    """
    try:
        import fcntl
        import termios

        fd = resource_tracker.getfd()
        os.write(fd, b"PROBE:0:noop\n")
    except (ImportError, OSError):
        return
    unread = array.array("i", [0])
    deadline = time.monotonic() + TRACKER_WAIT_S
    while time.monotonic() < deadline:
        try:
            fcntl.ioctl(fd, termios.FIONREAD, unread)
        except OSError:
            return
        if not unread[0]:
            return
        time.sleep(0.001)


def live_block_count() -> int:
    """Blocks this process created and has not yet unlinked."""
    return len(_LIVE)


def live_block_names() -> Tuple[str, ...]:
    """Names of the live blocks (for leak diagnostics in tests)."""
    return tuple(sorted(_LIVE))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-worker attachment cache: block name -> (SharedMemory, view).
#: Persistent workers see one block per run; stale attachments are
#: closed when the next run's block arrives.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def attach_view(ref: SharedBlockRef) -> np.ndarray:
    """The block's ``(trials, n_points, dim)`` read view in this
    process, attached on first use and cached by name."""
    cached = _ATTACHED.get(ref.name)
    if cached is not None:
        return cached[1]
    for name in list(_ATTACHED):
        _detach(name)
    shm = shared_memory.SharedMemory(name=ref.name)
    view = np.ndarray(ref.shape, dtype=np.float64, buffer=shm.buf)
    _ATTACHED[ref.name] = (shm, view)
    return view


def _detach(name: str) -> None:
    shm, _ = _ATTACHED.pop(name)
    try:
        shm.close()
    except BufferError:
        pass


def reset_attachments() -> None:
    """Drop every cached attachment (tests, and worker teardown)."""
    for name in list(_ATTACHED):
        _detach(name)
