"""Host-speed probe: a fixed piece of work that uses nothing from the
program, run beside the benchmark's own timed operations.

The benchmark runs on a virtual machine that shares its cores, and how
fast that machine runs drifts while a run is under way: on a 2-vCPU
VM, one ``query-batch`` round timed 20-31 ms in consecutive 3-second
windows of a single process.  The probe drifts with it (its time moved
the same way in the same windows), so a timing divided by the probe
time measured next to it, times :data:`REFERENCE_MS`, reads as that
operation on a host where the probe takes :data:`REFERENCE_MS`.  Most
of the drift cancels; a change to the program still shows in full,
because the probe runs none of it.

The probe mixes what the program spends its time on: numpy sorts and
binary searches over arrays of a few hundred kilobytes, a broadcast
arithmetic pass, and an interpreted Python loop.  Its inputs are fixed,
not drawn from the run's seed, so every run does the same probe work.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence

import numpy as np

#: The probe's typical time on the host the benchmark was written on
#: (2 vCPUs at 2.1 GHz); it only sets the scale of the normalised figures.
REFERENCE_MS = 28.0


class HostProbe:
    """Times the fixed probe work and keeps every time it measured."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_240_601)
        self._keys = rng.random(100_000)
        self._sorted = np.sort(self._keys)
        self._needles = rng.random(25_000)
        self._rows = rng.random((25_000, 2))
        self.times: List[float] = []

    def run(self) -> float:
        """Run the probe once; returns its time in seconds."""
        began = time.perf_counter()
        np.argsort(self._keys, kind="stable")
        np.searchsorted(self._sorted, self._needles)
        (self._rows[:, None, :] - self._rows[None, :32, :]).sum()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        took = time.perf_counter() - began
        self.times.append(took)
        return took

    def median_of(self, runs: int) -> float:
        """Run the probe ``runs`` times; the median time, in seconds."""
        return _median([self.run() for _ in range(runs)])

    def run_pinned(self, cpu: int) -> float:
        """Run the probe once with this process moved to ``cpu``."""
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return self.run()
        finally:
            os.sched_setaffinity(0, before)

    def across_cpus(self, runs: int, cpus: Sequence[int]) -> float:
        """Run the probe ``runs`` times on each of ``cpus``; the mean
        over the CPUs of each one's median time.  For work spread over
        several CPUs, whose speeds drift apart."""
        return mean_of_cpu_medians(
            {cpu: [self.run_pinned(cpu) for _ in range(runs)]
             for cpu in cpus})

    @staticmethod
    def normalise(seconds: float, probe_s: float) -> float:
        """``seconds`` as they would read on the reference host, given
        the probe time measured next to them."""
        return seconds * (REFERENCE_MS / 1e3) / probe_s


def mean_of_cpu_medians(times: Dict[int, List[float]]) -> float:
    """The mean over CPUs of the median probe time on each."""
    medians = [_median(values) for values in times.values() if values]
    return sum(medians) / len(medians)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
