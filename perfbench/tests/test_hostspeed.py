"""Self-tests of the host-speed probe and of folding phases together.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import math
import os

import pytest

from hostspeed import REFERENCE_MS, HostProbe, mean_of_cpu_medians
from openloop import PhaseResult


def test_normalise_scales_by_the_probe_time():
    # a probe twice as slow as the reference halves the reported time
    assert HostProbe.normalise(1.0, 2 * REFERENCE_MS / 1e3) == \
        pytest.approx(0.5)
    assert HostProbe.normalise(0.3, REFERENCE_MS / 1e3) == pytest.approx(0.3)


def test_probe_records_each_time_and_restores_affinity():
    probe = HostProbe()
    before = os.sched_getaffinity(0)
    cpu = min(before)
    took = [probe.run(), probe.run_pinned(cpu)]
    assert os.sched_getaffinity(0) == before
    assert probe.times == took and all(t > 0 for t in took)
    assert probe.across_cpus(1, [cpu]) > 0
    assert len(probe.times) == 3


def test_mean_of_cpu_medians_skips_cpus_without_samples():
    assert mean_of_cpu_medians({0: [3.0, 1.0, 2.0], 1: [4.0], 2: []}) == \
        pytest.approx(3.0)


def test_merge_keeps_every_request_and_failure():
    first, later = PhaseResult(), PhaseResult()
    first.attempted, first.failed, first.max_outstanding = 3, 0, 2
    first.latencies = {"read": [0.001, 0.002], "write": [0.003]}
    first.samples = [(0.0, 0.001), (0.1, 0.002), (0.2, 0.003)]
    later.attempted, later.failed, later.max_outstanding = 2, 1, 5
    later.latencies = {"write": [math.inf, 0.004]}
    later.samples = [(0.0, math.inf), (0.1, 0.004)]
    first.merge(later)
    assert (first.attempted, first.failed, first.max_outstanding) == (5, 1, 5)
    assert first.latencies == {"read": [0.001, 0.002],
                               "write": [0.003, math.inf, 0.004]}
    assert len(first.all_latencies()) == 5
