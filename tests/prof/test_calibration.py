"""Calibration: the profiler's attribution matches direct timers.

The workload alternates a pure-Python loop with ``np.sort`` of a 60k
float array -- a short C call that releases the GIL, which is what a
sampler on another thread over-counts -- and times each part with
``perf_counter``.  The profiler's numpy share of the samples must match
the timers' numpy share within 10 percentage points.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.prof import ProfileOptions, profile_run

#: Process CPU seconds each case runs for.
CPU_SECONDS = 2.0

#: Largest accepted gap between sampled and timed numpy share.
TOLERANCE = 0.10


def python_part(iterations: int) -> int:
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


def numpy_part(values: np.ndarray) -> float:
    return float(np.sort(values)[0])


def _iterations_for(target_seconds: float) -> int:
    """Loop iterations of :func:`python_part` that take ``target_seconds``."""
    probe = 100_000
    started = time.perf_counter()
    python_part(probe)
    per_iteration = (time.perf_counter() - started) / probe
    return max(1, int(target_seconds / per_iteration))


@pytest.mark.parametrize("numpy_share", [0.25, 0.07])
def test_numpy_share_matches_the_timers(numpy_share):
    values = np.random.default_rng(2018).random(60_000)
    started = time.perf_counter()
    for _ in range(5):
        numpy_part(values)
    sort_seconds = (time.perf_counter() - started) / 5
    iterations = _iterations_for(sort_seconds * (1 - numpy_share) / numpy_share)

    timed = {"numpy": 0.0, "python": 0.0}
    registry = MetricsRegistry()
    with profile_run(registry, ProfileOptions(hz=199.0, memory=False)) as profiler:
        cpu_started = time.process_time()
        while time.process_time() - cpu_started < CPU_SECONDS:
            started = time.perf_counter()
            python_part(iterations)
            middle = time.perf_counter()
            numpy_part(values)
            timed["python"] += middle - started
            timed["numpy"] += time.perf_counter() - middle
    profile = profiler.profile
    assert profile is not None

    sampled = {"numpy": 0, "python": 0}
    for sample in profile.samples:
        for part in sampled:
            if any(frame.endswith(f":{part}_part") for frame in sample.frames):
                sampled[part] += sample.count
    assert sum(sampled.values()) > 100, sampled
    sampled_share = sampled["numpy"] / sum(sampled.values())
    timed_share = timed["numpy"] / sum(timed.values())
    assert abs(sampled_share - timed_share) <= TOLERANCE, (
        f"sampled numpy share {sampled_share:.1%} vs timed {timed_share:.1%}"
    )
