"""The live capture path: options, sampler, memory tracker, Profiler."""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.exceptions import ProfError
from repro.obs import MetricsRegistry, trace_span
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.names import (
    PROFILE_SAMPLES,
    PROFILE_SPAN_ALLOC_BYTES,
    PROFILE_SPAN_PEAK_BYTES,
)
from repro.prof import (
    DEFAULT_HZ,
    MemoryTracker,
    ProfileOptions,
    Profiler,
    StackSampler,
    profile_run,
)
from tests.helpers import hang_guard


def spin(seconds: float) -> int:
    """Busy work the sampler can catch: ``seconds`` of process CPU time."""
    deadline = time.process_time() + seconds
    total = 0
    while time.process_time() < deadline:
        total += sum(range(200))
    return total


# ----------------------------------------------------------------------
# ProfileOptions
# ----------------------------------------------------------------------
class TestProfileOptions:
    def test_coerce_disabled_forms(self):
        assert ProfileOptions.coerce(None) is None
        assert ProfileOptions.coerce(False) is None

    def test_coerce_true_gives_defaults(self):
        options = ProfileOptions.coerce(True)
        assert options == ProfileOptions()
        assert options.hz == DEFAULT_HZ
        assert options.memory is True
        assert options.precise_memory is False

    def test_coerce_passthrough_and_mapping(self):
        explicit = ProfileOptions(hz=50.0, memory=False)
        assert ProfileOptions.coerce(explicit) is explicit
        built = ProfileOptions.coerce({"hz": 50.0, "memory": False})
        assert built == explicit
        precise = ProfileOptions.coerce({"precise_memory": True})
        assert precise is not None and precise.precise_memory is True

    def test_coerce_rejects_unknown_keys_and_types(self):
        with pytest.raises(ProfError, match="unknown profile option"):
            ProfileOptions.coerce({"rate": 50.0})
        with pytest.raises(ProfError, match="got str"):
            ProfileOptions.coerce("fast")

    def test_validation(self):
        with pytest.raises(ProfError, match="hz"):
            ProfileOptions(hz=0.0)
        with pytest.raises(ProfError, match="hz"):
            ProfileOptions(hz=2000.0)
        with pytest.raises(ProfError, match="max_stack_depth"):
            ProfileOptions(max_stack_depth=0)


# ----------------------------------------------------------------------
# StackSampler
# ----------------------------------------------------------------------
class TestStackSampler:
    def test_captures_and_attributes_samples(self):
        registry = MetricsRegistry()
        sampler = StackSampler(registry, hz=250.0)
        sampler.start()
        with trace_span("dataset", registry):
            spin(0.2)
        spin(0.05)  # outside any span
        sampler.stop()

        assert sampler.samples > 0
        assert sampler.span_self_samples.get("dataset", 0) > 0
        # Sampled stacks end in this module's functions.
        leaves = {frames[-1] for (_path, frames) in sampler.counts}
        assert any("spin" in leaf or "test_profiler" in leaf for leaf in leaves)
        # The counter is published once, at stop, with the same total.
        assert registry.counter(PROFILE_SAMPLES).total() == sampler.samples
        # Samples per CPU second: near the request, never above it.
        assert sampler.cpu_seconds >= 0.25
        assert 125.0 < sampler.delivered_hz() <= 250.0 * 1.1

    def test_stop_disarms_the_timer_and_restores_the_handler(self):
        def previous(_signum, _frame):
            pass

        before = signal.signal(signal.SIGPROF, previous)
        try:
            sampler = StackSampler(MetricsRegistry(), hz=200.0)
            sampler.start()
            assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is not previous
            spin(0.05)
            sampler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is previous
        finally:
            signal.signal(signal.SIGPROF, before)

    def test_start_off_the_main_thread_raises(self):
        sampler = StackSampler(MetricsRegistry(), hz=200.0)
        errors: list[BaseException] = []

        def start() -> None:
            try:
                sampler.start()
            except ProfError as exc:
                errors.append(exc)

        thread = threading.Thread(target=start)
        thread.start()
        thread.join()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_start_without_setitimer_raises(self, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        with pytest.raises(ProfError, match="setitimer"):
            StackSampler(MetricsRegistry(), hz=200.0).start()

    def test_start_with_the_timer_already_armed_raises(self):
        signal.setitimer(signal.ITIMER_PROF, 10.0, 10.0)
        try:
            with pytest.raises(ProfError, match="another profiler"):
                StackSampler(MetricsRegistry(), hz=200.0).start()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def test_single_use(self):
        sampler = StackSampler(MetricsRegistry(), hz=200.0)
        with pytest.raises(ProfError, match="not running"):
            sampler.stop()
        sampler.start()
        with pytest.raises(ProfError, match="already started"):
            sampler.start()
        sampler.stop()
        with pytest.raises(ProfError, match="already started"):
            sampler.start()

    def test_invalid_rates_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ProfError, match="positive"):
            StackSampler(registry, hz=0)
        with pytest.raises(ProfError, match="1000"):
            StackSampler(registry, hz=5000)
        with pytest.raises(ProfError, match="depth"):
            StackSampler(registry, max_depth=0)

    def test_max_depth_truncates_at_the_root(self):
        registry = MetricsRegistry()
        sampler = StackSampler(registry, hz=300.0, max_depth=2)

        def deep(n: int) -> int:
            if n == 0:
                return spin(0.15)
            return deep(n - 1)

        sampler.start()
        with trace_span("dataset", registry):
            deep(6)
        sampler.stop()
        assert sampler.samples > 0
        assert all(len(frames) <= 2 for (_path, frames) in sampler.counts)


# ----------------------------------------------------------------------
# MemoryTracker
# ----------------------------------------------------------------------
class TestMemoryTracker:
    def test_precise_mode_attributes_allocations_to_span_paths(self):
        registry = MetricsRegistry()
        tracker = MemoryTracker(registry, precise=True)
        tracker.start()
        registry.add_span_hook(tracker)
        try:
            with trace_span("experiment", registry):
                with trace_span("detectors", registry):
                    blob = [bytes(1024) for _ in range(512)]  # ~512 KiB live
                del blob
        finally:
            registry.remove_span_hook(tracker)
            tracker.stop()

        assert tracker.precise
        child = "experiment/detectors"
        assert tracker.calls == {"experiment": 1, child: 1}
        # The child held ~512 KiB at peak; the parent's peak includes it.
        assert tracker.peaks[child] > 256 * 1024
        assert tracker.peaks["experiment"] >= tracker.peaks[child]
        # The child freed what it allocated, so the parent's net is small.
        assert abs(tracker.allocated["experiment"]) < 64 * 1024
        # Live instruments carry the same attribution.
        assert registry.gauge(PROFILE_SPAN_PEAK_BYTES).value(span=child) > 0
        assert registry.counter(PROFILE_SPAN_ALLOC_BYTES).value(span=child) > 0

    def test_resident_set_mode_is_the_default_and_attributes_spans(self):
        registry = MetricsRegistry()
        tracker = MemoryTracker(registry)
        tracker.start()
        registry.add_span_hook(tracker)
        try:
            with trace_span("experiment", registry):
                with trace_span("detectors", registry):
                    blob = bytearray(8 * 1024 * 1024)  # 8 MiB, RSS-visible
                    tracker.poll()  # what each stack sample does
                    del blob
        finally:
            registry.remove_span_hook(tracker)
            tracker.stop()

        assert not tracker.precise
        child = "experiment/detectors"
        assert tracker.calls == {"experiment": 1, child: 1}
        # Peaks are absolute resident-set watermarks: real, ordered, and
        # the parent's includes the child's.
        assert tracker.peaks[child] > 8 * 1024 * 1024
        assert tracker.peaks["experiment"] >= tracker.peaks[child]
        assert registry.gauge(PROFILE_SPAN_PEAK_BYTES).value(span=child) > 0

    def test_spans_on_other_threads_are_ignored(self):
        registry = MetricsRegistry()
        tracker = MemoryTracker(registry)
        tracker.start()
        registry.add_span_hook(tracker)

        def worker() -> None:
            with trace_span("experiment", registry):
                pass

        try:
            with trace_span("dataset", registry):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        finally:
            registry.remove_span_hook(tracker)
            tracker.stop()
        assert tracker.calls == {"dataset": 1}

    def test_falls_back_to_precise_when_tracemalloc_is_already_tracing(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        tracemalloc.start(1)
        try:
            tracker = MemoryTracker(MetricsRegistry())
            tracker.start()
            assert tracker.precise
            tracker.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_stop_only_stops_tracing_it_started(self):
        import tracemalloc

        already_tracing = tracemalloc.is_tracing()
        if not already_tracing:
            tracemalloc.start(1)
        try:
            tracker = MemoryTracker(MetricsRegistry())
            tracker.start()
            tracker.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


# ----------------------------------------------------------------------
# Profiler / profile_run
# ----------------------------------------------------------------------
class TestProfiler:
    def test_end_to_end_capture(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry, ProfileOptions(hz=250.0))
        profiler.start()
        with trace_span("dataset", registry):
            spin(0.2)
        profile = profiler.stop()

        assert profile is profiler.profile
        # The recorded rate is the delivered one, not the 250 Hz request.
        assert 125.0 < profile.hz <= 250.0 * 1.1
        assert profile.duration_seconds > 0.15
        assert profile.sample_count() > 0
        dataset = profile.span("dataset")
        assert dataset.self_samples > 0
        assert dataset.calls == 1
        assert profile.memory == "rss"
        assert profile.collapsed().startswith("dataset;")

    def test_memory_false_skips_span_memory(self):
        registry = MetricsRegistry()
        with profile_run(registry, ProfileOptions(hz=200.0, memory=False)) as profiler:
            with trace_span("dataset", registry):
                spin(0.15)
        profile = profiler.profile
        assert profile is not None
        assert profile.memory == "off"
        assert profile.span("dataset").alloc_bytes == 0
        assert profile.span("dataset").peak_bytes == 0
        # But calls/self samples still attribute via the sampler.
        assert profile.span("dataset").self_samples > 0

    def test_requires_enabled_registry(self):
        with pytest.raises(ProfError, match="enabled MetricsRegistry"):
            Profiler(NULL_REGISTRY)

    def test_single_use_lifecycle(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        with pytest.raises(ProfError, match="not running"):
            profiler.stop()
        profiler.start()
        with pytest.raises(ProfError, match="already started"):
            profiler.start()
        profiler.stop()
        with pytest.raises(ProfError, match="single-use"):
            profiler.start()

    def test_second_concurrent_profiler_raises_and_leaves_the_first_intact(self):
        registry = MetricsRegistry()
        with profile_run(registry, ProfileOptions(hz=200.0)) as first:
            second = Profiler(registry, ProfileOptions(hz=200.0))
            with pytest.raises(ProfError, match="another profiler"):
                second.start()
            # The failed start left no span hook behind.
            assert registry._span_hooks == [first._memory]
            with trace_span("dataset", registry):
                spin(0.1)
        profile = first.profile
        assert profile is not None
        assert profile.span("dataset").self_samples > 0
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_span_heavy_loop_under_the_fastest_rate_does_not_hang(self):
        """The handler interrupts span hooks at any bytecode; it must take no lock."""
        registry = MetricsRegistry()
        options = ProfileOptions(hz=1000.0, memory=True)
        spans = 0
        with hang_guard(10):
            with profile_run(registry, options) as profiler:
                deadline = time.perf_counter() + 2.0
                while time.perf_counter() < deadline:
                    with trace_span("experiment", registry):
                        with trace_span("detectors", registry):
                            spans += 2
        profile = profiler.profile
        assert profile is not None
        assert spans > 1000
        assert profile.sample_count() > 0
        assert profile.span("experiment/detectors").calls == spans // 2

    def test_precise_memory_option_marks_the_capture(self):
        registry = MetricsRegistry()
        options = ProfileOptions(hz=200.0, precise_memory=True)
        with profile_run(registry, options) as profiler:
            with trace_span("dataset", registry):
                spin(0.1)
        profile = profiler.profile
        assert profile is not None
        assert profile.memory == "tracemalloc"

    def test_profile_round_trips_to_dict(self):
        registry = MetricsRegistry()
        with profile_run(registry, ProfileOptions(hz=200.0)) as profiler:
            with trace_span("dataset", registry):
                spin(0.15)
        profile = profiler.profile
        assert profile is not None
        from repro.prof import Profile

        rebuilt = Profile.from_dict(profile.to_dict())
        assert rebuilt.to_dict() == profile.to_dict()
