"""The signal-driven stack sampler.

A :class:`StackSampler` arms the process's profiling interval timer
(``signal.setitimer(signal.ITIMER_PROF, ...)``) and samples from the
``SIGPROF`` handler.  Python runs that handler on the main thread and
hands it the frame it interrupted, so a sample is the main thread's
stack at that instant -- no second thread, and no waiting for the GIL,
which would land the samples on whatever short C call released it
next.  Each stack is attributed to the span path open on the main
thread (read from the registry's own span stack) and aggregated in
place.

Properties of the capture:

* **CPU time.**  ``ITIMER_PROF`` counts the process's CPU time, so a
  wait (I/O, sleeping, a parent blocked on forked workers) shows in span
  durations but gets few samples.  Forked children inherit no interval
  timer and are not sampled.
* **Main thread only.**  Work on other threads still advances the timer,
  but the sample lands on the main thread's current frame.
* **Delivered rate.**  The timer cannot fire faster than the kernel
  tick (about 250 Hz on a common Linux build), so the rate actually
  delivered is measured: :attr:`StackSampler.cpu_seconds` is the process
  CPU time of the capture and :meth:`StackSampler.delivered_hz` the
  samples per CPU second, which is what turns sample counts back into
  seconds.
* **The handler takes no lock.**  It interrupts the main thread at any
  bytecode, including inside code that holds a lock, so it only touches
  its own aggregates (the samples counter gets its total once, at stop).

The default rate is 97 Hz -- a prime frequency, so the sampler cannot
phase-lock with millisecond-periodic work and systematically hit (or
miss) the same code.
"""

from __future__ import annotations

import signal
import threading
import time
from types import FrameType
from typing import Any, Callable

from repro.exceptions import ProfError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.names import PROFILE_SAMPLES
from repro.prof.profile import PATH_SEPARATOR, frame_label

#: Default sampling rate (prime, see module docstring).
DEFAULT_HZ = 97.0

#: Stack frames kept per sample, innermost out; deeper stacks truncate
#: at the root end so the hot leaf is always preserved.
DEFAULT_MAX_DEPTH = 64


class StackSampler:
    """Sample the main thread's stack on ``SIGPROF`` and aggregate it.

    Lifecycle: construct, :meth:`start`, run the workload, :meth:`stop`
    (all on the main thread); then read :attr:`counts` /
    :attr:`span_self_samples`.  A sampler is single-use.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        hz: float = DEFAULT_HZ,
        max_depth: int = DEFAULT_MAX_DEPTH,
        on_tick: Callable[[], None] | None = None,
    ) -> None:
        if hz <= 0:
            raise ProfError(f"sampling rate must be positive, got {hz} Hz")
        if hz > 1000:
            raise ProfError(f"sampling above 1000 Hz is self-defeating, got {hz} Hz")
        if max_depth < 1:
            raise ProfError(f"max stack depth must be >= 1, got {max_depth}")
        self._registry = registry
        self._interval = 1.0 / hz
        self._max_depth = max_depth
        #: Piggy-backed per-sample work (e.g. the memory tracker's peak
        #: poll) -- runs inside the signal handler, so it must take no lock.
        self._on_tick = on_tick
        self._span_stack: list[Any] = []
        self._previous_handler: Any = None
        self._counter: Counter | None = None
        self._running = False
        self._finished = False
        self._cpu_started = 0.0
        #: ``(span_path, frames) -> sample count`` aggregate.
        self.counts: dict[tuple[str, tuple[str, ...]], int] = {}
        #: ``span_path -> self sample count`` ("" = outside any span).
        self.span_self_samples: dict[str, int] = {}
        #: Total stacks captured.
        self.samples = 0
        #: Process CPU seconds between start and stop.
        self.cpu_seconds = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the ``SIGPROF`` handler and arm the profiling timer."""
        if self._running or self._finished:
            raise ProfError("stack sampler already started")
        if threading.current_thread() is not threading.main_thread():
            raise ProfError("the stack sampler samples the main thread; start it there")
        if not hasattr(signal, "setitimer"):
            raise ProfError("stack sampling needs signal.setitimer (not on this platform)")
        if signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0):
            raise ProfError("the profiling timer is already armed: another profiler is running")
        if self._registry.enabled:
            # Listed (at zero) by the live exposition from the start; the
            # total is added once, at stop.
            self._counter = self._registry.counter(
                PROFILE_SAMPLES, "Stack samples captured by the profiler."
            )
            self._counter.inc(0)
        self._span_stack = self._registry._span_stack()
        self._previous_handler = signal.signal(signal.SIGPROF, self._handle)
        self._running = True
        self._cpu_started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self._interval, self._interval)

    def stop(self) -> None:
        """Disarm the timer, restore the previous handler, seal the aggregates."""
        if not self._running:
            raise ProfError("stack sampler is not running")
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_seconds = time.process_time() - self._cpu_started
        previous = self._previous_handler
        signal.signal(signal.SIGPROF, signal.SIG_DFL if previous is None else previous)
        self._running = False
        self._finished = True
        if self._counter is not None:
            self._counter.inc(self.samples)

    def delivered_hz(self) -> float:
        """Samples per process CPU second of the capture (0 before any)."""
        if self.samples == 0 or self.cpu_seconds <= 0:
            return 0.0
        return self.samples / self.cpu_seconds

    # ------------------------------------------------------------------
    def _handle(self, _signum: int, frame: FrameType | None) -> None:
        stack = self._walk(frame)
        if stack:
            span_path = PATH_SEPARATOR.join(span.name for span in self._span_stack)
            key = (span_path, stack)
            self.counts[key] = self.counts.get(key, 0) + 1
            self.span_self_samples[span_path] = self.span_self_samples.get(span_path, 0) + 1
            self.samples += 1
        if self._on_tick is not None:
            self._on_tick()

    def _walk(self, frame: FrameType | None) -> tuple[str, ...]:
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < self._max_depth:
            code = frame.f_code
            module = frame.f_globals.get("__name__", "?")
            stack.append(frame_label(str(module), code.co_qualname))
            frame = frame.f_back
            depth += 1
        stack.reverse()
        return tuple(stack)


__all__ = ["DEFAULT_HZ", "DEFAULT_MAX_DEPTH", "StackSampler"]
