"""Per-span allocation and peak-memory capture.

A :class:`MemoryTracker` is a :class:`~repro.obs.spans.SpanHook`: it
reads a process memory counter at every span boundary and attributes
the deltas to span paths:

* **net growth** per path -- bytes at close minus at open, summed over
  activations (negative when a stage releases more than it retains);
* **peak bytes** per path -- the highest watermark observed inside any
  activation, propagated to parent spans so a parent's peak is at least
  every child's.

Two capture modes share that bookkeeping:

* **resident-set mode** (the default) -- the counter is the process's
  resident set size read from ``/proc/self/statm`` (one small read per
  boundary, plus one per stack sample to keep peaks honest between
  boundaries).  Allocator-level churn that never grows the footprint is
  invisible, but the mode costs nothing measurable, which is what lets
  ``--profile`` default to memory capture.
* **precise mode** (``ProfileOptions(precise_memory=True)``, or
  automatic when ``tracemalloc`` is already tracing, e.g. under
  ``python -X tracemalloc``) -- the counter is
  ``tracemalloc.get_traced_memory()``, with ``tracemalloc.reset_peak()``
  at each boundary, so the figures are exact traced bytes.  Tracemalloc
  pays a per-allocation tax for the whole process (several times slower
  on allocation-heavy workloads), so precision is an explicit opt-in.
  Tracing starts with one captured frame per allocation
  (``tracemalloc.start(1)``): attribution comes from the span tree, not
  from allocation stacks.

The tracker follows the main thread's spans, like the stack sampler;
hook calls from any other thread return at once.  The watermark is
process-global, so memory that other threads allocate while a
main-thread span is open counts towards that span.  Nothing here takes
a lock: :meth:`MemoryTracker.poll` runs inside the sampler's signal
handler, which can interrupt a span hook at any bytecode.  On platforms
without ``/proc/self/statm`` the tracker falls back to precise mode.
"""

from __future__ import annotations

import os
import threading
import tracemalloc

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.names import PROFILE_SPAN_ALLOC_BYTES, PROFILE_SPAN_PEAK_BYTES
from repro.obs.spans import Span
from repro.prof.profile import PATH_SEPARATOR

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> int | None:
    """The process's resident set size, or ``None`` when unreadable."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


class _OpenSpanMemory:
    """Memory bookkeeping of one still-open span activation."""

    __slots__ = ("start_current", "running_peak")

    def __init__(self, current: int) -> None:
        self.start_current = current
        self.running_peak = current


class MemoryTracker:
    """Span hook attributing memory growth and peaks to span paths."""

    def __init__(self, registry: MetricsRegistry, *, precise: bool | None = None) -> None:
        self._registry = registry
        #: ``None`` resolves at :meth:`start`: precise iff tracemalloc is
        #: already tracing (or resident-set reads are unavailable).
        self._precise_requested = precise
        self.precise = False
        self._started_tracing = False
        self._main_ident = threading.main_thread().ident
        #: The main thread's open span activations, innermost last.
        self._stack: list[_OpenSpanMemory] = []
        self._alloc_counter: Counter | None = None
        self._peak_gauge: Gauge | None = None
        #: ``span_path -> net bytes`` across all activations.
        self.allocated: dict[str, int] = {}
        #: ``span_path -> peak bytes`` inside any activation.
        self.peaks: dict[str, int] = {}
        #: ``span_path -> activation count``.
        self.calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Resolve the capture mode and begin tracking."""
        if self._precise_requested is None:
            self.precise = tracemalloc.is_tracing() or _rss_bytes() is None
        else:
            self.precise = self._precise_requested or _rss_bytes() is None
        if self.precise and not tracemalloc.is_tracing():
            tracemalloc.start(1)
            self._started_tracing = True
        if self._registry.enabled:
            self._alloc_counter = self._registry.counter(
                PROFILE_SPAN_ALLOC_BYTES, "Net bytes allocated inside each span path."
            )
            self._peak_gauge = self._registry.gauge(
                PROFILE_SPAN_PEAK_BYTES, "Peak traced memory inside each span path."
            )

    def stop(self) -> None:
        """Stop tracemalloc if this tracker started it."""
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False

    # ------------------------------------------------------------------
    def _current(self) -> int:
        if self.precise:
            return tracemalloc.get_traced_memory()[0]
        return _rss_bytes() or 0

    def poll(self) -> None:
        """Refresh the innermost open span's running peak (per-sample hook).

        In precise mode tracemalloc maintains its own watermark and this
        is a no-op; in resident-set mode each sample bumps the innermost
        open span, so a spike that rises and falls between two boundary
        reads is still attributed.
        """
        if self.precise or not self._stack:
            return
        top = self._stack[-1]
        current = self._current()
        if current > top.running_peak:
            top.running_peak = current

    # ------------------------------------------------------------------
    # SpanHook interface (called inline on the instrumented thread).
    def span_opened(self, path: tuple[str, ...]) -> None:
        if threading.get_ident() != self._main_ident:
            return
        self._stack.append(_OpenSpanMemory(self._current()))
        if self.precise:
            tracemalloc.reset_peak()

    def span_closed(self, span: Span, path: tuple[str, ...]) -> None:
        if threading.get_ident() != self._main_ident or not self._stack:
            # Another thread's span, or one that opened before this hook
            # attached: nothing to close.
            return
        if self.precise:
            current, peak = tracemalloc.get_traced_memory()
        else:
            current, peak = self._current(), 0
        stack = self._stack
        record = stack.pop()
        self_peak = max(record.running_peak, peak, current)
        net = current - record.start_current
        key = PATH_SEPARATOR.join(path)
        self.allocated[key] = self.allocated.get(key, 0) + net
        if self_peak > self.peaks.get(key, 0):
            self.peaks[key] = self_peak
        self.calls[key] = self.calls.get(key, 0) + 1
        if stack and self_peak > stack[-1].running_peak:
            stack[-1].running_peak = self_peak
        if self.precise:
            # Restart the watermark for whatever runs after this span.
            tracemalloc.reset_peak()
        if self._alloc_counter is not None and net > 0:
            self._alloc_counter.inc(net, span=key)
        if self._peak_gauge is not None:
            self._peak_gauge.set(self_peak, span=key)


__all__ = ["MemoryTracker"]
