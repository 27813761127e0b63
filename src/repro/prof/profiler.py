"""The profiler facade: options, lifecycle, profile assembly.

:class:`Profiler` composes the two capture backends -- the
:class:`~repro.prof.sampler.StackSampler` (main-thread CPU time, driven
by ``SIGPROF``) and the :class:`~repro.prof.memory.MemoryTracker`
(allocations, span hook) -- over one live
:class:`~repro.obs.metrics.MetricsRegistry`, whose span tree is the
correlation key for both.  Stopping the profiler seals the aggregates
into a :class:`~repro.prof.profile.Profile`, whose ``hz`` is the rate
the timer actually delivered (samples per process CPU second), so
sample counts convert back into CPU seconds.  A profiler starts and
stops on the main thread, one at a time per process.

Entry points, outermost first:

* ``execute(spec, profile=True)`` -- profile any workload (see
  :func:`repro.runspec.execute.execute`); the profile lands on
  ``RunResult.profile`` and, with a run store, in the ``profiles``
  table.
* :func:`profile_run` -- context-manager form for library code.
* :class:`Profiler` -- explicit start/stop control.

The ``profile=`` parameter accepts ``True`` (defaults), a
:class:`ProfileOptions`, or a mapping of option fields; ``None`` /
``False`` disable profiling entirely (the no-op path costs one ``is
None`` check).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterator, Mapping

from repro.exceptions import ProfError
from repro.obs.metrics import MetricsRegistry
from repro.prof.memory import MemoryTracker
from repro.prof.profile import Profile, StackSample, merge_span_stats
from repro.prof.sampler import DEFAULT_HZ, DEFAULT_MAX_DEPTH, StackSampler


@dataclass(frozen=True)
class ProfileOptions:
    """How to profile a run (all fields optional, validated on build)."""

    #: Requested stack-sampling rate; 0 < hz <= 1000 (default 97, a
    #: prime).  The kernel tick caps what is delivered (see
    #: :mod:`repro.prof.sampler`).
    hz: float = DEFAULT_HZ
    #: Capture per-span memory growth / peaks (resident-set reads at span
    #: boundaries and samples -- effectively free).
    memory: bool = True
    #: Use tracemalloc for exact per-span traced bytes instead of
    #: resident-set reads.  Precise, but taxes every allocation in the
    #: process (several times slower on allocation-heavy workloads);
    #: also implied when tracemalloc is already tracing.
    precise_memory: bool = False
    #: Stack frames kept per sample (deeper stacks truncate at the root).
    max_stack_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self) -> None:
        if not 0 < self.hz <= 1000:
            raise ProfError(f"profile hz must be within (0, 1000], got {self.hz}")
        if self.max_stack_depth < 1:
            raise ProfError(
                f"profile max_stack_depth must be >= 1, got {self.max_stack_depth}"
            )

    @classmethod
    def coerce(cls, value: Any) -> "ProfileOptions | None":
        """Normalise the ``profile=`` parameter of :func:`execute`.

        ``None`` / ``False`` -> no profiling; ``True`` -> defaults; a
        :class:`ProfileOptions` passes through; a mapping builds one
        (unknown keys rejected).
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise ProfError(
                    f"unknown profile option(s) {unknown}; known: {sorted(known)}"
                )
            return cls(**value)
        raise ProfError(
            "profile must be True/False, None, ProfileOptions or a mapping, "
            f"got {type(value).__name__}"
        )


class Profiler:
    """Capture a profile of everything that runs between start and stop."""

    def __init__(
        self, registry: MetricsRegistry, options: ProfileOptions | None = None
    ) -> None:
        if not registry.enabled:
            raise ProfError(
                "profiling needs an enabled MetricsRegistry (the span tree is "
                "the attribution key); pass a real registry, not NULL_REGISTRY"
            )
        self.registry = registry
        self.options = options or ProfileOptions()
        self._sampler: StackSampler | None = None
        self._memory: MemoryTracker | None = None
        self._started_at: float | None = None
        #: The sealed result, set by :meth:`stop`.
        self.profile: Profile | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the sampler (and the memory tracker, unless disabled)."""
        if self._sampler is not None:
            raise ProfError("profiler already started")
        if self.profile is not None:
            raise ProfError("a Profiler is single-use; build a new one")
        memory: MemoryTracker | None = None
        if self.options.memory:
            memory = MemoryTracker(
                self.registry,
                precise=True if self.options.precise_memory else None,
            )
        sampler = StackSampler(
            self.registry,
            hz=self.options.hz,
            max_depth=self.options.max_stack_depth,
            on_tick=memory.poll if memory is not None else None,
        )
        self._started_at = time.perf_counter()
        sampler.start()
        self._sampler = sampler
        if memory is not None:
            memory.start()
            self.registry.add_span_hook(memory)
            self._memory = memory

    def stop(self) -> Profile:
        """Stop capturing and seal the aggregates into a :class:`Profile`."""
        if self._sampler is None or self._started_at is None:
            raise ProfError("profiler is not running")
        duration = time.perf_counter() - self._started_at
        self._sampler.stop()
        if self._memory is not None:
            self.registry.remove_span_hook(self._memory)
            self._memory.stop()
        samples = [
            StackSample(frames=frames, count=count, span_path=span_path)
            for (span_path, frames), count in sorted(self._sampler.counts.items())
        ]
        memory = self._memory
        spans = merge_span_stats(
            self._sampler.span_self_samples,
            memory.allocated if memory is not None else {},
            memory.peaks if memory is not None else {},
            memory.calls if memory is not None else {},
        )
        if memory is None:
            memory_mode = "off"
        else:
            memory_mode = "tracemalloc" if memory.precise else "rss"
        self.profile = Profile(
            hz=self._sampler.delivered_hz() or self.options.hz,
            duration_seconds=duration,
            samples=samples,
            spans=spans,
            memory=memory_mode,
        )
        self._sampler = None
        self._memory = None
        self._started_at = None
        return self.profile

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@contextmanager
def profile_run(
    registry: MetricsRegistry, options: ProfileOptions | None = None
) -> Iterator[Profiler]:
    """Profile a block; read ``profiler.profile`` after the ``with``. ::

        registry = MetricsRegistry()
        with profile_run(registry) as profiler:
            execute(spec, registry=registry)
        print(profiler.profile.render_report())
    """
    profiler = Profiler(registry, options)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()


__all__ = ["ProfileOptions", "Profiler", "profile_run"]
