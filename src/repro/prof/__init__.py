"""Sampling profiler with per-stage resource attribution.

``repro.prof`` answers "where did this run spend its time and memory,
stage by stage" with two low-overhead capture backends correlated
against the live :func:`~repro.obs.spans.trace_span` tree:

* :mod:`repro.prof.sampler` -- a ``SIGPROF``-driven sampler of the main
  thread's stack (process CPU time, default 97 Hz requested)
  aggregating ``module:qualname`` stacks per span path;
* :mod:`repro.prof.memory` -- a span hook recording net memory growth
  and peaks per span path (cheap resident-set reads by default,
  tracemalloc-exact with ``precise_memory=True``);
* :mod:`repro.prof.profile` -- the deterministic data model: collapsed
  stacks (flamegraph.pl), speedscope JSON, top-spans / top-functions
  reports, and the JSON round-trip schema persisted by
  :mod:`repro.runstore`;
* :mod:`repro.prof.profiler` -- the facade gluing it together.

Typical use::

    from repro.obs import MetricsRegistry
    from repro.prof import profile_run
    from repro.runspec import execute

    registry = MetricsRegistry()
    with profile_run(registry) as profiler:
        execute(spec, registry=registry)
    print(profiler.profile.render_report())

or simply ``execute(spec, profile=True)`` / ``repro tables --profile``.
"""

from repro.prof.memory import MemoryTracker
from repro.prof.profile import (
    PATH_SEPARATOR,
    PROFILE_FORMAT,
    PROFILE_VERSION,
    Profile,
    SpanStat,
    StackSample,
    collapse,
    frame_label,
    merge_span_stats,
    parse_collapsed,
)
from repro.prof.profiler import ProfileOptions, Profiler, profile_run
from repro.prof.sampler import DEFAULT_HZ, DEFAULT_MAX_DEPTH, StackSampler

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_MAX_DEPTH",
    "MemoryTracker",
    "PATH_SEPARATOR",
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "Profile",
    "ProfileOptions",
    "Profiler",
    "SpanStat",
    "StackSample",
    "StackSampler",
    "collapse",
    "frame_label",
    "merge_span_stats",
    "parse_collapsed",
    "profile_run",
]
