"""Process-local metrics: counters, gauges, histograms, one registry.

The registry is the unit of observability: every run owns (or is handed)
a :class:`MetricsRegistry`, instrumentation points create named
instruments through it (`counter` / `gauge` / `histogram` are
get-or-create, so call sites never coordinate), and a finished run
snapshots the whole registry into a JSON-round-tripping dictionary
(:meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.from_dict`).

Design points:

* **Injectable, no library globals.**  Every instrumented component
  takes an optional ``registry`` parameter; ``None`` resolves to the
  shared :data:`NULL_REGISTRY`, whose instruments are single no-op
  objects, so uninstrumented hot paths cost one attribute load and a
  no-op call.  The CLI owns the one "default registry" per invocation.
* **Labels.**  Every instrument accepts keyword labels at the
  observation site (``counter.inc(3, detector="inhouse")``); each label
  combination is an independent series, exactly like Prometheus children.
* **Histograms** use fixed exponential bucket bounds shared by every
  series of one histogram, which makes snapshots mergeable across
  processes/shards (bucket-wise addition) and quantile estimates
  (p50/p95/p99) cheap: walk the cumulative counts and interpolate inside
  the target bucket, clamped to the observed min/max.
* **Thread safety.**  One lock per registry guards every mutation; the
  live ``/metrics`` server and the profiler's sampler use it from their
  own threads while the run writes.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator, Mapping

if TYPE_CHECKING:
    from contextlib import AbstractContextManager

    from repro.obs.spans import Span, SpanHook

from repro.exceptions import ObsError
from repro.obs.names import STAGE_SECONDS

#: Default histogram bounds: exponential, 1 microsecond .. ~134 seconds.
#: Chosen for durations (the library's dominant histogram use); a custom
#: ``bounds=`` serves other distributions.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2**i for i in range(28))


def exponential_bounds(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` strictly increasing bucket bounds: ``start * factor**i``.

    The convenience constructor for custom histogram boundaries
    (``registry.histogram(name, bounds=exponential_bounds(1024, 4, 16))``
    covers 1 KiB .. 1 TiB), so distributions that the duration-shaped
    :data:`DEFAULT_BOUNDS` would clip -- byte sizes, request counts --
    get buckets that actually resolve their quantiles.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ObsError(
            "exponential_bounds needs start > 0, factor > 1 and count >= 1, "
            f"got start={start}, factor={factor}, count={count}"
        )
    return tuple(start * factor**i for i in range(count))

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of one label set (order-insensitive)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared shape of every metric: name, kind, help, labelled series."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "", *, lock: threading.Lock | None = None) -> None:
        self.name = name
        self.help = help
        self._lock = lock or threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}

    # ------------------------------------------------------------------
    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        """Every ``(labels, value)`` pair, sorted by label key."""
        for key in sorted(self._series):
            yield dict(key), self._series[key]

    def __len__(self) -> int:
        return len(self._series)


class Counter(_Instrument):
    """A monotonically increasing count of events."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: str) -> None:
        """Count ``amount`` events (must be non-negative)."""
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: str) -> int | float:
        """The current count of one label series (0 when never hit)."""
        return self._series.get(_label_key(labels), 0)

    def total(self) -> int | float:
        """The count summed over every label series."""
        return sum(self._series.values())


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, open sessions)."""

    kind = "gauge"

    def set(self, value: int | float, **labels: str) -> None:
        """Set the gauge of one label series."""
        with self._lock:
            self._series[_label_key(labels)] = value

    def inc(self, amount: int | float = 1, **labels: str) -> None:
        """Add ``amount`` (may be negative) to one label series."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: int | float = 1, **labels: str) -> None:
        """Subtract ``amount`` from one label series."""
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> int | float:
        """The current value of one label series (0 when never set)."""
        return self._series.get(_label_key(labels), 0)


class _HistogramSeries:
    """One label combination's distribution state."""

    __slots__ = ("buckets", "sum", "count", "min", "max")

    def __init__(self, bound_count: int) -> None:
        # One slot per finite bound plus the overflow bucket.
        self.buckets = [0] * (bound_count + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Instrument):
    """A distribution over fixed exponential buckets with quantile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        bounds: tuple[float, ...] | None = None,
        lock: threading.Lock | None = None,
    ) -> None:
        super().__init__(name, help, lock=lock)
        bounds = DEFAULT_BOUNDS if bounds is None else tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObsError(f"histogram {self.name!r} needs strictly increasing bounds")
        self.bounds = bounds

    # ------------------------------------------------------------------
    def _bucket_index(self, value: float) -> int:
        # Exponential bounds are few (28 by default); a linear scan with
        # an early exit beats bisect's call overhead for small values,
        # which dominate duration observations.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    def observe(self, value: int | float, **labels: str) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds))
            series.buckets[self._bucket_index(value)] += 1
            series.sum += value
            series.count += 1
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    # ------------------------------------------------------------------
    def _get(self, labels: Mapping[str, str]) -> _HistogramSeries | None:
        return self._series.get(_label_key(labels))

    def count(self, **labels: str) -> int:
        """Number of observations in one label series."""
        series = self._get(labels)
        return 0 if series is None else series.count

    def sum(self, **labels: str) -> float:
        """Sum of all observations in one label series."""
        series = self._get(labels)
        return 0.0 if series is None else series.sum

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile of one label series.

        Walks the cumulative bucket counts to the target rank and
        interpolates linearly inside the bucket, clamping the bucket
        edges to the observed min/max (so a single observation reports
        itself exactly, and the top bucket never extrapolates past the
        largest value seen).
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be within [0, 1], got {q}")
        series = self._get(labels)
        if series is None or series.count == 0:
            return 0.0
        target = q * series.count
        cumulative = 0.0
        for index, bucket_count in enumerate(series.buckets):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                low = self.bounds[index - 1] if index > 0 else series.min
                high = self.bounds[index] if index < len(self.bounds) else series.max
                low = max(low, series.min)
                high = min(high, series.max)
                if high <= low:
                    return low
                fraction = max(0.0, target - cumulative) / bucket_count
                return low + (high - low) * fraction
            cumulative += bucket_count
        return series.max

    def percentiles(self, **labels: str) -> dict[str, float]:
        """The standard p50/p95/p99/p999 summary of one label series."""
        return {
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
            "p999": self.quantile(0.999, **labels),
        }


class MetricsRegistry:
    """The process-local home of every instrument of one run.

    Instruments are get-or-create by name: two call sites asking for the
    same counter share the same object; asking for an existing name with
    a different kind (or different histogram bounds) fails loudly.
    """

    #: False only on :class:`NullRegistry`: instrumentation points that
    #: would pay per-event overhead (per-record timers) check this flag.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}
        #: Completed root spans, in completion order (see repro.obs.spans).
        self.spans: list[Any] = []
        self._span_stacks = threading.local()
        #: thread ident -> the tuple of span names currently open on that
        #: thread (root first).  Written by ``trace_span`` on the owning
        #: thread only; read cross-thread by the sampling profiler, which
        #: is safe because tuple replacement is atomic under the GIL.
        self._span_paths: dict[int, tuple[str, ...]] = {}
        self._span_hooks: list[SpanHook] = []

    # ------------------------------------------------------------------
    def _get_or_create(self, cls: type[Any], name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, lock=self._lock, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls) or type(metric) is not cls:
            raise ObsError(
                f"metric {name!r} already registered as a {metric.kind}, "
                f"requested as a {cls.kind}"
            )
        if cls is Histogram:
            bounds = kwargs.get("bounds")
            if bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
                raise ObsError(f"histogram {name!r} already registered with other bounds")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """Get or create a histogram (bounds fixed at first creation)."""
        return self._get_or_create(Histogram, name, help, bounds=bounds)

    # ------------------------------------------------------------------
    def metrics(self) -> list[_Instrument]:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> _Instrument | None:
        """One instrument by name, or ``None``."""
        return self._metrics.get(name)

    def span(self, name: str, **attributes: Any) -> AbstractContextManager[Span]:
        """Open a traced stage span (see :func:`repro.obs.spans.trace_span`)."""
        from repro.obs.spans import trace_span

        return trace_span(name, registry=self, **attributes)

    def _span_stack(self) -> list[Any]:
        stack = getattr(self._span_stacks, "stack", None)
        if stack is None:
            stack = self._span_stacks.stack = []
        return stack

    # ------------------------------------------------------------------
    def add_span_hook(self, hook: SpanHook) -> None:
        """Observe every span enter/exit (see :class:`repro.obs.spans.SpanHook`)."""
        with self._lock:
            if hook not in self._span_hooks:
                self._span_hooks = [*self._span_hooks, hook]

    def remove_span_hook(self, hook: SpanHook) -> None:
        """Stop observing span boundaries (unknown hooks are ignored)."""
        with self._lock:
            self._span_hooks = [h for h in self._span_hooks if h is not hook]

    def active_span_paths(self) -> dict[int, tuple[str, ...]]:
        """thread ident -> the span path currently open on that thread.

        A point-in-time snapshot (threads between spans are absent); this
        is the correlation surface the sampling profiler reads to
        attribute each captured stack to the stage it ran under.
        """
        return {ident: path for ident, path in self._span_paths.items() if path}

    # ------------------------------------------------------------------
    def stage_timings(self) -> dict[str, float]:
        """Total seconds per traced stage -- the derived ``timings`` view.

        Reads the :data:`~repro.obs.names.STAGE_SECONDS` histogram every
        span exit feeds, so any workload instrumented with spans reports
        per-stage timings uniformly, batch and stream alike.
        """
        stage_hist = self._metrics.get(STAGE_SECONDS)
        if not isinstance(stage_hist, Histogram):
            return {}
        timings: dict[str, float] = {}
        for labels, series in stage_hist.series():
            stage = labels.get("stage")
            if stage is not None:
                timings[stage] = timings.get(stage, 0.0) + series.sum
        return timings

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The whole registry as a JSON-ready snapshot (round-trips)."""
        metrics: dict[str, Any] = {}
        with self._lock:
            instruments = dict(self._metrics)
            spans = list(self.spans)
        for name in sorted(instruments):
            metric = instruments[name]
            entry: dict[str, Any] = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                entry["series"] = [
                    {
                        "labels": labels,
                        "buckets": list(series.buckets),
                        "sum": series.sum,
                        "count": series.count,
                        "min": series.min if series.count else None,
                        "max": series.max if series.count else None,
                    }
                    for labels, series in metric.series()
                ]
            else:
                entry["series"] = [
                    {"labels": labels, "value": value} for labels, value in metric.series()
                ]
            metrics[name] = entry
        return {
            "format": "repro-obs",
            "version": 1,
            "metrics": metrics,
            "spans": [span.to_dict() for span in spans],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        from repro.obs.spans import Span

        if not isinstance(data, Mapping):
            raise ObsError(f"a metrics snapshot must be a mapping, got {type(data).__name__}")
        if data.get("format") != "repro-obs":
            raise ObsError("not a repro-obs metrics snapshot (missing format marker)")
        registry = cls()
        registry.merge(data)
        registry.spans = [Span.from_dict(span) for span in data.get("spans", [])]
        return registry

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot into this registry (counters/histograms add).

        Gauges take the snapshot's value (last write wins); histogram
        bounds must match.  This is how per-shard or per-process metric
        state aggregates into one registry, and how tooling sums
        snapshots across runs.
        """
        try:
            metrics = snapshot["metrics"]
        except (KeyError, TypeError) as exc:
            raise ObsError("metrics snapshot has no 'metrics' section") from exc
        for name, entry in metrics.items():
            kind = entry.get("kind")
            if kind == "counter":
                counter = self.counter(name, entry.get("help", ""))
                for series in entry.get("series", []):
                    counter.inc(series["value"], **series.get("labels", {}))
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("help", ""))
                for series in entry.get("series", []):
                    gauge.set(series["value"], **series.get("labels", {}))
            elif kind == "histogram":
                bounds = tuple(float(b) for b in entry.get("bounds", ()))
                histogram = self.histogram(name, entry.get("help", ""), bounds=bounds or None)
                if bounds and bounds != histogram.bounds:
                    raise ObsError(f"cannot merge histogram {name!r}: bucket bounds differ")
                for series in entry.get("series", []):
                    self._merge_histogram_series(histogram, series)
            else:
                raise ObsError(f"metric {name!r} has unknown kind {kind!r}")

    @staticmethod
    def _merge_histogram_series(histogram: Histogram, data: Mapping[str, Any]) -> None:
        key = _label_key(data.get("labels", {}))
        buckets = list(data["buckets"])
        if len(buckets) != len(histogram.bounds) + 1:
            raise ObsError(f"histogram {histogram.name!r} snapshot has wrong bucket count")
        with histogram._lock:
            series = histogram._series.get(key)
            if series is None:
                series = histogram._series[key] = _HistogramSeries(len(histogram.bounds))
            for index, count in enumerate(buckets):
                series.buckets[index] += count
            series.sum += data.get("sum", 0.0)
            series.count += data.get("count", 0)
            if data.get("min") is not None:
                series.min = min(series.min, data["min"])
            if data.get("max") is not None:
                series.max = max(series.max, data["max"])


# ----------------------------------------------------------------------
# The disabled registry: one shared no-op of everything
# ----------------------------------------------------------------------
class _NullInstrument:
    """A single object answering every instrument call with nothing."""

    name = ""
    help = ""
    bounds = DEFAULT_BOUNDS

    def inc(self, *args: Any, **kwargs: Any) -> None:
        pass

    def dec(self, *args: Any, **kwargs: Any) -> None:
        pass

    def set(self, *args: Any, **kwargs: Any) -> None:
        pass

    def observe(self, *args: Any, **kwargs: Any) -> None:
        pass

    def value(self, **labels: str) -> int:
        return 0

    def total(self) -> int:
        return 0

    def count(self, **labels: str) -> int:
        return 0

    def sum(self, **labels: str) -> float:
        return 0.0

    def quantile(self, q: float, **labels: str) -> float:
        return 0.0

    def percentiles(self, **labels: str) -> dict[str, float]:
        return {}

    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        return iter(())

    def __len__(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The no-op registry uninstrumented runs resolve to.

    Every instrument accessor returns the same inert object and
    :attr:`enabled` is False, so per-event instrumentation (per-record
    timers, span bookkeeping) short-circuits to near-zero cost.
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", *, bounds: tuple[float, ...] | None = None
    ) -> Histogram:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        pass


#: The shared disabled registry; ``registry or NULL_REGISTRY`` is the
#: canonical resolution of an optional registry parameter.
NULL_REGISTRY = NullRegistry()


def resolve_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry`` itself, or the shared :data:`NULL_REGISTRY` for ``None``."""
    return registry if registry is not None else NULL_REGISTRY
