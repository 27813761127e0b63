"""Diffing stored runs: spec deltas, metric deltas, telemetry deltas.

The paper's claims are comparative, so the store's primary read path is
comparative too: :func:`diff_runs` takes two stored runs and reports

* **spec changes** -- every leaf of the two spec trees that differs, as
  flattened dot paths (``traffic.scale: 0.02 -> 0.1``),
* **metric deltas** -- every numeric ``RunResult.metrics`` entry,
* **counter deltas** -- every labelled counter series of the stored
  telemetry snapshots (``repro_detector_alerts_total{detector=inhouse}``),
* **quantile deltas** -- p50/p95/p99/p999 of every labelled histogram
  series,
* **timing deltas** -- the per-stage ``RunResult.timings`` seconds,
* **profile deltas** -- per-span self time and peak traced memory, when
  both runs carry a :mod:`repro.prof` capture.

A delta whose relative change exceeds a configurable threshold is a
*regression candidate*; ``repro runs diff --fail-on-regression`` exits
non-zero when any exists, which is the CI hook for longitudinal
perf/behaviour tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import StoreError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runstore.store import RunStore, RunSummary

#: Default relative-change fraction above which a delta is a regression.
DEFAULT_THRESHOLD = 0.2

#: Quantiles reported per histogram series.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


@dataclass(frozen=True)
class Delta:
    """One numeric quantity in both runs, with its relative change."""

    #: Flattened name (``metrics.kappa``, ``counter.repro_..._total{detector=x}``).
    name: str
    left: float
    right: float

    @property
    def delta(self) -> float:
        return self.right - self.left

    @property
    def change(self) -> float:
        """Relative change versus the left run (``inf`` from a zero base)."""
        if self.left == 0.0:
            return 0.0 if self.right == 0.0 else float("inf")
        return (self.right - self.left) / abs(self.left)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "delta": self.delta,
            "change": self.change,
        }


def _flatten(tree: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Leaves of a nested mapping as dot-path keys (lists stay values)."""
    flat: dict[str, Any] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def diff_specs(
    left: Mapping[str, Any] | None, right: Mapping[str, Any] | None
) -> dict[str, tuple[Any, Any]]:
    """Every differing spec leaf as ``path -> (left_value, right_value)``."""
    left_flat = _flatten(left or {})
    right_flat = _flatten(right or {})
    changes: dict[str, tuple[Any, Any]] = {}
    for path in sorted(set(left_flat) | set(right_flat)):
        left_value = left_flat.get(path)
        right_value = right_flat.get(path)
        if left_value != right_value:
            changes[path] = (left_value, right_value)
    return changes


def _series_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _numeric_deltas(
    prefix: str, left: Mapping[str, Any], right: Mapping[str, Any]
) -> list[Delta]:
    deltas = []
    for name in sorted(set(left) | set(right)):
        left_value, right_value = left.get(name, 0), right.get(name, 0)
        if isinstance(left_value, bool) or isinstance(right_value, bool):
            continue
        if not isinstance(left_value, (int, float)) or not isinstance(
            right_value, (int, float)
        ):
            continue
        deltas.append(Delta(f"{prefix}.{name}", float(left_value), float(right_value)))
    return deltas


def _counter_values(telemetry: Mapping[str, Any] | None) -> dict[str, float]:
    """Every labelled counter series of a telemetry snapshot, flattened."""
    values: dict[str, float] = {}
    if not telemetry:
        return values
    for name, entry in telemetry.get("metrics", {}).items():
        if entry.get("kind") != "counter":
            continue
        for series in entry.get("series", []):
            key = name + _series_suffix(series.get("labels", {}))
            values[key] = values.get(key, 0.0) + float(series.get("value", 0))
    return values


def _quantile_values(telemetry: Mapping[str, Any] | None) -> dict[str, float]:
    """p50/p95/p99 of every labelled histogram series of a snapshot.

    The snapshot is rebuilt through :class:`MetricsRegistry` so the
    quantile estimates here are *exactly* the ones the live run would
    have reported -- same bucket interpolation, same min/max clamping.
    """
    values: dict[str, float] = {}
    if not telemetry:
        return values
    registry = MetricsRegistry.from_dict(dict(telemetry))
    for metric in registry.metrics():
        if not isinstance(metric, Histogram):
            continue
        for labels, _series in metric.series():
            suffix = _series_suffix(labels)
            for quantile_name, q in QUANTILES:
                values[f"{metric.name}{suffix}.{quantile_name}"] = metric.quantile(
                    q, **labels
                )
    return values


def _profile_values(
    profile: Mapping[str, Any] | None, *, memory: bool = True
) -> dict[str, float]:
    """Per-span self time and peak memory of a stored profile capture.

    Self time is the span's self sample count over the delivered
    sampling rate: CPU seconds (the sampler counts process CPU time, so
    a span that waits shows little).  It is a statistical estimate, but
    its *relative* change between two profiled runs of the same spec
    tracks real hot-path drift.  Memory figures are only meaningful
    against a capture of the same mode (resident-set watermarks vs
    tracemalloc traced bytes differ by orders of magnitude), so the
    caller disables them via ``memory=`` when the two profiles' modes
    disagree.
    """
    values: dict[str, float] = {}
    if not profile:
        return values
    hz = float(profile.get("hz") or 0.0)
    for span in profile.get("spans", []):
        path = span.get("path", "")
        if not path:
            continue
        suffix = "{path=" + path + "}"
        if hz > 0:
            values[f"span{suffix}.self_seconds"] = float(span.get("self_samples", 0)) / hz
        if memory:
            values[f"span{suffix}.peak_bytes"] = float(span.get("peak_bytes", 0))
    return values


@dataclass
class RunDiff:
    """Everything that differs (or could regress) between two stored runs."""

    left: RunSummary
    right: RunSummary
    spec_changes: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    metrics: list[Delta] = field(default_factory=list)
    counters: list[Delta] = field(default_factory=list)
    quantiles: list[Delta] = field(default_factory=list)
    timings: list[Delta] = field(default_factory=list)
    profile: list[Delta] = field(default_factory=list)

    # ------------------------------------------------------------------
    def deltas(self) -> list[Delta]:
        """Every numeric delta, across all five sections."""
        return [
            *self.metrics,
            *self.counters,
            *self.quantiles,
            *self.timings,
            *self.profile,
        ]

    def regressions(self, threshold: float = DEFAULT_THRESHOLD) -> list[Delta]:
        """Deltas whose relative change exceeds ``threshold``.

        Wall-clock quantities (timings and the duration histograms) are
        inherently noisy across machines, so they are reported in the
        diff but never counted as regressions; behaviour counters and
        result metrics are deterministic for a given spec and count.
        Profile spans *are* candidates -- both runs opted into profiling,
        so a span whose self time or peak memory moved past the
        threshold is exactly the longitudinal signal the capture exists
        to flag.  The profiler's *own* counters (``repro_profile_*``:
        sample totals, span byte counters) are excluded: they scale with
        wall clock and capture mode, and the curated per-span profile
        deltas already carry that signal.
        """
        if threshold < 0:
            raise StoreError("regression threshold must be non-negative")
        behaviour_counters = [
            delta
            for delta in self.counters
            if not delta.name.startswith("counter.repro_profile_")
        ]
        candidates = [*self.metrics, *behaviour_counters, *self.profile]
        flagged = [
            delta for delta in candidates if abs(delta.change) > threshold
        ]
        flagged.sort(key=lambda delta: -abs(delta.change))
        return flagged

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "spec_changes": {
                path: {"left": values[0], "right": values[1]}
                for path, values in self.spec_changes.items()
            },
            "metrics": [delta.to_dict() for delta in self.metrics],
            "counters": [delta.to_dict() for delta in self.counters],
            "quantiles": [delta.to_dict() for delta in self.quantiles],
            "timings": [delta.to_dict() for delta in self.timings],
            "profile": [delta.to_dict() for delta in self.profile],
        }

    def render(self, *, threshold: float = DEFAULT_THRESHOLD, all_deltas: bool = False) -> str:
        """A human-readable diff report.

        By default only *changed* quantities print (plus every spec
        change); ``all_deltas=True`` prints unchanged ones too.
        """
        lines = [
            f"run #{self.left.run_id} ({self.left.mode}, {self.left.source}) -> "
            f"run #{self.right.run_id} ({self.right.mode}, {self.right.source})"
        ]
        if self.left.spec_hash == self.right.spec_hash:
            lines.append(f"same spec (series {self.left.spec_hash[:12]}): re-run comparison")
        if self.spec_changes:
            lines.append("")
            lines.append("spec changes:")
            for path, (left_value, right_value) in self.spec_changes.items():
                lines.append(f"  {path}: {left_value!r} -> {right_value!r}")
        regressions = {delta.name for delta in self.regressions(threshold)}
        for title, deltas in (
            ("metrics", self.metrics),
            ("telemetry counters", self.counters),
            ("telemetry quantiles", self.quantiles),
            ("timings (seconds)", self.timings),
            ("profile spans", self.profile),
        ):
            shown = [d for d in deltas if all_deltas or d.delta != 0.0]
            if not shown:
                continue
            lines.append("")
            lines.append(f"{title}:")
            for delta in shown:
                change = (
                    "new" if delta.change == float("inf") else f"{delta.change:+.1%}"
                )
                marker = "  << regression" if delta.name in regressions else ""
                lines.append(
                    f"  {delta.name}: {delta.left:g} -> {delta.right:g} ({change}){marker}"
                )
        if len(lines) == 1:
            lines.append("no differences")
        return "\n".join(lines)


def diff_results(
    left_summary: RunSummary,
    right_summary: RunSummary,
    left_data: Mapping[str, Any],
    right_data: Mapping[str, Any],
) -> RunDiff:
    """Build a :class:`RunDiff` from two exported run dictionaries."""
    _left_profile = left_data.get("profile") or {}
    _right_profile = right_data.get("profile") or {}
    _same_memory_mode = _left_profile.get("memory", "rss") == _right_profile.get(
        "memory", "rss"
    )
    return RunDiff(
        left=left_summary,
        right=right_summary,
        spec_changes=diff_specs(left_data.get("spec"), right_data.get("spec")),
        metrics=_numeric_deltas(
            "metrics", left_data.get("metrics", {}), right_data.get("metrics", {})
        )
        + _numeric_deltas(
            "alert_counts",
            left_data.get("alert_counts", {}),
            right_data.get("alert_counts", {}),
        ),
        counters=_numeric_deltas(
            "counter",
            _counter_values(left_data.get("telemetry")),
            _counter_values(right_data.get("telemetry")),
        ),
        quantiles=_numeric_deltas(
            "quantile",
            _quantile_values(left_data.get("telemetry")),
            _quantile_values(right_data.get("telemetry")),
        ),
        timings=_numeric_deltas(
            "timings", left_data.get("timings", {}), right_data.get("timings", {})
        ),
        # Span-level comparison only makes sense when both runs were
        # profiled; against an unprofiled run every span would read as an
        # infinite "regression".  Memory figures additionally require the
        # same capture mode on both sides.
        profile=(
            _numeric_deltas(
                "profile",
                _profile_values(left_data.get("profile"), memory=_same_memory_mode),
                _profile_values(right_data.get("profile"), memory=_same_memory_mode),
            )
            if left_data.get("profile") and right_data.get("profile")
            else []
        ),
    )


def diff_runs(store: RunStore, left_id: int, right_id: int) -> RunDiff:
    """Diff two runs of one store by id (see module docstring)."""
    return diff_results(
        store.get(left_id),
        store.get(right_id),
        store.export(left_id),
        store.export(right_id),
    )
