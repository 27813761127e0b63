"""The profile artifact: aggregated stacks, per-span stats, exporters.

A :class:`Profile` is what one profiled run produces: deterministic,
JSON-round-tripping aggregates -- never raw events -- so profiles are
cheap to persist in the run store and stable to diff across runs.

Three views come out of one profile:

* **collapsed stacks** (:meth:`Profile.collapsed`) -- the
  ``frame;frame;frame count`` text format ``flamegraph.pl`` and most
  flame-graph tooling consume.  Span-path components lead each stack, so
  the rendered flame graph groups by pipeline stage
  (``tables;sessionize;repro.columns.sessionize:...``).
* **speedscope JSON** (:meth:`Profile.speedscope`) -- the
  `speedscope.app <https://www.speedscope.app>`_ sampled-profile schema,
  for interactive exploration.
* **text report** (:meth:`Profile.render_report`) -- top spans by self
  time (with allocation / peak-memory attribution) and top functions by
  self samples, for terminals and CI logs.

The collapsed format round-trips exactly: ``collapse(parse_collapsed(
collapse(samples)))`` is byte-identical to ``collapse(samples)``, which
is what makes the export a dependable interchange surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.exceptions import ProfError

#: Format marker of the profile JSON schema (see :meth:`Profile.to_dict`).
PROFILE_FORMAT = "repro-prof"
PROFILE_VERSION = 1

#: Separator between span names in a span *path* ("tables/sessionize").
PATH_SEPARATOR = "/"


def frame_label(module: str, qualname: str) -> str:
    """The canonical ``module:qualname`` label of one stack frame.

    Collapsed stacks delimit frames with ``;`` and the trailing count
    with a space, so both characters are rewritten; the label otherwise
    keeps the dotted module path and the full qualified function name.
    """
    label = f"{module}:{qualname}"
    return label.replace(";", ",").replace(" ", "_")


@dataclass(frozen=True)
class StackSample:
    """One aggregated call stack: where samples landed, how often.

    ``frames`` is the captured Python stack, root first; ``span_path``
    is the ``/``-joined span tree position the samples occurred under
    (empty when the thread was between spans).
    """

    frames: tuple[str, ...]
    count: int
    span_path: str = ""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ProfError(f"a stack sample needs a positive count, got {self.count}")
        if not self.frames:
            raise ProfError("a stack sample needs at least one frame")

    def stack(self) -> tuple[str, ...]:
        """The exported stack: span-path components, then code frames."""
        if not self.span_path:
            return self.frames
        return (*self.span_path.split(PATH_SEPARATOR), *self.frames)

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_path": self.span_path,
            "frames": list(self.frames),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StackSample":
        try:
            return cls(
                frames=tuple(str(frame) for frame in data["frames"]),
                count=int(data["count"]),
                span_path=str(data.get("span_path", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfError(f"malformed stack-sample entry: {exc}") from exc


@dataclass(frozen=True)
class SpanStat:
    """Per-span-path resource attribution of one profiled run.

    ``self_samples`` counts stacks captured while this exact path was
    the innermost open span; ``total_samples`` additionally includes
    every descendant path.  ``alloc_bytes`` is the *net* traced
    allocation across the span's activations (negative when a span frees
    more than it allocates), ``peak_bytes`` the highest traced memory
    watermark observed inside any activation.
    """

    path: str
    self_samples: int = 0
    total_samples: int = 0
    calls: int = 0
    alloc_bytes: int = 0
    peak_bytes: int = 0

    def self_seconds(self, hz: float) -> float:
        """Estimated self CPU seconds (samples over the sampling rate)."""
        return self.self_samples / hz if hz > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "self_samples": self.self_samples,
            "total_samples": self.total_samples,
            "calls": self.calls,
            "alloc_bytes": self.alloc_bytes,
            "peak_bytes": self.peak_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanStat":
        try:
            return cls(
                path=str(data["path"]),
                self_samples=int(data.get("self_samples", 0)),
                total_samples=int(data.get("total_samples", 0)),
                calls=int(data.get("calls", 0)),
                alloc_bytes=int(data.get("alloc_bytes", 0)),
                peak_bytes=int(data.get("peak_bytes", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfError(f"malformed span-stat entry: {exc}") from exc


# ----------------------------------------------------------------------
# Collapsed-stack text (flamegraph.pl interchange)
# ----------------------------------------------------------------------
def collapse(samples: Iterable[StackSample]) -> str:
    """The collapsed-stack text of ``samples`` (deterministic, aggregated).

    One ``frame;frame;frame count`` line per distinct exported stack,
    duplicate stacks summed, lines sorted -- so identical sample sets
    always produce byte-identical output.
    """
    totals: dict[tuple[str, ...], int] = {}
    for sample in samples:
        stack = sample.stack()
        totals[stack] = totals.get(stack, 0) + sample.count
    lines = [f"{';'.join(stack)} {count}" for stack, count in sorted(totals.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> tuple[StackSample, ...]:
    """Parse collapsed-stack text back into aggregated samples.

    The inverse of :func:`collapse` up to span attribution: parsed
    samples carry the full exported stack as ``frames`` and an empty
    ``span_path`` (the text format does not distinguish span components
    from code frames), so ``collapse(parse_collapsed(text))`` is
    byte-identical to a canonical ``text``.
    """
    totals: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text:
            raise ProfError(f"collapsed line {lineno} has no stack: {line!r}")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ProfError(
                f"collapsed line {lineno} has a non-integer count: {line!r}"
            ) from exc
        if count < 1:
            raise ProfError(f"collapsed line {lineno} has a non-positive count: {line!r}")
        frames = tuple(stack_text.split(";"))
        if any(not frame for frame in frames):
            raise ProfError(f"collapsed line {lineno} has an empty frame: {line!r}")
        totals[frames] = totals.get(frames, 0) + count
    return tuple(
        StackSample(frames=frames, count=count) for frames, count in sorted(totals.items())
    )


# ----------------------------------------------------------------------
# The profile artifact
# ----------------------------------------------------------------------
@dataclass
class Profile:
    """Everything one profiled run captured, aggregated and orderable."""

    #: Sampling rate the stack sampler delivered: samples per process
    #: CPU second of the capture (sample counts over it are CPU seconds).
    hz: float
    #: Wall-clock seconds between profiler start and stop.
    duration_seconds: float
    #: Aggregated call stacks, sorted by exported stack.
    samples: list[StackSample] = field(default_factory=list)
    #: Per-span-path attribution, sorted by path.
    spans: list[SpanStat] = field(default_factory=list)
    #: How the span memory figures were captured: ``"rss"`` (resident-set
    #: watermarks), ``"tracemalloc"`` (exact traced bytes) or ``"off"``.
    #: Figures from different modes are not comparable -- ``diff_runs``
    #: only compares span memory between profiles of the same mode.
    memory: str = "rss"

    # ------------------------------------------------------------------
    def sample_count(self) -> int:
        """Total captured stack samples across all aggregated stacks."""
        return sum(sample.count for sample in self.samples)

    def span(self, path: str) -> SpanStat:
        """One span path's stats (raises :class:`ProfError` when absent)."""
        for stat in self.spans:
            if stat.path == path:
                return stat
        raise ProfError(
            f"profile has no span path {path!r}; "
            f"available: {[stat.path for stat in self.spans]}"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The profile as a JSON-ready snapshot (round-trips)."""
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "hz": self.hz,
            "duration_seconds": self.duration_seconds,
            "memory": self.memory,
            "sample_count": self.sample_count(),
            "samples": [sample.to_dict() for sample in self.samples],
            "spans": [stat.to_dict() for stat in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Profile":
        """Rebuild a profile from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise ProfError(f"a profile must be a mapping, got {type(data).__name__}")
        if data.get("format") != PROFILE_FORMAT:
            raise ProfError("not a repro-prof profile (missing format marker)")
        try:
            hz = float(data["hz"])
            duration = float(data["duration_seconds"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfError(f"malformed profile header: {exc}") from exc
        return cls(
            hz=hz,
            duration_seconds=duration,
            samples=[StackSample.from_dict(entry) for entry in data.get("samples", [])],
            spans=[SpanStat.from_dict(entry) for entry in data.get("spans", [])],
            memory=str(data.get("memory", "rss")),
        )

    # ------------------------------------------------------------------
    def collapsed(self) -> str:
        """flamegraph.pl-compatible collapsed-stack text (see :func:`collapse`)."""
        return collapse(self.samples)

    def speedscope(self, name: str = "repro profile") -> dict[str, Any]:
        """The profile as a speedscope ``sampled`` document.

        Aggregated stacks become weighted samples (weight = seconds the
        stack accounts for at the sampling rate), so the file opens
        directly in speedscope.app with correct proportions.
        """
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        sample_stacks: list[list[int]] = []
        weights: list[float] = []
        for sample in sorted(self.samples, key=lambda s: s.stack()):
            indices = []
            for label in sample.stack():
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                indices.append(frame_index[label])
            sample_stacks.append(indices)
            weights.append(sample.count / self.hz if self.hz > 0 else 0.0)
        end_value = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": f"{PROFILE_FORMAT}@{PROFILE_VERSION}",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": end_value,
                    "samples": sample_stacks,
                    "weights": weights,
                }
            ],
        }

    # ------------------------------------------------------------------
    def top_spans(self, limit: int = 10) -> list[SpanStat]:
        """Span paths ordered by self samples (ties: path), truncated."""
        ordered = sorted(self.spans, key=lambda stat: (-stat.self_samples, stat.path))
        return ordered[: max(0, limit)]

    def top_functions(self, limit: int = 10) -> list[tuple[str, int, int]]:
        """``(frame, self_samples, total_samples)`` rows, hottest first.

        *Self* counts samples whose innermost frame this is; *total*
        counts every sample whose stack contains the frame anywhere
        (recursive frames count once per stack).
        """
        self_counts: dict[str, int] = {}
        total_counts: dict[str, int] = {}
        for sample in self.samples:
            leaf = sample.frames[-1]
            self_counts[leaf] = self_counts.get(leaf, 0) + sample.count
            for frame in set(sample.frames):
                total_counts[frame] = total_counts.get(frame, 0) + sample.count
        rows = [
            (frame, self_counts.get(frame, 0), total)
            for frame, total in total_counts.items()
        ]
        rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
        return rows[: max(0, limit)]

    def render_report(self, *, limit: int = 10) -> str:
        """The top-spans / top-functions text report."""
        lines = [
            f"profile: {self.sample_count():,} samples over "
            f"{self.duration_seconds:.2f}s at {self.hz:g} Hz"
            + ("" if self.memory == "rss" else f" (memory: {self.memory})")
        ]
        spans = self.top_spans(limit)
        if spans:
            lines.append("")
            lines.append("top spans (self time):")
            lines.append(
                f"  {'path':<32} {'self':>8} {'total':>8} {'calls':>6} "
                f"{'alloc':>10} {'peak':>10}"
            )
            for stat in spans:
                lines.append(
                    f"  {stat.path:<32} {stat.self_seconds(self.hz):>7.2f}s "
                    f"{stat.total_samples / self.hz if self.hz else 0.0:>7.2f}s "
                    f"{stat.calls:>6} {_bytes(stat.alloc_bytes):>10} "
                    f"{_bytes(stat.peak_bytes):>10}"
                )
        functions = self.top_functions(limit)
        if functions:
            lines.append("")
            lines.append("top functions (self samples):")
            lines.append(f"  {'function':<56} {'self':>6} {'total':>6}")
            for frame, self_samples, total_samples in functions:
                lines.append(f"  {frame:<56} {self_samples:>6} {total_samples:>6}")
        if len(lines) == 1:
            lines.append("no samples captured (the run may have been too short)")
        return "\n".join(lines)


def _bytes(value: int) -> str:
    """Human-readable byte count (signed; net allocations can be negative)."""
    magnitude = float(abs(value))
    sign = "-" if value < 0 else ""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if magnitude < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{sign}{int(magnitude)}{unit}"
            return f"{sign}{magnitude:.1f}{unit}"
        magnitude /= 1024.0
    return f"{sign}{magnitude:.1f}GiB"  # pragma: no cover - unreachable


def merge_span_stats(
    sampler_self: Mapping[str, int],
    memory_allocated: Mapping[str, int],
    memory_peaks: Mapping[str, int],
    memory_calls: Mapping[str, int],
) -> list[SpanStat]:
    """Combine sampler and memory-tracker views into sorted span stats.

    ``total_samples`` of a path sums the self samples of the path and
    every descendant (``path/...``), so parent stages report cumulative
    time the way a flame graph does.  The unattributed path (``""``) is
    excluded -- those samples remain visible in the stack view.
    """
    paths = (set(sampler_self) | set(memory_allocated) | set(memory_calls)) - {""}
    stats = []
    for path in sorted(paths):
        prefix = path + PATH_SEPARATOR
        total = sum(
            count
            for sample_path, count in sampler_self.items()
            if sample_path == path or sample_path.startswith(prefix)
        )
        stats.append(
            SpanStat(
                path=path,
                self_samples=sampler_self.get(path, 0),
                total_samples=total,
                calls=memory_calls.get(path, 0),
                alloc_bytes=memory_allocated.get(path, 0),
                peak_bytes=memory_peaks.get(path, 0),
            )
        )
    return stats


__all__ = [
    "PATH_SEPARATOR",
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "Profile",
    "SpanStat",
    "StackSample",
    "collapse",
    "frame_label",
    "merge_span_stats",
    "parse_collapsed",
]
