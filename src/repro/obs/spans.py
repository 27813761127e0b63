"""Lightweight tracing spans: nested, attributed stage timings.

A span is one timed stage of a run::

    with trace_span("sessionize", registry, records=len(dataset)) as span:
        ...
        span.set_attribute(sessions=len(sessions))

Spans nest: a span opened while another is active on the same thread
becomes its child, so a run exports a *span tree* (roots in
``registry.spans``) that shows where the time went, stage by stage.
Every span exit also feeds the :data:`~repro.obs.names.STAGE_SECONDS`
histogram (labelled ``stage=<name>``), which is where the uniform
per-stage ``timings`` view of every workload comes from.

With the :data:`~repro.obs.metrics.NULL_REGISTRY` the context manager
yields a shared inert span and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Protocol

from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.obs.names import STAGE_SECONDS


class SpanHook(Protocol):
    """Observer of span boundaries (see :meth:`MetricsRegistry.add_span_hook`).

    Hooks see every span enter/exit with the span's full *path* -- the
    tuple of names from the root span down (``("tables", "sessionize")``)
    -- which is the correlation key the profiler uses to attribute CPU
    samples and allocations to pipeline stages.  Hook calls happen on
    the instrumented thread, inline with the workload: implementations
    must be cheap and must not raise.
    """

    def span_opened(self, path: tuple[str, ...]) -> None:
        """Called after a span is pushed, before its body runs."""

    def span_closed(self, span: "Span", path: tuple[str, ...]) -> None:
        """Called after a span's body finished and its duration is set."""


@dataclass
class Span:
    """One completed (or in-flight) timed stage."""

    name: str
    start: float = 0.0
    duration: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set_attribute(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The span subtree as JSON-ready nested dictionaries."""
        data: dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            duration=data.get("duration", 0.0),
            attributes=dict(data.get("attributes", {})),
            children=[cls.from_dict(child) for child in data.get("children", [])],
        )

    def render(self, indent: int = 0) -> str:
        """A human-readable indented tree of the span and its children."""
        attrs = "".join(f" {key}={value}" for key, value in sorted(self.attributes.items()))
        lines = [f"{'  ' * indent}{self.name}: {self.duration:.4f}s{attrs}"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


class _NullSpan:
    """The inert span the null registry hands out."""

    name = ""
    duration = 0.0
    attributes: dict[str, Any] = {}
    children: list[Any] = []

    def set_attribute(self, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


@contextmanager
def trace_span(
    name: str, registry: MetricsRegistry | None = None, **attributes: Any
) -> Iterator[Span]:
    """Time a stage as a span in ``registry``'s span tree.

    The span nests under whichever span is currently open on this thread
    (per registry), lands in ``registry.spans`` when it is a root, and
    its duration feeds the ``repro_stage_seconds`` histogram labelled
    with the stage name.  Keyword arguments become span attributes.
    """
    registry = resolve_registry(registry)
    if not registry.enabled:
        yield _NULL_SPAN  # type: ignore[misc]
        return
    span = Span(name=name, attributes=dict(attributes))
    stack = registry._span_stack()
    stack.append(span)
    path = tuple(entry.name for entry in stack)
    for hook in registry._span_hooks:
        hook.span_opened(path)
    span.start = time.perf_counter()
    try:
        yield span
    finally:
        span.duration = time.perf_counter() - span.start
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            registry.spans.append(span)
        for hook in registry._span_hooks:
            hook.span_closed(span, path)
        registry.histogram(
            STAGE_SECONDS, "Duration of every traced pipeline stage."
        ).observe(span.duration, stage=name)
