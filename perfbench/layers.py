"""Outside-in per-layer tracing for the benchmark.

The tracer times calls into each layer's public functions by patching
them from here, in the benchmark child process, so the program under
test is measured without any edit to it.  Each layer is one module of
``repro``; a call's *self time* is its duration minus the time spent in
nested calls into other traced layers, so the self times of one timed
part add up to the share of its wall that the layer list covers.

The per-request latency probe (:func:`time_requests`) is installed in
every run, traced or not: it is the client-side timer around each
``StreamEngine.process`` or ``EnforcementGateway.handle`` call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

perf_counter = time.perf_counter

#: Per-layer metric names with their units, in the order they are printed.
LAYER_METRICS: dict[str, str] = {
    "traffic.generate_s": "s",
    "traffic.records": "count",
    "traffic.step_s": "s",
    "columns.frame_build_s": "s",
    "columns.sessionize_s": "s",
    "columns.sessions": "count",
    "columns.features_s": "s",
    "detectors.commercial_s": "s",
    "detectors.inhouse_s": "s",
    "detectors.commercial_alerts": "count",
    "detectors.inhouse_alerts": "count",
    "core.analysis_s": "s",
    "core.render_s": "s",
    "trace.write_s": "s",
    "trace.bytes": "bytes",
    "trace.read_frame_s": "s",
    "trace.replay_s": "s",
    "stream.process_s": "s",
    "stream.sessionize_s": "s",
    "stream.detector.rate-limit_s": "s",
    "stream.detector.ua-fingerprint_s": "s",
    "stream.detector.inhouse_s": "s",
    "stream.detector.anomaly_s": "s",
    "stream.adjudicate_s": "s",
    "stream.finish_s": "s",
    "stream.records": "count",
    "stream.sessions_closed": "count",
    "stream.adjudicated_alerts": "count",
    "mitigation.gateway_s": "s",
    "mitigation.policy_s": "s",
    "mitigation.report_s": "s",
    "mitigation.denied": "count",
    "mitigation.challenged": "count",
    "runspec.execute_s": "s",
}

#: The program's own span stages (``MetricsRegistry.stage_timings``) and
#: the traced layers whose inclusive time each should match.  A stage's
#: gap is reported when the program recorded that stage, except for
#: :data:`UNSPANNED_STAGES`, which have no span yet: all of their traced
#: time is gap.
OBS_STAGES: dict[str, tuple[str, ...]] = {
    "dataset": ("traffic.generate", "trace.read_frame"),
    "frame_build": ("columns.frame_build",),
    "sessionize": ("columns.sessionize",),
    "features": ("columns.features",),
    "detectors": ("detectors.commercial", "detectors.inhouse"),
    "analysis": ("core.analysis",),
    "stream": ("stream.process", "stream.finish", "trace.replay"),
    "simulate": ("traffic.step",),
    "report": ("mitigation.report",),
}
UNSPANNED_STAGES = ("frame_build",)


class Tracer:
    """Accumulates self time, inclusive time and counts per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open traced call: the time its nested traced
        # calls took so far.
        self._stack: list[list[float]] = []

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        count: Callable[[Any], dict[str, int]] | None = None,
    ) -> Callable[..., Any]:
        """``function`` timed as a call into ``layer``.

        ``count`` maps the call's result to exact per-layer counts,
        which are summed over calls.
        """
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            nested = [0.0]
            stack.append(nested)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self_s[layer] += elapsed - nested[0]
                inclusive_s[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                for name, value in count(result).items():
                    self.counts[name] += value
            return result

        return traced

    def iterate(self, layer: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """``iterable`` with the time of each ``next`` call traced."""
        step = self.wrap(layer, iter(iterable).__next__)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def patch(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        count: Callable[[Any], dict[str, int]] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by its traced version."""
        raw = vars(owner).get(attribute) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(layer, raw.__func__, count)))
        else:
            setattr(owner, attribute, self.wrap(layer, getattr(owner, attribute), count))

    def snapshot(self) -> dict[str, Any]:
        """Self times, inclusive times and counts accumulated so far."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Trace every layer's public entry points (class and module level)."""
    execute_module = importlib.import_module("repro.runspec.execute")
    from repro.columns import FeatureMatrix, RecordFrame
    import repro.columns as columns
    from repro.core import experiment
    from repro.core.experiment import ExperimentResult
    from repro.detectors.commercial import CommercialBotDefenceDetector
    from repro.detectors.inhouse import InHouseHeuristicDetector
    from repro.mitigation.gateway import EnforcementGateway
    from repro.mitigation.policy import PolicyEngine
    from repro.mitigation.simulator import ClosedLoopSimulator
    from repro.stream import detectors as online
    from repro.stream.adjudicator import WindowedAdjudicator
    from repro.stream.engine import StreamEngine
    from repro.stream.sessionizer import IncrementalSessionizer
    from repro.trace import store

    def alerts(name: str) -> Callable[[Any], dict[str, int]]:
        return lambda result: {name: int(result.alert_count())}

    def stream_counts(result: Any) -> dict[str, int]:
        return {
            "stream.records": result.stats.records,
            "stream.sessions_closed": result.stats.sessions_closed,
            "stream.adjudicated_alerts": (
                result.adjudication.alert_count if result.adjudication is not None else 0
            ),
        }

    def report_counts(report: Any) -> dict[str, int]:
        return {
            "mitigation.denied": report.denied_requests,
            "mitigation.challenged": report.challenges_passed + report.challenges_failed,
        }

    tracer.patch(execute_module, "execute", "runspec.execute")
    tracer.patch(
        execute_module,
        "generate_dataset",
        "traffic.generate",
        lambda dataset: {"traffic.records": len(dataset)},
    )
    tracer.patch(RecordFrame, "from_dataset", "columns.frame_build")
    # The pipeline imports these from the package at call time.
    tracer.patch(
        columns,
        "sessionize_frame",
        "columns.sessionize",
        lambda sessions: {"columns.sessions": len(sessions)},
    )
    tracer.patch(FeatureMatrix, "from_frame", "columns.features")
    tracer.patch(
        CommercialBotDefenceDetector, "alert_columns", "detectors.commercial",
        alerts("detectors.commercial_alerts"),
    )
    tracer.patch(
        InHouseHeuristicDetector, "alert_columns", "detectors.inhouse",
        alerts("detectors.inhouse_alerts"),
    )
    for name in (
        "diversity_breakdown",
        "status_tables_from_frame",
        "pairwise_diversity_from_frame",
        "evaluate_matrix_from_frame",
        "evaluate_ensemble_from_frame",
    ):
        tracer.patch(experiment, name, "core.analysis")
    tracer.patch(execute_module, "per_actor_rates_from_frame", "core.analysis")
    for name in ("render_table1", "render_table2", "render_table3", "render_table4"):
        tracer.patch(ExperimentResult, name, "core.render")
    tracer.patch(execute_module, "render_evaluation_rows", "core.render")
    tracer.patch(
        store,
        "write_trace",
        "trace.write",
        lambda info: {"trace.bytes": info.file_size},
    )
    tracer.patch(store.TraceReader, "read_frame", "trace.read_frame")
    replay = execute_module.trace_replay
    execute_module.trace_replay = lambda *args, **kwargs: tracer.iterate(
        "trace.replay", replay(*args, **kwargs)
    )
    tracer.patch(StreamEngine, "process", "stream.process")
    tracer.patch(StreamEngine, "finish", "stream.finish", stream_counts)
    tracer.patch(IncrementalSessionizer, "observe", "stream.sessionize")
    tracer.patch(IncrementalSessionizer, "flush", "stream.sessionize")
    for detector in (
        online.OnlineRateLimitDetector,
        online.OnlineFingerprintDetector,
        online.OnlineInHouseDetector,
        online.OnlineAnomalyDetector,
    ):
        for method in ("observe", "on_session_close"):
            tracer.patch(detector, method, f"stream.detector.{detector.name}")
    tracer.patch(WindowedAdjudicator, "observe", "stream.adjudicate")
    tracer.patch(ClosedLoopSimulator, "run", "traffic.step")
    tracer.patch(EnforcementGateway, "handle", "mitigation.gateway")
    tracer.patch(PolicyEngine, "decide", "mitigation.policy")
    tracer.patch(execute_module, "build_report", "mitigation.report", report_counts)
    tracer.patch(execute_module, "render_mitigation_report", "mitigation.report")


def time_requests(owner: type, method: str, check: Callable[[Any, Any], bool]) -> dict[str, Any]:
    """Time every call of ``owner.method`` and check each result.

    ``check(request, result)`` says whether one call's result is right.
    Returns the live probe state: ``latencies`` in seconds and the
    number of ``failed`` calls (raised, or failed ``check``).
    """
    probe: dict[str, Any] = {"latencies": [], "failed": 0}
    latencies = probe["latencies"]
    function = getattr(owner, method)

    def timed(self: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
        started = perf_counter()
        try:
            result = function(self, request, *args, **kwargs)
        except Exception:
            probe["failed"] += 1
            raise
        latencies.append(perf_counter() - started)
        if not check(request, result):
            probe["failed"] += 1
        return result

    setattr(owner, method, timed)
    return probe
