"""Running several detectors over one data set.

The paper's setting is exactly this: multiple tools observing the same
traffic.  :class:`DetectionPipeline` sessionizes the data once, runs each
detector with the shared sessions and returns the per-detector alerts
together with the assembled :class:`~repro.core.alerts.AlertMatrix`.

There is one execution path, :meth:`DetectionPipeline.run_frame`: the
data arrive as a :class:`~repro.columns.RecordFrame`, the vectorized
group-by-visitor path sessionizes it, the batched feature extraction
builds the feature matrix, and every detector turns the shared
frame / session-span / feature-matrix triple into per-row alert arrays
via :meth:`~repro.detectors.base.Detector.alert_columns`.  With
``workers > 1`` the same path runs per client-IP shard in forked worker
processes.  :meth:`DetectionPipeline.run` is the
:class:`~repro.logs.dataset.Dataset` entry point: it builds the frame and
delegates.

The pipeline reports its logical events (records ingested, sessions
opened/closed, per-detector alerts) through an optional
:class:`~repro.obs.metrics.MetricsRegistry`, identically for single and
sharded runs, plus per-detector duration histograms and spans for the
shared stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.alerts import AlertMatrix, AlertSet
from repro.detectors.base import Detector
from repro.exceptions import DetectorError
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Sessionizer
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.obs.spans import trace_span
from repro.sharding import fork_map, shard_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame
    from repro.columns.alertframe import AlertFrame, DetectorAlerts


@dataclass
class PipelineResult:
    """Everything produced by one :meth:`DetectionPipeline.run` over a data set."""

    dataset: Dataset
    alert_sets: list[AlertSet]
    matrix: AlertMatrix
    timings: dict[str, float] = field(default_factory=dict)

    def alert_set(self, detector_name: str) -> AlertSet:
        """The alert set of one detector."""
        for alert_set in self.alert_sets:
            if alert_set.detector_name == detector_name:
                return alert_set
        raise DetectorError(f"no alert set for detector {detector_name!r}")


@dataclass
class FramePipelineResult:
    """Everything produced by one frame-native pipeline run.

    No :class:`~repro.logs.dataset.Dataset` and no per-alert objects:
    the alerts live as columnar arrays in ``alert_frame`` and the matrix
    is stacked straight from them.  :meth:`alert_sets` builds the
    dict-path views on demand (for :meth:`DetectionPipeline.run` and the
    comparisons with the record reference).
    """

    frame: "RecordFrame"
    alert_frame: "AlertFrame"
    matrix: AlertMatrix
    timings: dict[str, float] = field(default_factory=dict)

    def alert_sets(self) -> list[AlertSet]:
        """Dict-path views of the columnar alerts (built on demand)."""
        return self.alert_frame.to_alert_sets()


class DetectionPipeline:
    """Run a list of detectors over a data set with shared sessionization."""

    def __init__(
        self,
        detectors: Sequence[Detector],
        *,
        sessionizer: Sessionizer | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if not detectors:
            raise DetectorError("a detection pipeline needs at least one detector")
        names = [detector.name for detector in detectors]
        if len(set(names)) != len(names):
            raise DetectorError(f"detector names must be unique, got {names}")
        self.detectors = list(detectors)
        self.sessionizer = sessionizer or Sessionizer()
        # The vectorized group-by only reproduces the base Sessionizer;
        # a subclass may override sessionize() itself.
        if type(self.sessionizer) is not Sessionizer:
            raise DetectorError(
                "the detection pipeline requires the base Sessionizer, got "
                f"{type(self.sessionizer).__name__}"
            )
        self.registry = resolve_registry(registry)

    def run(self, dataset: Dataset) -> PipelineResult:
        """Run every detector over a data set and assemble the alert matrix.

        Builds the data set's :class:`~repro.columns.RecordFrame` and
        delegates to :meth:`run_frame`; the alert sets are the dict-path
        views of the frame run's alert arrays.  ``timings`` holds one
        entry per detector plus the shared ``"sessionization"`` and
        ``"features"`` steps.
        """
        from repro.columns import RecordFrame

        result = self.run_frame(RecordFrame.from_dataset(dataset, registry=self.registry))
        return PipelineResult(
            dataset=dataset,
            alert_sets=result.alert_sets(),
            matrix=result.matrix,
            timings=result.timings,
        )

    # ------------------------------------------------------------------
    def _account_shared(self, record_count: int, session_count: int) -> None:
        """The logical events single and sharded runs must count identically."""
        registry = self.registry
        registry.counter(
            metric_names.RECORDS_INGESTED, "Records fed into a detection engine."
        ).inc(record_count)
        registry.counter(metric_names.SESSIONS_OPENED, "Visitor sessions opened.").inc(
            session_count
        )
        # Batch sessionization closes every session it opens.
        registry.counter(metric_names.SESSIONS_CLOSED, "Visitor sessions closed.").inc(
            session_count
        )

    def _account_detector(self, detector: Detector, alert_count: int, elapsed: float) -> None:
        registry = self.registry
        # "bridge": the detector inherits the record bridge of
        # Detector.alert_columns instead of implementing the arrays.
        bridged = type(detector).alert_columns is Detector.alert_columns
        registry.counter(
            metric_names.DETECTOR_RUNS, "Batch detector executions by code path."
        ).inc(detector=detector.name, path="bridge" if bridged else "columnar")
        registry.counter(
            metric_names.DETECTOR_ALERTS, "Requests alerted per detector."
        ).inc(alert_count, detector=detector.name)
        registry.counter(
            metric_names.FRAME_ALERT_ROWS, "Alerted rows in columnar alert frames."
        ).inc(alert_count, detector=detector.name)
        registry.histogram(
            metric_names.DETECTOR_SECONDS, "Batch per-detector analysis duration."
        ).observe(elapsed, detector=detector.name)

    # ------------------------------------------------------------------
    def run_frame(self, frame: "RecordFrame", *, workers: int = 1) -> "FramePipelineResult":
        """Run every detector over a frame into columnar alert arrays.

        The frame may come straight from
        :meth:`~repro.trace.store.TraceReader.read_frame` -- no
        :class:`Dataset` is ever materialised unless a detector without
        an array implementation takes the record bridge of
        :meth:`~repro.detectors.base.Detector.alert_columns`.  With
        ``workers > 1`` (and every detector declaring
        ``frame_shardable``) the frame is hash-sharded by client IP
        across forked worker processes, mirroring the stream runner's
        visitor sharding, and the per-shard alert arrays are scattered
        back into frame-global arrays at join.  A worker that dies
        raises :class:`~repro.exceptions.ShardWorkerError`.
        """
        from repro.columns.alertframe import AlertFrame

        if workers < 1:
            raise DetectorError("workers must be at least 1")
        shardable = all(detector.frame_shardable for detector in self.detectors)
        if workers > 1 and shardable and len(frame):
            detector_alerts, session_count, timings = self._run_frame_sharded(
                frame, workers
            )
        else:
            detector_alerts, session_count, timings = self._run_frame_single(frame)
        self._account_shared(len(frame), session_count)
        alert_frame = AlertFrame(frame, detector_alerts)
        matrix = AlertMatrix.from_alert_frame(alert_frame)
        self.registry.counter(
            metric_names.ALERTED_REQUESTS,
            "Requests alerted by at least one detector (batch).",
        ).inc(int(np.count_nonzero(matrix.values.any(axis=1))))
        return FramePipelineResult(
            frame=frame, alert_frame=alert_frame, matrix=matrix, timings=timings
        )

    def _run_frame_single(
        self, frame: "RecordFrame"
    ) -> tuple[list["DetectorAlerts"], int, dict[str, float]]:
        from repro.columns import FeatureMatrix, sessionize_frame

        timings: dict[str, float] = {}
        with trace_span("sessionize", self.registry) as span:
            started = time.perf_counter()
            sessions = sessionize_frame(
                frame, timeout=self.sessionizer.timeout, registry=self.registry
            )
            timings["sessionization"] = time.perf_counter() - started
            span.set_attribute(records=len(frame), sessions=len(sessions))
        with trace_span("features", self.registry):
            started = time.perf_counter()
            features = FeatureMatrix.from_frame(frame, sessions, registry=self.registry)
            timings["features"] = time.perf_counter() - started

        detector_alerts: list["DetectorAlerts"] = []
        with trace_span("detectors", self.registry):
            for detector in self.detectors:
                with trace_span("detector", self.registry, detector=detector.name):
                    started = time.perf_counter()
                    alerts = detector.alert_columns(frame, sessions, features)
                    elapsed = time.perf_counter() - started
                detector_alerts.append(alerts)
                timings[detector.name] = elapsed
                self._account_detector(detector, alerts.alert_count(), elapsed)
        return detector_alerts, len(sessions), timings

    def _run_frame_sharded(
        self, frame: "RecordFrame", workers: int
    ) -> tuple[list["DetectorAlerts"], int, dict[str, float]]:
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        timings: dict[str, float] = {}
        ips = frame.tables["client_ip"]
        per_ip_shard = np.fromiter(
            (shard_of(ip, workers) for ip in ips), np.int64, len(ips)
        )
        row_shard = per_ip_shard[frame.codes["client_ip"]]
        shard_rows = [np.flatnonzero(row_shard == index) for index in range(workers)]
        for index, rows in enumerate(shard_rows):
            self.registry.counter(
                metric_names.FRAME_SHARD_ROWS,
                "Rows assigned to each batch frame shard.",
            ).inc(len(rows), shard=str(index))

        with trace_span("shards", self.registry, workers=workers) as span:
            started = time.perf_counter()
            shard_results, forked = fork_map(
                _run_frame_shard,
                (frame, shard_rows, self.detectors, self.sessionizer.timeout),
                workers,
            )
            timings["shards"] = time.perf_counter() - started
            span.set_attribute(records=len(frame), forked=forked)

        session_count = sum(count for count, _ in shard_results)
        # The children could not reach this registry: account the
        # columnar substrate events (sessions, feature rows) here so a
        # sharded run reports the same counts as a single-process one.
        self.registry.counter(
            metric_names.FRAME_SESSIONS,
            "Session spans produced by vectorized sessionization.",
        ).inc(session_count)
        self.registry.counter(
            metric_names.FEATURE_ROWS, "Feature-matrix rows (sessions) computed."
        ).inc(session_count)

        with trace_span("merge", self.registry) as span:
            started = time.perf_counter()
            merged: list[DetectorAlerts] = []
            for position, detector in enumerate(self.detectors):
                alerts = DetectorAlerts.empty(detector.name, len(frame))
                encoder = ReasonEncoder()
                elapsed = 0.0
                for shard_index, (_, per_detector) in enumerate(shard_results):
                    flags, scores, codes, table, shard_elapsed = per_detector[position]
                    alerts.scatter(
                        shard_rows[shard_index],
                        DetectorAlerts(detector.name, flags, scores, codes, table),
                        encoder,
                    )
                    elapsed += shard_elapsed
                merged.append(alerts)
                timings[detector.name] = elapsed
                self._account_detector(detector, alerts.alert_count(), elapsed)
            timings["merge"] = time.perf_counter() - started
            span.set_attribute(detectors=len(merged))
        return merged, session_count, timings


def _run_frame_shard(state: tuple, index: int) -> tuple:
    """Run every detector over one shard (in a forked worker, or in-process)."""
    frame, shard_rows, detectors, timeout = state
    from repro.columns import FeatureMatrix, sessionize_frame
    from repro.columns.alertframe import DetectorAlerts

    rows = shard_rows[index]
    if not len(rows):
        empty = [
            (alerts.flags, alerts.scores, alerts.reason_codes, alerts.reason_table, 0.0)
            for alerts in (DetectorAlerts.empty(d.name, 0) for d in detectors)
        ]
        return 0, empty
    sub = frame.take(rows)
    sessions = sessionize_frame(sub, timeout=timeout)
    features = FeatureMatrix.from_frame(sub, sessions)
    out = []
    for detector in detectors:
        started = time.perf_counter()
        alerts = detector.alert_columns(sub, sessions, features)
        elapsed = time.perf_counter() - started
        out.append(
            (alerts.flags, alerts.scores, alerts.reason_codes, alerts.reason_table, elapsed)
        )
    return len(sessions), out


def run_detectors(
    dataset: Dataset,
    detectors: Sequence[Detector],
    *,
    registry: MetricsRegistry | None = None,
) -> PipelineResult:
    """Convenience wrapper: ``DetectionPipeline(detectors).run(dataset)``."""
    return DetectionPipeline(detectors, registry=registry).run(dataset)
