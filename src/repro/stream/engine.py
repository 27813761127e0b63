"""The event-driven streaming detection engine.

:class:`StreamEngine` consumes :class:`~repro.logs.record.LogRecord`
objects one at a time -- from a dataset replay, a live traffic-generator
feed or a tailed access log (see :mod:`repro.stream.sources`) -- and for
each record:

1. attributes it to its visitor session via the
   :class:`~repro.stream.sessionizer.IncrementalSessionizer` (closing any
   sessions whose inactivity timeout passed),
2. collects an immediate :class:`~repro.stream.events.OnlineVerdict`
   from every :class:`~repro.stream.detectors.OnlineDetector`,
3. combines the votes through the optional
   :class:`~repro.stream.adjudicator.WindowedAdjudicator` into the
   ensemble decision a deployment would block or challenge on.

Out-of-order arrival (common when several front-ends ship logs) is
absorbed by a bounded reorder buffer: with ``max_skew_seconds > 0``
records are released to the pipeline in timestamp order as long as they
arrive within the skew bound.

:meth:`StreamEngine.finish` flushes all remaining state and returns a
:class:`StreamResult` whose per-detector alert sets are, for the ported
detectors, identical to a batch
:class:`~repro.detectors.pipeline.DetectionPipeline` run over the same
records (see :mod:`repro.stream.bridge`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Iterable, Sequence

from repro.core.adjudication import AdjudicationResult
from repro.core.alerts import AlertMatrix, AlertSet
from repro.exceptions import DetectorError
from repro.logs.record import LogRecord
from repro.logs.sessionization import DEFAULT_TIMEOUT, Session
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.stream.adjudicator import WindowedAdjudicator
from repro.stream.detectors import OnlineDetector
from repro.stream.events import EngineStats, OnlineVerdict, RequestVerdict
from repro.stream.sessionizer import IncrementalSessionizer


@dataclass
class StreamResult:
    """Everything a finished streaming run produced."""

    #: Final, batch-equivalent alert sets (one per detector).
    alert_sets: list[AlertSet]
    stats: EngineStats
    #: The adjudicated ensemble decisions (when an adjudicator was set).
    adjudication: AdjudicationResult | None = None
    #: Per-request decision latencies in seconds (when tracking was on).
    latencies: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    def alert_set(self, detector_name: str) -> AlertSet:
        """The final alert set of one detector."""
        for alert_set in self.alert_sets:
            if alert_set.detector_name == detector_name:
                return alert_set
        raise DetectorError(f"no alert set for detector {detector_name!r}")

    def alert_counts(self) -> dict[str, int]:
        """Alerted-request totals per detector (a Table-1-style summary)."""
        return {alert_set.detector_name: len(alert_set) for alert_set in self.alert_sets}

    def to_matrix(self, dataset, *, strict: bool = True) -> AlertMatrix:
        """The final alerts as a request x detector matrix over ``dataset``.

        This is the hand-off point to the paper's analysis: the matrix
        feeds Tables 1-4, the diversity metrics and every batch
        adjudication scheme.
        """
        return AlertMatrix.from_alert_sets(dataset, self.alert_sets, strict=strict)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99/max of the per-request decision latency, in seconds."""
        if not self.latencies:
            return {}
        ordered = sorted(self.latencies)

        def at(quantile: float) -> float:
            index = min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))
            return ordered[index]

        return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99), "max": ordered[-1]}


class StreamEngine:
    """Consume a record stream and produce online verdicts.

    Parameters
    ----------
    detectors:
        The online detectors to run (names must be unique).
    timeout:
        Session inactivity timeout (the batch default of 30 minutes).
    adjudicator:
        Optional :class:`~repro.stream.adjudicator.WindowedAdjudicator`;
        without one the ensemble decision is "any detector alerted".
    max_skew_seconds:
        Size of the reorder buffer.  ``0`` (the default) processes
        records exactly in arrival order; a positive value holds records
        back until the watermark passed them by the skew, releasing them
        in timestamp order.
    track_latency:
        Record the wall-clock processing time of every request (used by
        the latency benchmark; off by default to keep the hot path lean).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        every request feeds per-request (and per-detector) verdict
        latency histograms, and :meth:`finish` exports the engine's
        counters (records, sessions opened/closed/evicted, alerts) into
        the registry.  ``None`` keeps the hot path uninstrumented.
    """

    def __init__(
        self,
        detectors: Sequence[OnlineDetector],
        *,
        timeout: timedelta = DEFAULT_TIMEOUT,
        adjudicator: WindowedAdjudicator | None = None,
        max_skew_seconds: float = 0.0,
        track_latency: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not detectors:
            raise DetectorError("a stream engine needs at least one online detector")
        names = [detector.name for detector in detectors]
        if len(set(names)) != len(names):
            raise DetectorError(f"detector names must be unique, got {names}")
        if max_skew_seconds < 0:
            raise DetectorError("max_skew_seconds must be non-negative")
        self.detectors = list(detectors)
        self.adjudicator = adjudicator
        self.max_skew_seconds = max_skew_seconds
        self.track_latency = track_latency
        self.sessionizer = IncrementalSessionizer(timeout)
        self.stats = EngineStats(online_alerts={name: 0 for name in names})
        self._buffer: list[tuple[float, int, LogRecord]] = []
        self._sequence = 0
        self._latencies: list[float] = []
        self._finished = False
        self.registry = resolve_registry(registry)
        # Per-record instrumentation is gated on one cached bool and uses
        # cached instrument handles, so the disabled path stays lean.
        self._timed = self.registry.enabled
        self._verdict_hist = self.registry.histogram(
            metric_names.VERDICT_SECONDS, "Per-request ensemble decision latency."
        )
        self._detector_hist = self.registry.histogram(
            metric_names.DETECTOR_VERDICT_SECONDS,
            "Per-request detector decision latency.",
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all state so the engine can consume a fresh stream."""
        for detector in self.detectors:
            detector.reset()
        if self.adjudicator is not None:
            self.adjudicator.reset()
        self.sessionizer.reset()
        self.stats = EngineStats(online_alerts={d.name: 0 for d in self.detectors})
        self._buffer = []
        self._sequence = 0
        self._latencies = []
        self._finished = False

    # ------------------------------------------------------------------
    def process(self, record: LogRecord) -> list[RequestVerdict]:
        """Feed one record; return the verdicts it released.

        With no reorder buffer this is always exactly one verdict (for
        the record itself).  With ``max_skew_seconds > 0`` a record may
        release zero or more *older* buffered records instead.
        """
        if self._finished:
            raise DetectorError("engine already finished; call reset() to start a new stream")
        if self.max_skew_seconds == 0.0:
            return [self._ingest(record)]

        heapq.heappush(
            self._buffer, (record.timestamp.timestamp(), self._sequence, record)
        )
        self._sequence += 1
        horizon = record.timestamp.timestamp() - self.max_skew_seconds
        released: list[RequestVerdict] = []
        while self._buffer and self._buffer[0][0] <= horizon:
            released.append(self._ingest(heapq.heappop(self._buffer)[2]))
        return released

    def run(self, records: Iterable[LogRecord]) -> StreamResult:
        """Consume an entire stream and return the finished result."""
        self.reset()
        for record in records:
            self.process(record)
        return self.finish()

    def finish(self) -> StreamResult:
        """Flush all buffered and session state; finalize the detectors."""
        if self._finished:
            raise DetectorError("engine already finished")
        while self._buffer:
            self._ingest(heapq.heappop(self._buffer)[2])
        for session in self.sessionizer.flush():
            self._close_session(session)
        for detector in self.detectors:
            detector.finalize()
        self._finished = True
        adjudication = (
            self.adjudicator.to_result(self.stats.records) if self.adjudicator else None
        )
        result = StreamResult(
            alert_sets=[detector.final_alert_set() for detector in self.detectors],
            stats=self.stats,
            adjudication=adjudication,
            latencies=self._latencies,
        )
        if self._timed:
            self.export_metrics(alert_sets=result.alert_sets)
        return result

    def finish_shard(self) -> dict:
        """Flush and export state for a sharded runner (no global finalize).

        Unlike :meth:`finish`, the detectors' :meth:`~repro.stream.detectors.OnlineDetector.finalize`
        step is *not* run: detectors with global state (the anomaly port's
        contamination threshold is a quantile over all sessions) must be
        merged across shards first.  The returned dictionary is picklable
        so forked shard workers can ship it to the parent.
        """
        if self._finished:
            raise DetectorError("engine already finished")
        while self._buffer:
            self._ingest(heapq.heappop(self._buffer)[2])
        for session in self.sessionizer.flush():
            self._close_session(session)
        self._finished = True
        return {
            "states": [detector.export_state() for detector in self.detectors],
            "stats": self.stats,
            "adjudicated_ids": (
                sorted(self.adjudicator.alerted_ids) if self.adjudicator is not None else None
            ),
            "latencies": self._latencies,
            "sessions_evicted": self.sessionizer.sessions_evicted,
            "open_sessions": self.sessionizer.open_sessions,
        }

    # ------------------------------------------------------------------
    def export_metrics(
        self,
        *,
        alert_sets: Sequence[AlertSet] = (),
        stats: EngineStats | None = None,
        registry: MetricsRegistry | None = None,
        sessions_evicted: int | None = None,
        open_sessions: int | None = None,
    ) -> None:
        """Bulk-add the engine's counters into a registry.

        Called automatically by :meth:`finish`; the sharded runner calls
        it with each worker's merged ``stats`` instead (worker engines
        run unregistered, so per-shard counts aggregate here).  The
        counter names are the shared logical vocabulary of
        :mod:`repro.obs.names`, identical to the batch pipeline's.
        """
        registry = self.registry if registry is None else registry
        stats = self.stats if stats is None else stats
        registry.counter(
            metric_names.RECORDS_INGESTED, "Records fed into a detection engine."
        ).inc(stats.records)
        registry.counter(metric_names.SESSIONS_OPENED, "Visitor sessions opened.").inc(
            stats.sessions_opened
        )
        registry.counter(metric_names.SESSIONS_CLOSED, "Visitor sessions closed.").inc(
            stats.sessions_closed
        )
        if sessions_evicted is None:
            sessions_evicted = self.sessionizer.sessions_evicted
        registry.counter(
            metric_names.SESSIONS_EVICTED, "Idle sessions closed by the stream evictor."
        ).inc(sessions_evicted)
        if open_sessions is None:
            open_sessions = self.sessionizer.open_sessions
        registry.gauge(
            metric_names.SESSIONS_OPEN, "Sessions still open (sampled at finish)."
        ).set(open_sessions)
        registry.counter(
            metric_names.ENSEMBLE_ALERTS, "Requests alerted by the adjudicated ensemble."
        ).inc(stats.ensemble_alerts)
        verdicts = registry.counter(
            metric_names.DETECTOR_VERDICTS, "Online verdicts emitted per detector."
        )
        for name in stats.online_alerts:
            verdicts.inc(stats.records, detector=name)
        alerts = registry.counter(
            metric_names.DETECTOR_ALERTS, "Requests alerted per detector."
        )
        for alert_set in alert_sets:
            alerts.inc(len(alert_set), detector=alert_set.detector_name)

    # ------------------------------------------------------------------
    def _ingest(self, record: LogRecord) -> RequestVerdict:
        started = time.perf_counter()
        update = self.sessionizer.observe(record)
        if update.opened:
            self.stats.sessions_opened += 1
        for session in update.closed:
            self._close_session(session)

        votes: dict[str, OnlineVerdict] = {}
        timed = self._timed
        for detector in self.detectors:
            if timed:
                detector_started = time.perf_counter()
                verdict = detector.observe(record, update.session)
                self._detector_hist.observe(
                    time.perf_counter() - detector_started, detector=detector.name
                )
            else:
                verdict = detector.observe(record, update.session)
            votes[detector.name] = verdict
            if verdict.alerted:
                self.stats.online_alerts[detector.name] += 1

        if self.adjudicator is not None:
            alerted = self.adjudicator.observe(record, votes).alerted
        else:
            alerted = any(verdict.alerted for verdict in votes.values())
        if alerted:
            self.stats.ensemble_alerts += 1
        self.stats.records += 1

        elapsed = time.perf_counter() - started
        self.stats.busy_seconds += elapsed
        if timed:
            self._verdict_hist.observe(elapsed)
        if self.track_latency:
            self._latencies.append(elapsed)
        return RequestVerdict(
            request_id=record.request_id,
            timestamp=record.timestamp,
            alerted=alerted,
            votes=votes,
            session_id=update.session.session_id,
        )

    def _close_session(self, session: Session) -> None:
        self.stats.sessions_closed += 1
        for detector in self.detectors:
            detector.on_session_close(session)
