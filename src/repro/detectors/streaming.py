"""Online (streaming) detection -- batch-facing adapters.

The real streaming machinery lives in :mod:`repro.stream`: an
event-driven engine with incremental sessionization, online detector
ports, windowed adjudication and sharded execution.  This module keeps
the original batch-facing surface as thin adapters over that engine:

* :class:`StreamingRateLimiter` -- the per-visitor sliding-window rate
  limiter, now an alias-with-defaults of
  :class:`~repro.stream.detectors.OnlineRequestRateLimiter` (same
  ``observe`` / ``observe_stream`` / ``reset`` API as before).
* :class:`StreamingDetector` -- wraps any online detector into the batch
  :class:`~repro.detectors.base.Detector` interface by replaying the
  data set through a :class:`~repro.stream.engine.StreamEngine`, so
  online detection can participate in the same diversity/adjudication
  analyses as the offline tools.
* :data:`StreamingVerdict` -- re-export of
  :class:`~repro.stream.events.OnlineVerdict` (unchanged field layout).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.logs.dataset import Dataset
from repro.logs.record import LogRecord
from repro.logs.sessionization import Session
from repro.stream.detectors import OnlineDetector, OnlineRequestRateLimiter
from repro.stream.engine import StreamEngine
from repro.stream.events import OnlineVerdict

#: Backwards-compatible name for the per-request online verdict.
StreamingVerdict = OnlineVerdict


class StreamingRateLimiter(OnlineRequestRateLimiter):
    """Per-visitor sliding-window rate limiting with a penalty period.

    A request is flagged when its visitor has issued more than
    ``max_requests`` requests within the last ``window_seconds``.  Once a
    visitor trips the limit it stays flagged for ``penalty_seconds`` (the
    way production rate limiters and bot-mitigation challenges behave),
    which also makes the streaming verdicts comparable with the
    session-level batch detectors.

    Pass ``record_alerts=False`` for indefinitely running deployments
    that only act on the per-request verdicts: it keeps memory bounded
    by the per-visitor window state instead of accumulating an alert
    per flagged request.
    """

    def __init__(
        self,
        *,
        max_requests: int = 30,
        window_seconds: float = 60.0,
        penalty_seconds: float = 300.0,
        flag_scripted_agents: bool = True,
        record_alerts: bool = True,
    ) -> None:
        super().__init__(
            max_requests=max_requests,
            window_seconds=window_seconds,
            penalty_seconds=penalty_seconds,
            flag_scripted_agents=flag_scripted_agents,
            record_alerts=record_alerts,
        )

    def observe_stream(self, records: Iterable[LogRecord]) -> list[StreamingVerdict]:
        """Process an iterable of records (assumed time-ordered)."""
        return [self.observe(record) for record in records]


class StreamingDetector(Detector):
    """Adapter exposing an online detector through the batch interface.

    The data set is replayed in timestamp order (as the requests would
    have arrived) through a single-detector
    :class:`~repro.stream.engine.StreamEngine` and the engine's final
    alert set is returned, so online detection can participate in the
    same diversity/adjudication analyses as the offline tools.
    """

    def __init__(
        self,
        limiter: OnlineDetector | None = None,
        *,
        name: str = "streaming-rate",
    ):
        self.name = name
        self.limiter = limiter or StreamingRateLimiter()

    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        from repro.stream.sources import dataset_replay

        engine = StreamEngine([self.limiter])
        # Batch analysis needs the accumulated alert set even when the
        # limiter was configured alert-free for live deployments.
        forced_recording = getattr(self.limiter, "record_alerts", True) is False
        if forced_recording:
            self.limiter.record_alerts = True
        try:
            result = engine.run(dataset_replay(dataset))
        finally:
            if forced_recording:
                self.limiter.record_alerts = False
        streamed = result.alert_sets[0]
        if streamed.detector_name == self.name:
            return streamed
        renamed = AlertSet(self.name)
        for alert in streamed.alerts():
            renamed.add(alert.request_id, score=alert.score, reasons=alert.reasons)
        return renamed
