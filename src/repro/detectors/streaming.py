"""Online detection in the batch analyses.

The streaming machinery lives in :mod:`repro.stream`: an event-driven
engine with incremental sessionization, online detector ports, windowed
adjudication and sharded execution.  :class:`StreamingDetector` wraps
any online detector into the batch
:class:`~repro.detectors.base.Detector` interface by replaying the data
set through a :class:`~repro.stream.engine.StreamEngine`, so online
detection can participate in the same diversity/adjudication analyses
as the offline tools.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session
from repro.stream.detectors import OnlineDetector, OnlineRequestRateLimiter
from repro.stream.engine import StreamEngine


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
        self.limiter = limiter or OnlineRequestRateLimiter()

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
