"""Rate-limit detector.

The simplest and oldest scraping defence: flag visitors whose request rate
exceeds what a human could plausibly sustain.  Both tools studied in the
paper include a rate component; here it is also available as a
stand-alone detector for the multi-detector extension experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.detectors.base import SessionDetector
from repro.logs.sessionization import Session, Sessionizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class RateLimitDetector(SessionDetector):
    """Flag sessions whose sustained or peak request rate exceeds a threshold.

    Both the session's average rate and its busiest one-minute window are
    checked, so bursty scrapers that idle between bursts are still caught.
    """

    #: Verdicts are per-session pure; sharding by IP keeps sessions whole.
    frame_shardable = True

    def __init__(
        self,
        *,
        name: str = "rate-limit",
        threshold_rpm: float = 60.0,
        min_requests: int = 10,
        use_peak_rate: bool = True,
        sessionizer: Sessionizer | None = None,
    ) -> None:
        super().__init__(sessionizer)
        if threshold_rpm <= 0:
            raise ValueError("threshold_rpm must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        self.name = name
        self.threshold_rpm = threshold_rpm
        self.min_requests = min_requests
        self.use_peak_rate = use_peak_rate

    def judge_session(self, session: Session) -> tuple[float, Sequence[str]] | None:
        if session.request_count < self.min_requests:
            return None
        rate = session.requests_per_minute()
        if self.use_peak_rate:
            rate = max(rate, session.peak_requests_per_minute())
        if rate <= self.threshold_rpm:
            return None
        # Score grows with how far above the threshold the session is.
        score = min(1.0, 0.5 + 0.5 * (rate - self.threshold_rpm) / self.threshold_rpm)
        return score, (f"rate {rate:.0f} req/min exceeds {self.threshold_rpm:.0f}",)

    # ------------------------------------------------------------------
    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Frame-native alert arrays: per-session verdicts scattered to rows."""
        from repro.columns.alertframe import session_alerts

        rates = features.column("requests_per_minute")
        if self.use_peak_rate:
            rates = np.maximum(rates, features.peak_rpm())
        eligible = (features.counts >= self.min_requests) & (rates > self.threshold_rpm)
        scores = np.minimum(
            1.0, 0.5 + 0.5 * (rates - self.threshold_rpm) / self.threshold_rpm
        )
        return session_alerts(
            self.name,
            frame,
            sessions,
            eligible,
            scores,
            lambda index: (
                f"rate {float(rates[index]):.0f} req/min exceeds {self.threshold_rpm:.0f}",
            ),
        )
