"""Anomaly-based session detector.

Wraps any of the unsupervised models from :mod:`repro.anomaly` (isolation
forest, k-NN distance, Mahalanobis, robust z-score) into the common
detector interface: fit on the session feature matrix of the analysed
data set, score every session and alert on the most anomalous fraction
(the *contamination* parameter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.anomaly.base import AnomalyModel
from repro.anomaly.isolation_forest import IsolationForestModel
from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.detectors.features import feature_matrix
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session, Sessionizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


def anomalous_sessions(
    model: AnomalyModel, matrix: np.ndarray, contamination: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit ``model`` on ``matrix`` and pick the top-``contamination`` rows.

    One row of ``matrix`` describes one session.  Returns per-row alert
    flags, alert scores (the anomaly score normalised by the largest
    one, capped at 1) and the raw anomaly scores.  This is the single
    definition of the fit/threshold/normalise step, shared by the batch
    detector below and the streaming port
    (:class:`repro.stream.detectors.OnlineAnomalyDetector`) so their
    alert sets can never drift apart.
    """
    scores = model.fit_score(matrix)
    threshold = model.threshold_for_contamination(scores, contamination)
    max_score = float(scores.max()) or 1.0
    return ~(scores < threshold), np.minimum(1.0, scores / max_score), scores


def anomaly_reasons(model: AnomalyModel, score: float) -> tuple[str, ...]:
    """The alert reasons of a session with raw anomaly score ``score``."""
    return (f"anomalous session ({model.__class__.__name__} score {score:.3f})",)


def alert_anomalous_groups(
    alert_set: AlertSet,
    model: AnomalyModel,
    matrix: np.ndarray,
    request_id_groups: Sequence[Sequence[str]],
    contamination: float,
) -> None:
    """Alert every request of the sessions :func:`anomalous_sessions` picks.

    ``request_id_groups`` holds each session's request ids in the row
    order of ``matrix``.
    """
    flags, alert_scores, scores = anomalous_sessions(model, matrix, contamination)
    for index in np.flatnonzero(flags).tolist():
        alert_set.add_many(
            request_id_groups[index],
            score=float(alert_scores[index]),
            reasons=anomaly_reasons(model, float(scores[index])),
        )


class AnomalySessionDetector(Detector):
    """Alert on the most anomalous sessions according to an unsupervised model."""

    def __init__(
        self,
        model: AnomalyModel | None = None,
        *,
        name: str = "anomaly",
        contamination: float = 0.3,
        sessionizer: Sessionizer | None = None,
    ) -> None:
        if not 0.0 < contamination < 1.0:
            raise ValueError("contamination must be in (0, 1)")
        self.name = name
        self.model = model or IsolationForestModel()
        self.contamination = contamination
        self.sessionizer = sessionizer or Sessionizer()

    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        if sessions is None:
            sessions = self.sessionizer.sessionize(dataset.records)
        if len(sessions) < 2:
            return alert_set

        matrix = feature_matrix(list(sessions))
        alert_anomalous_groups(
            alert_set,
            self.model,
            matrix,
            [session.request_ids() for session in sessions],
            self.contamination,
        )
        return alert_set

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        from repro.columns.alertframe import DetectorAlerts, session_alerts

        if len(features) < 2:
            return DetectorAlerts.empty(self.name, len(frame))
        # Copy so a model that standardises in place can never corrupt
        # the shared matrix for later detectors.
        flags, alert_scores, scores = anomalous_sessions(
            self.model, features.values.copy(), self.contamination
        )
        return session_alerts(
            self.name,
            frame,
            sessions,
            flags,
            alert_scores,
            lambda index: anomaly_reasons(self.model, float(scores[index])),
        )
