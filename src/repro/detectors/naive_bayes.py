"""Naive-Bayes robot detector.

Follows the probabilistic-reasoning approach to web robot detection
(Stassopoulou & Dikaiakos 2009): binarise a handful of session indicators
(high rate, no assets, no referrers, wide coverage, error probing,
night-time activity, non-browser agent), learn per-class likelihoods and
classify sessions by posterior probability.  Training labels come from
the shared self-training pseudo-labeller
(:mod:`repro.detectors.pseudolabels`); when the pseudo-labels do not
contain both classes the detector degrades gracefully to alerting only on
the confidently automated sessions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.detectors.features import SessionFeatures, extract_features
from repro.detectors.pseudolabels import (
    PseudoLabelConfig,
    pseudo_label_matrix,
    pseudo_label_sessions,
)
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session, Sessionizer
from repro.ml.naive_bayes import BernoulliNaiveBayes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts

#: Names of the binary indicators, in vector order.
INDICATOR_NAMES: tuple[str, ...] = (
    "high_rate",
    "no_assets",
    "no_referrers",
    "wide_coverage",
    "error_probing",
    "night_activity",
    "non_browser_agent",
    "large_session",
)


def binarize_features(features: SessionFeatures) -> np.ndarray:
    """Convert session features into the binary indicator vector."""
    return np.array(
        [
            float(features.requests_per_minute > 30.0),
            float(features.asset_fraction < 0.05),
            float(features.referrer_fraction < 0.2),
            float(features.unique_path_ratio > 0.85 and features.request_count >= 15),
            float(features.error_rate > 0.04 or features.no_content_fraction > 0.06 or features.head_fraction > 0.08),
            float(features.night_fraction > 0.4),
            float(features.scripted_agent or features.headless_agent),
            float(features.request_count >= 30),
        ],
        dtype=float,
    )


def binarize_matrix(features: "FeatureMatrix") -> np.ndarray:
    """All sessions' binary indicator vectors at once.

    The batched counterpart of :func:`binarize_features`: same columns
    in :data:`INDICATOR_NAMES` order, bit-identical values.
    """
    counts = features.counts
    return np.column_stack(
        [
            features.column("requests_per_minute") > 30.0,
            features.column("asset_fraction") < 0.05,
            features.column("referrer_fraction") < 0.2,
            (features.column("unique_path_ratio") > 0.85) & (counts >= 15),
            (features.column("error_rate") > 0.04)
            | (features.column("no_content_fraction") > 0.06)
            | (features.column("head_fraction") > 0.08),
            features.column("night_fraction") > 0.4,
            (features.column("scripted_agent") != 0.0)
            | (features.column("headless_agent") != 0.0),
            counts >= 30,
        ]
    ).astype(float)


class NaiveBayesRobotDetector(Detector):
    """Self-trained Bernoulli naive-Bayes session classifier."""

    def __init__(
        self,
        *,
        name: str = "naive-bayes",
        alert_probability: float = 0.7,
        pseudo_label_config: PseudoLabelConfig | None = None,
        sessionizer: Sessionizer | None = None,
    ) -> None:
        if not 0.0 < alert_probability < 1.0:
            raise ValueError("alert_probability must be in (0, 1)")
        self.name = name
        self.alert_probability = alert_probability
        self.pseudo_label_config = pseudo_label_config
        self.sessionizer = sessionizer or Sessionizer()
        self.model: BernoulliNaiveBayes | None = None

    # ------------------------------------------------------------------
    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        if sessions is None:
            sessions = self.sessionizer.sessionize(dataset.records)
        if not sessions:
            return alert_set

        feature_list = [extract_features(session) for session in sessions]
        indicator_matrix = np.vstack([binarize_features(features) for features in feature_list])
        indices, labels = pseudo_label_sessions(list(feature_list), self.pseudo_label_config)

        if indices.size and np.unique(labels).size == 2:
            self.model = BernoulliNaiveBayes()
            self.model.fit(indicator_matrix[indices], labels)
            probabilities = self.model.predict_proba(indicator_matrix)
            bot_column = int(np.where(self.model.classes_ == 1)[0][0])
            bot_probability = probabilities[:, bot_column]
        else:
            # Degenerate pseudo-label population: fall back to flagging only
            # the sessions the pseudo-labeller itself is confident about.
            self.model = None
            bot_probability = np.zeros(len(sessions))
            bot_probability[indices[labels == 1]] = 1.0 if indices.size else 0.0

        for session, probability in zip(sessions, bot_probability):
            if probability < self.alert_probability:
                continue
            for request_id in session.request_ids():
                alert_set.add(
                    request_id,
                    score=float(probability),
                    reasons=(f"naive Bayes bot posterior {probability:.2f}",),
                )
        return alert_set

    # ------------------------------------------------------------------
    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        from repro.columns.alertframe import DetectorAlerts, session_alerts

        if len(features) == 0:
            return DetectorAlerts.empty(self.name, len(frame))

        indicator_matrix = binarize_matrix(features)
        indices, labels = pseudo_label_matrix(features, self.pseudo_label_config)

        if indices.size and np.unique(labels).size == 2:
            self.model = BernoulliNaiveBayes()
            self.model.fit(indicator_matrix[indices], labels)
            probabilities = self.model.predict_proba(indicator_matrix)
            bot_column = int(np.where(self.model.classes_ == 1)[0][0])
            bot_probability = probabilities[:, bot_column]
        else:
            self.model = None
            bot_probability = np.zeros(len(features))
            bot_probability[indices[labels == 1]] = 1.0 if indices.size else 0.0

        return session_alerts(
            self.name,
            frame,
            sessions,
            bot_probability >= self.alert_probability,
            bot_probability,
            lambda index: (f"naive Bayes bot posterior {float(bot_probability[index]):.2f}",),
        )
