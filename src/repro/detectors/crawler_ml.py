"""Decision-tree crawler classifier.

Follows the data-mining approach to crawler detection (Stevanovic et al.
2012): learn a decision tree over session features.  The detector can be
used in two modes:

* **self-trained** (default): pseudo-labels from unambiguous indicators
  train the tree, exactly as an operations team would bootstrap a model
  without labelled traffic;
* **supervised**: callers may pass explicit training data via
  :meth:`fit`, which the labelled extension experiments use to study an
  oracle-trained ensemble member.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.detectors.features import extract_features, feature_matrix
from repro.detectors.pseudolabels import (
    PseudoLabelConfig,
    pseudo_label_matrix,
    pseudo_label_sessions,
)
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session, Sessionizer
from repro.ml.decision_tree import DecisionTreeClassifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class CrawlerDecisionTreeDetector(Detector):
    """Session classifier built on the from-scratch CART tree."""

    def __init__(
        self,
        *,
        name: str = "decision-tree",
        alert_probability: float = 0.6,
        max_depth: int = 6,
        min_leaf: int = 5,
        pseudo_label_config: PseudoLabelConfig | None = None,
        sessionizer: Sessionizer | None = None,
    ) -> None:
        if not 0.0 < alert_probability < 1.0:
            raise ValueError("alert_probability must be in (0, 1)")
        self.name = name
        self.alert_probability = alert_probability
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.pseudo_label_config = pseudo_label_config
        self.sessionizer = sessionizer or Sessionizer()
        self.model: DecisionTreeClassifier | None = None
        self._externally_trained = False

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "CrawlerDecisionTreeDetector":
        """Train the tree on explicit ``(features, labels)`` data (supervised mode)."""
        self.model = DecisionTreeClassifier(max_depth=self.max_depth, min_leaf=self.min_leaf)
        self.model.fit(X, y)
        self._externally_trained = True
        return self

    # ------------------------------------------------------------------
    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        if sessions is None:
            sessions = self.sessionizer.sessionize(dataset.records)
        if not sessions:
            return alert_set

        matrix = feature_matrix(list(sessions))

        if not self._externally_trained:
            feature_list = [extract_features(session) for session in sessions]
            indices, labels = pseudo_label_sessions(feature_list, self.pseudo_label_config)
            if indices.size == 0 or np.unique(labels).size < 2:
                # Nothing confident to train on; stay silent rather than guess.
                return alert_set
            # Shrink the leaf-size floor on tiny pseudo-labelled populations so
            # the tree can still form one split per class.
            effective_min_leaf = max(1, min(self.min_leaf, int(indices.size) // 4))
            self.model = DecisionTreeClassifier(max_depth=self.max_depth, min_leaf=effective_min_leaf)
            self.model.fit(matrix[indices], labels)

        assert self.model is not None
        probabilities = self.model.predict_proba(matrix)
        for session, probability in zip(sessions, probabilities):
            if probability < self.alert_probability:
                continue
            for request_id in session.request_ids():
                alert_set.add(
                    request_id,
                    score=float(probability),
                    reasons=(f"decision tree bot probability {probability:.2f}",),
                )
        return alert_set

    # ------------------------------------------------------------------
    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        from repro.columns.alertframe import DetectorAlerts, session_alerts

        if len(features) == 0:
            return DetectorAlerts.empty(self.name, len(frame))

        matrix = features.values

        if not self._externally_trained:
            indices, labels = pseudo_label_matrix(features, self.pseudo_label_config)
            if indices.size == 0 or np.unique(labels).size < 2:
                # Nothing confident to train on; stay silent rather than guess.
                return DetectorAlerts.empty(self.name, len(frame))
            effective_min_leaf = max(1, min(self.min_leaf, int(indices.size) // 4))
            self.model = DecisionTreeClassifier(max_depth=self.max_depth, min_leaf=effective_min_leaf)
            self.model.fit(matrix[indices], labels)

        assert self.model is not None
        probabilities = self.model.predict_proba(matrix)
        return session_alerts(
            self.name,
            frame,
            sessions,
            probabilities >= self.alert_probability,
            probabilities,
            lambda index: (f"decision tree bot probability {float(probabilities[index]):.2f}",),
        )
