"""Detector base classes.

A detector has two entry points over the same judgement logic:

* ``analyze`` consumes a :class:`~repro.logs.dataset.Dataset` (records
  only -- never the ground truth) and produces an
  :class:`~repro.core.alerts.AlertSet`.  It is the reference
  implementation the test suite holds the batch path to.
* ``alert_columns`` consumes a :class:`~repro.columns.RecordFrame` with
  its session spans and feature matrix and produces per-row alert
  arrays.  It is the one batch path
  (:class:`~repro.detectors.pipeline.DetectionPipeline`).  Detectors
  without an array implementation inherit a bridge that runs ``analyze``
  over the frame's records.

Implement ``analyze`` as the reference and ``alert_columns`` for batch.
Two base classes are provided:

* :class:`Detector` -- the minimal interface.
* :class:`SessionDetector` -- for detectors that reason about visitor
  sessions; it handles sessionization and lets subclasses implement a
  single ``judge_session`` method.  Sessionization is the dominant cost
  when running many detectors over the same data, so pre-computed
  sessions can be passed in and shared.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.core.alerts import AlertSet
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session, Sessionizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class Detector(abc.ABC):
    """Abstract base class for all detectors."""

    #: Unique, human-readable detector name (used as the alert-set name).
    name: str = "detector"

    #: True when this detector's verdicts depend only on data that
    #: hash-sharding by client IP keeps together (the visitor's own rows,
    #: its sessions, its user-agent/IP strings) -- the precondition for
    #: the multi-process frame pipeline.  Detectors with cross-visitor
    #: state (learned models, global thresholds) must leave this False.
    frame_shardable: bool = False

    @abc.abstractmethod
    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        """Analyse the data set and return this detector's alerts.

        Parameters
        ----------
        dataset:
            The access-log data set to analyse.
        sessions:
            Optional pre-computed sessions (from
            :class:`~repro.logs.sessionization.Sessionizer`) so several
            detectors can share the sessionization work.  Detectors that
            do not need sessions ignore the argument.
        """

    def alert_columns(
        self,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        features: "FeatureMatrix",
    ) -> "DetectorAlerts":
        """Analyse a frame into columnar alert arrays (the batch contract).

        Returns a :class:`~repro.columns.alertframe.DetectorAlerts` --
        per-row flag/score/reason-code arrays -- and is the only method
        the batch pipeline calls.  An override must carry exactly the
        ids, scores and reasons :meth:`analyze` produces (the golden
        digests and the reference suite pin this).  This default is the
        bridge for record-only detectors: it runs :meth:`analyze` over
        the frame's records and the spans' sessions, then columnarises
        the alert set.
        """
        from repro.columns.alertframe import DetectorAlerts

        dataset = frame.to_dataset()
        alert_set = self.analyze(dataset, sessions=sessions.to_sessions(dataset.records))
        return DetectorAlerts.from_alert_set(frame, alert_set)

    def describe(self) -> str:
        """A one-line description (defaults to the class docstring's first line)."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class SessionDetector(Detector):
    """Base class for detectors that reason about whole sessions.

    Subclasses implement :meth:`judge_session`, returning either ``None``
    (no alert) or a ``(score, reasons)`` tuple; every request of a flagged
    session is then alerted, which matches how both commercial products
    and in-house tools attribute session verdicts back to requests.
    """

    def __init__(self, sessionizer: Sessionizer | None = None):
        self.sessionizer = sessionizer or Sessionizer()

    @abc.abstractmethod
    def judge_session(self, session: Session) -> tuple[float, Sequence[str]] | None:
        """Return ``(score, reasons)`` when the session is malicious, else ``None``."""

    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        if sessions is None:
            sessions = self.sessionizer.sessionize(dataset.records)
        for session in sessions:
            verdict = self.judge_session(session)
            if verdict is None:
                continue
            score, reasons = verdict
            for request_id in session.request_ids():
                alert_set.add(request_id, score=score, reasons=reasons)
        return alert_set
