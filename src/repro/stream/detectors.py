"""The :class:`OnlineDetector` protocol and online ports of batch detectors.

An online detector lives inside a :class:`~repro.stream.engine.StreamEngine`
and sees the traffic one request at a time.  It produces two kinds of
output:

* an **immediate verdict** per request (:meth:`OnlineDetector.observe`),
  based on the visitor's session *so far* -- this is what a deployment
  blocks or challenges on;
* a **final alert set** (:meth:`OnlineDetector.final_alert_set`),
  accumulated from per-request alerts, session-close judgements
  (:meth:`OnlineDetector.on_session_close`) and an end-of-stream
  :meth:`OnlineDetector.finalize` step.

The final alert set is the bridge back to the paper's batch analysis: for
each port below it reproduces the corresponding batch detector's alert
set *exactly* when the stream replays the same records in timestamp
order, so streaming runs plug straight into the existing
:class:`~repro.core.alerts.AlertMatrix` machinery.

Ports
-----
* :class:`OnlineRequestRateLimiter` -- per-request sliding-window rate
  limiting with a penalty period (a production-style limiter with no
  batch counterpart; :class:`~repro.detectors.streaming.StreamingDetector`
  brings it to the batch analyses).
* :class:`OnlineRateLimitDetector` -- port of
  :class:`~repro.detectors.ratelimit.RateLimitDetector`.
* :class:`OnlineFingerprintDetector` -- port of
  :class:`~repro.detectors.fingerprint.UserAgentFingerprintDetector`.
* :class:`OnlineInHouseDetector` -- port of
  :class:`~repro.detectors.inhouse.InHouseHeuristicDetector` (or any
  :class:`~repro.detectors.heuristic.HeuristicRuleDetector`).
* :class:`OnlineAnomalyDetector` -- incremental anomaly scorer backed by
  the :mod:`repro.anomaly` models, port of
  :class:`~repro.detectors.anomaly_detector.AnomalySessionDetector`.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Mapping, Sequence

import numpy as np

from repro.anomaly.base import AnomalyModel
from repro.anomaly.zscore import RobustZScoreModel
from repro.core.alerts import AlertSet
from repro.detectors.anomaly_detector import alert_anomalous_groups
from repro.detectors.features import extract_features
from repro.detectors.fingerprint import UserAgentFingerprintDetector
from repro.detectors.heuristic import HeuristicRuleDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.exceptions import DetectorError
from repro.logs.record import LogRecord
from repro.logs.sessionization import Session
from repro.registry import Registry
from repro.stream.events import OnlineVerdict
from repro.traffic.useragents import is_scripted_agent


class OnlineDetector(abc.ABC):
    """Base class for detectors that judge a live request stream."""

    #: Unique, human-readable detector name (used as the alert-set name).
    name: str = "online-detector"

    def __init__(self, *, name: str | None = None) -> None:
        if name is not None:
            self.name = name
        self._alerts = AlertSet(self.name)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        """Judge one request immediately, given its visitor's session so far."""

    def on_session_close(self, session: Session) -> None:
        """React to a finished session (gap-closed, evicted or flushed)."""

    def finalize(self) -> None:
        """End-of-stream hook (e.g. fit a global model over all sessions)."""

    # ------------------------------------------------------------------
    def final_alert_set(self) -> AlertSet:
        """The accumulated (batch-equivalent) alerts of this detector."""
        return self._alerts

    def reset(self) -> None:
        """Drop all state (start of a new stream)."""
        self._alerts = AlertSet(self.name)
        self._reset_state()

    def _reset_state(self) -> None:
        """Subclass hook invoked by :meth:`reset`."""

    # ------------------------------------------------------------------
    # Sharded-runner support: detector state must cross worker boundaries
    # as plain picklable data, and per-shard partial results must merge
    # into one global alert set.
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """A picklable summary of this detector's final output."""
        return {
            "alerts": [
                (alert.request_id, alert.score, alert.reasons)
                for alert in self._alerts.alerts()
            ]
        }

    def merge_states(self, states: Sequence[Mapping]) -> AlertSet:
        """Merge exported per-shard states into one alert set.

        The default implementation unions the per-shard alerts, which is
        correct for every detector whose verdicts depend only on
        per-visitor state (visitors never span shards).  Detectors with
        global state (e.g. the anomaly port) override this.
        """
        merged = AlertSet(self.name)
        for state in states:
            for request_id, score, reasons in state["alerts"]:
                merged.add(request_id, score=score, reasons=reasons)
        return merged

    def describe(self) -> str:
        """A one-line description (defaults to the class docstring's first line)."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Request-level ports
# ----------------------------------------------------------------------
class _VisitorWindow:
    """Sliding-window state for one visitor key."""

    __slots__ = ("timestamps", "alerted_until")

    def __init__(self) -> None:
        self.timestamps: Deque[float] = deque()
        self.alerted_until = 0.0


class OnlineRequestRateLimiter(OnlineDetector):
    """Per-visitor sliding-window rate limiting with a penalty period.

    A request is flagged when its visitor has issued more than
    ``max_requests`` requests within the last ``window_seconds``.  Once a
    visitor trips the limit it stays flagged for ``penalty_seconds`` (the
    way production rate limiters and bot-mitigation challenges behave).
    Verdicts are final at observe time, so the alert set needs no
    session-close step.

    The accumulated alert set is what bridges back to the batch
    analysis, but it grows with every flagged request.  An indefinitely
    running deployment that only acts on the per-request verdicts should
    pass ``record_alerts=False``; run inside a
    :class:`~repro.stream.engine.StreamEngine` the per-visitor window
    state is then bounded too, because idle visitors are dropped when
    their session closes.
    """

    name = "streaming-rate"

    def __init__(
        self,
        *,
        name: str | None = None,
        max_requests: int = 30,
        window_seconds: float = 60.0,
        penalty_seconds: float = 300.0,
        flag_scripted_agents: bool = True,
        record_alerts: bool = True,
    ) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be at least 1")
        if window_seconds <= 0 or penalty_seconds < 0:
            raise ValueError("window_seconds must be positive and penalty_seconds non-negative")
        super().__init__(name=name)
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self.penalty_seconds = penalty_seconds
        self.flag_scripted_agents = flag_scripted_agents
        self.record_alerts = record_alerts
        self._state: dict[tuple[str, str], _VisitorWindow] = {}

    def _reset_state(self) -> None:
        self._state.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        verdict = self._judge(record)
        if verdict.alerted and self.record_alerts:
            self._alerts.add(record.request_id, score=verdict.score, reasons=(verdict.reason,))
        return verdict

    def on_session_close(self, session: Session) -> None:
        # The visitor has been idle past the session timeout; drop its
        # window unless a longer penalty is still running, so per-visitor
        # state stays bounded on an infinite stream with IP churn.
        key = (session.client_ip, session.user_agent)
        window = self._state.get(key)
        if window is not None and session.end.timestamp() >= window.alerted_until:
            del self._state[key]

    def _judge(self, record: LogRecord) -> OnlineVerdict:
        if self.flag_scripted_agents and is_scripted_agent(record.user_agent):
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason="scripted client user agent",
                score=1.0,
            )

        key = record.actor_key()
        window = self._state.get(key)
        if window is None:
            window = self._state[key] = _VisitorWindow()
        now = record.timestamp.timestamp()

        if now < window.alerted_until:
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason="visitor in rate-limit penalty period",
                score=0.8,
            )

        window.timestamps.append(now)
        cutoff = now - self.window_seconds
        while window.timestamps and window.timestamps[0] < cutoff:
            window.timestamps.popleft()

        if len(window.timestamps) > self.max_requests:
            window.alerted_until = now + self.penalty_seconds
            rate = len(window.timestamps)
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason=f"{rate} requests in {self.window_seconds:.0f}s exceeds {self.max_requests}",
                score=min(1.0, 0.5 + 0.5 * (rate - self.max_requests) / self.max_requests),
            )
        return OnlineVerdict(request_id=record.request_id, alerted=False)


class OnlineFingerprintDetector(OnlineDetector):
    """Online port of the user-agent / client fingerprint detector.

    Fingerprint verdicts depend only on the (user agent, client IP) pair,
    so the online decision is final immediately and identical to the
    batch :class:`~repro.detectors.fingerprint.UserAgentFingerprintDetector`.
    """

    name = "ua-fingerprint"

    def __init__(
        self,
        batch: UserAgentFingerprintDetector | None = None,
        *,
        name: str | None = None,
        **batch_kwargs,
    ) -> None:
        if batch is not None and batch_kwargs:
            raise ValueError("pass either a batch detector or its keyword arguments, not both")
        resolved_name = name or (batch.name if batch is not None else self.name)
        super().__init__(name=resolved_name)
        self.batch = batch or UserAgentFingerprintDetector(name=resolved_name, **batch_kwargs)
        self._cache: dict[tuple[str, str], tuple[float, str] | None] = {}

    def _reset_state(self) -> None:
        self._cache.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        key = (record.user_agent, record.client_ip)
        if key not in self._cache:
            self._cache[key] = self.batch.judge_request(record.user_agent, record.client_ip)
        verdict = self._cache[key]
        if verdict is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score, reason = verdict
        self._alerts.add(record.request_id, score=score, reasons=(reason,))
        return OnlineVerdict(request_id=record.request_id, alerted=True, reason=reason, score=score)

    def on_session_close(self, session: Session) -> None:
        # Fingerprint verdicts are pure functions of (user agent, IP); the
        # cache entry is cheap to recompute, so drop it with the session to
        # keep memory bounded under visitor churn.
        self._cache.pop((session.user_agent, session.client_ip), None)


# ----------------------------------------------------------------------
# Session-level ports
# ----------------------------------------------------------------------
class _SessionRateState:
    """Incremental per-session rate counters (peak window + averages)."""

    __slots__ = ("window", "peak")

    def __init__(self) -> None:
        self.window: Deque[float] = deque()
        self.peak = 1

    def update(self, timestamp: float, window_seconds: float) -> None:
        self.window.append(timestamp)
        cutoff = timestamp - window_seconds
        while self.window and self.window[0] < cutoff:
            self.window.popleft()
        if len(self.window) > self.peak:
            self.peak = len(self.window)


class OnlineRateLimitDetector(OnlineDetector):
    """Online port of the session rate-limit detector.

    Per request, the visitor's session *so far* is judged with the same
    average/peak-rate rule as the batch
    :class:`~repro.detectors.ratelimit.RateLimitDetector`, using O(1)
    incremental counters.  At session close the full session is judged
    once more with the batch rule and every request of a flagged session
    is alerted -- which makes the final alert set identical to the batch
    detector's.  Because the peak one-minute window can only grow as a
    session extends, an online alert is never retracted at close.
    """

    name = "rate-limit"

    def __init__(
        self,
        *,
        name: str | None = None,
        threshold_rpm: float = 60.0,
        min_requests: int = 10,
        use_peak_rate: bool = True,
    ) -> None:
        super().__init__(name=name)
        self.batch = RateLimitDetector(
            name=self.name,
            threshold_rpm=threshold_rpm,
            min_requests=min_requests,
            use_peak_rate=use_peak_rate,
        )
        self._state: dict[str, _SessionRateState] = {}

    def _reset_state(self) -> None:
        self._state.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        state = self._state.get(session.session_id)
        if state is None:
            state = self._state[session.session_id] = _SessionRateState()
        state.update(record.timestamp.timestamp(), 60.0)

        count = session.request_count
        if count < self.batch.min_requests:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        rate = session.requests_per_minute()
        if self.batch.use_peak_rate:
            rate = max(rate, float(state.peak))
        threshold = self.batch.threshold_rpm
        if rate <= threshold:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score = min(1.0, 0.5 + 0.5 * (rate - threshold) / threshold)
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason=f"session rate {rate:.0f} req/min exceeds {threshold:.0f}",
            score=score,
        )

    def on_session_close(self, session: Session) -> None:
        self._state.pop(session.session_id, None)
        verdict = self.batch.judge_session(session)
        if verdict is None:
            return
        score, reasons = verdict
        for request_id in session.request_ids():
            self._alerts.add(request_id, score=score, reasons=reasons)


class OnlineInHouseDetector(OnlineDetector):
    """Online port of the in-house heuristic rule engine.

    The authoritative judgement happens at session close, where the full
    session is run through the batch rule set (including the
    verified-crawler whitelist), so the final alert set matches
    :class:`~repro.detectors.inhouse.InHouseHeuristicDetector` exactly.
    Online, sessions are re-judged whenever their request count doubles
    (1, 2, 4, 8, ...), which keeps the per-request cost amortised O(1)
    while still tripping on rule violations shortly after they appear.
    """

    name = "inhouse"

    def __init__(
        self,
        batch: HeuristicRuleDetector | None = None,
        *,
        name: str | None = None,
    ) -> None:
        resolved_name = name or (batch.name if batch is not None else self.name)
        super().__init__(name=resolved_name)
        self.batch = batch or InHouseHeuristicDetector(name=resolved_name)
        #: session_id -> (request count at last evaluation, cached verdict)
        self._provisional: dict[str, tuple[int, tuple[float, Sequence[str]] | None]] = {}

    def _reset_state(self) -> None:
        self._provisional.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        count = session.request_count
        cached = self._provisional.get(session.session_id)
        if cached is None or count >= 2 * cached[0]:
            verdict = self.batch.judge_session(session)
            self._provisional[session.session_id] = (count, verdict)
        else:
            verdict = cached[1]
        if verdict is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score, reasons = verdict
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason="; ".join(reasons),
            score=score,
        )

    def on_session_close(self, session: Session) -> None:
        self._provisional.pop(session.session_id, None)
        verdict = self.batch.judge_session(session)
        if verdict is None:
            return
        score, reasons = verdict
        for request_id in session.request_ids():
            self._alerts.add(request_id, score=score, reasons=reasons)


class OnlineAnomalyDetector(OnlineDetector):
    """Incremental anomaly scorer backed by the :mod:`repro.anomaly` models.

    Closed sessions are folded into a feature store; every
    ``refit_interval`` closed sessions the model is refitted so live
    verdicts track the evolving traffic.  Online, a session is flagged
    when its features score above the current contamination threshold.

    At end of stream :meth:`finalize` refits on *all* sessions and
    re-derives the threshold exactly like the batch
    :class:`~repro.detectors.anomaly_detector.AnomalySessionDetector`,
    which makes the final alert set identical for order-independent
    models such as :class:`~repro.anomaly.zscore.RobustZScoreModel` (the
    default).  Models that subsample rows (e.g. the isolation forest)
    reproduce the batch results only approximately.
    """

    name = "anomaly"

    def __init__(
        self,
        model_factory: Callable[[], AnomalyModel] = RobustZScoreModel,
        *,
        name: str | None = None,
        contamination: float = 0.3,
        refit_interval: int = 64,
    ) -> None:
        if not 0.0 < contamination < 1.0:
            raise ValueError("contamination must be in (0, 1)")
        if refit_interval < 2:
            raise ValueError("refit_interval must be at least 2")
        super().__init__(name=name)
        self.model_factory = model_factory
        self.contamination = contamination
        self.refit_interval = refit_interval
        #: (session start ISO timestamp, session id, feature vector, request ids)
        self._closed: list[tuple[str, str, np.ndarray, tuple[str, ...]]] = []
        self._live_model: AnomalyModel | None = None
        self._live_threshold = float("inf")
        #: session_id -> (request count at last scoring, alerted, score)
        self._provisional: dict[str, tuple[int, bool, float]] = {}

    def _reset_state(self) -> None:
        self._closed.clear()
        self._live_model = None
        self._live_threshold = float("inf")
        self._provisional.clear()

    # ------------------------------------------------------------------
    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None or self._live_model is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        count = session.request_count
        cached = self._provisional.get(session.session_id)
        if cached is None or count >= 2 * cached[0]:
            vector = extract_features(session).vector().reshape(1, -1)
            score = float(self._live_model.score(vector)[0])
            alerted = score >= self._live_threshold
            self._provisional[session.session_id] = (count, alerted, score)
        else:
            _, alerted, score = cached
        if not alerted:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason=f"session anomaly score {score:.3f} above threshold",
            score=min(1.0, score / (self._live_threshold or 1.0)),
        )

    def on_session_close(self, session: Session) -> None:
        self._provisional.pop(session.session_id, None)
        self._closed.append(
            (
                session.start.isoformat(),
                session.session_id,
                extract_features(session).vector(),
                tuple(session.request_ids()),
            )
        )
        if len(self._closed) % self.refit_interval == 0:
            self._refit_live_model()

    def _refit_live_model(self) -> None:
        matrix = np.vstack([entry[2] for entry in self._closed])
        model = self.model_factory()
        scores = model.fit_score(matrix)
        self._live_model = model
        self._live_threshold = model.threshold_for_contamination(scores, self.contamination)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        self._alerts = self._score_closed_sessions(self._closed)

    def _score_closed_sessions(
        self, closed: Sequence[tuple[str, str, np.ndarray, tuple[str, ...]]]
    ) -> AlertSet:
        """The batch-identical global fit/threshold/alert computation."""
        alert_set = AlertSet(self.name)
        if len(closed) < 2:
            return alert_set
        # Sort by session start for reproducibility (the batch detector
        # scores sessions in start order; order only matters to models
        # that subsample rows).
        ordered = sorted(closed, key=lambda entry: (entry[0], entry[1]))
        matrix = np.vstack([entry[2] for entry in ordered])
        alert_anomalous_groups(
            alert_set,
            self.model_factory(),
            matrix,
            [entry[3] for entry in ordered],
            self.contamination,
        )
        return alert_set

    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        # Export the raw per-session features instead of per-shard alerts:
        # the contamination threshold is a quantile over *all* sessions, so
        # merging must pool features and refit globally.
        return {"alerts": [], "sessions": list(self._closed)}

    def merge_states(self, states: Sequence[Mapping]) -> AlertSet:
        pooled: list[tuple[str, str, np.ndarray, tuple[str, ...]]] = []
        for state in states:
            pooled.extend(state["sessions"])
        return self._score_closed_sessions(pooled)


def default_online_detectors(
    *,
    contamination: float = 0.3,
    model_factory: Callable[[], AnomalyModel] = RobustZScoreModel,
) -> list[OnlineDetector]:
    """The standard four-detector online ensemble (one port per family)."""
    return [
        OnlineRateLimitDetector(),
        OnlineFingerprintDetector(),
        OnlineInHouseDetector(),
        OnlineAnomalyDetector(model_factory, contamination=contamination),
    ]


# ----------------------------------------------------------------------
# Online-detector registry
# ----------------------------------------------------------------------
_ONLINE_REGISTRY: Registry[OnlineDetector] = Registry("online detector", DetectorError)


def register_online_detector(
    name: str, factory: Callable[..., OnlineDetector], *, overwrite: bool = False
) -> None:
    """Register an online-detector factory under ``name``."""
    _ONLINE_REGISTRY.register(name, factory, overwrite=overwrite)


def available_online_detectors() -> list[str]:
    """Names of all registered online detectors."""
    return _ONLINE_REGISTRY.names()


def create_online_detector(name: str, **kwargs) -> OnlineDetector:
    """Instantiate a registered online detector by name.

    Raises :class:`~repro.exceptions.DetectorError` -- with a
    did-you-mean suggestion -- when the name is unknown.
    """
    return _ONLINE_REGISTRY.create(name, **kwargs)


def _online_anomaly_factory(*, contamination: float = 0.3) -> OnlineDetector:
    return OnlineAnomalyDetector(RobustZScoreModel, contamination=contamination)


register_online_detector("rate-limit", OnlineRateLimitDetector)
register_online_detector("ua-fingerprint", OnlineFingerprintDetector)
register_online_detector("inhouse", OnlineInHouseDetector)
register_online_detector("anomaly", _online_anomaly_factory)
register_online_detector("request-rate", OnlineRequestRateLimiter)
