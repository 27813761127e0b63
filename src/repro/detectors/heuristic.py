"""Rule-based heuristic detection.

In-house scraping detectors are typically transparent rule engines: a set
of operational heuristics, each encoding one observation the security team
made about scraper behaviour ("nobody legitimate makes 50 search requests
a minute", "browsers load stylesheets", "humans don't generate 10% 400s").
This module provides the rule engine plus the individual rules; the
Arcane-like composite in :mod:`repro.detectors.inhouse` is a particular
configuration of it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.detectors.base import SessionDetector
from repro.logs.sessionization import Session, Sessionizer
from repro.traffic.ipspace import IPPool, IPSpace
from repro.traffic.useragents import is_known_crawler_agent, is_scripted_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class Rule(abc.ABC):
    """One heuristic rule evaluated against a session."""

    #: Short rule name (shows up as an alert reason prefix).
    name: str = "rule"

    @abc.abstractmethod
    def matches(self, session: Session) -> str | None:
        """Return a human-readable reason when the rule fires, else ``None``."""

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None] | None:
        """Evaluate the rule for every session of a frame at once.

        Returns one entry per session (the reason string, or ``None``
        when the rule does not fire), or ``None`` when the rule has no
        vectorized implementation -- the detector then runs the record
        path for the whole rule set.  Implementations must return
        exactly what :meth:`matches` would per session.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}()"


class RateRule(Rule):
    """Sessions faster than a human could sustain.

    The rule fires on either the session's average rate or its busiest
    one-minute window (:meth:`~repro.logs.sessionization.Session.peak_requests_per_minute`),
    so bursty scrapers cannot hide behind long idle gaps.
    """

    name = "session-rate"

    def __init__(self, threshold_rpm: float = 30.0, min_requests: int = 10):
        if threshold_rpm <= 0:
            raise ValueError("threshold_rpm must be positive")
        self.threshold_rpm = threshold_rpm
        self.min_requests = min_requests

    def matches(self, session: Session) -> str | None:
        if session.request_count < self.min_requests:
            return None
        rate = session.requests_per_minute()
        if rate > self.threshold_rpm:
            return f"{self.name}: {rate:.0f} req/min > {self.threshold_rpm:.0f}"
        peak = session.peak_requests_per_minute()
        if peak > self.threshold_rpm:
            return f"{self.name}: peak {peak:.0f} req/min > {self.threshold_rpm:.0f}"
        return None

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        counts = features.counts
        rates = features.column("requests_per_minute")
        eligible = counts >= self.min_requests
        average_fired = eligible & (rates > self.threshold_rpm)
        peaks = features.peak_rpm()
        peak_fired = eligible & ~average_fired & (peaks > self.threshold_rpm)
        out: list[str | None] = [None] * len(features)
        for index in np.flatnonzero(average_fired).tolist():
            out[index] = (
                f"{self.name}: {float(rates[index]):.0f} req/min > {self.threshold_rpm:.0f}"
            )
        for index in np.flatnonzero(peak_fired).tolist():
            out[index] = (
                f"{self.name}: peak {float(peaks[index]):.0f} req/min > {self.threshold_rpm:.0f}"
            )
        return out


class ScriptedAgentRule(Rule):
    """Obvious scripted-client user agents (requests/curl/Scrapy/...)."""

    name = "scripted-agent"

    def matches(self, session: Session) -> str | None:
        if is_scripted_agent(session.user_agent):
            return f"{self.name}: {session.user_agent.split('/')[0]}"
        if not session.user_agent.strip():
            return f"{self.name}: empty user agent"
        return None

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        # The verdict depends only on the user-agent string: evaluate it
        # once per distinct agent and gather per session.
        per_agent: list[str | None] = []
        for agent in frame.tables["user_agent"]:
            if is_scripted_agent(agent):
                per_agent.append(f"{self.name}: {agent.split('/')[0]}")
            elif not agent.strip():
                per_agent.append(f"{self.name}: empty user agent")
            else:
                per_agent.append(None)
        return [per_agent[code] for code in sessions.agent_codes.tolist()]


class ErrorProbeRule(Rule):
    """Sessions that probe the application's error space.

    Scrapers that map an API or fuzz query parameters leave a trail of
    400/404 responses, empty ``204`` responses and HEAD probes at rates no
    organic visitor produces.  The application's own tracking beacons also
    answer ``204``, so paths matching ``tracking_path_markers`` are
    excluded from the 204 computation -- an in-house tool knows its own
    telemetry endpoints.
    """

    name = "error-probe"

    def __init__(
        self,
        *,
        min_requests: int = 8,
        error_rate_threshold: float = 0.04,
        no_content_threshold: float = 0.06,
        head_threshold: float = 0.08,
        tracking_path_markers: Sequence[str] = ("/track", "/beacon", "/pixel"),
    ) -> None:
        self.min_requests = min_requests
        self.error_rate_threshold = error_rate_threshold
        self.no_content_threshold = no_content_threshold
        self.head_threshold = head_threshold
        self.tracking_path_markers = tuple(tracking_path_markers)

    def _is_tracking_path(self, path: str) -> bool:
        lowered = path.lower()
        return any(marker in lowered for marker in self.tracking_path_markers)

    def _no_content_fraction(self, session: Session) -> float:
        """Fraction of 204 responses, ignoring the site's own tracking endpoints."""
        relevant = [r for r in session.records if not self._is_tracking_path(r.url_path)]
        if not relevant:
            return 0.0
        return sum(1 for r in relevant if r.status == 204) / len(relevant)

    def matches(self, session: Session) -> str | None:
        if session.request_count < self.min_requests:
            return None
        error_rate = session.error_rate()
        if error_rate >= self.error_rate_threshold:
            return f"{self.name}: error rate {error_rate:.1%}"
        no_content = self._no_content_fraction(session)
        if no_content >= self.no_content_threshold:
            return f"{self.name}: 204 fraction {no_content:.1%}"
        head_fraction = session.head_fraction()
        if head_fraction >= self.head_threshold:
            return f"{self.name}: HEAD fraction {head_fraction:.1%}"
        return None

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        n = len(features)
        counts = features.counts
        eligible = counts >= self.min_requests
        error_rate = features.column("error_rate")
        head_fraction = features.column("head_fraction")

        # 204 fraction over non-tracking paths: tracking status is a
        # property of the (distinct) URL path, counted per session.
        url_paths = frame.url_paths()
        tracking_table = np.fromiter(
            (self._is_tracking_path(path) for path in url_paths), bool, len(url_paths)
        )
        relevant = ~tracking_table[frame.codes["path"]]
        session_of = sessions.record_session_index()
        relevant_counts = np.bincount(session_of[relevant].astype(np.intp), minlength=n)
        no_content_counts = np.bincount(
            session_of[relevant & (frame.statuses == 204)].astype(np.intp), minlength=n
        )
        no_content = np.where(
            relevant_counts > 0, no_content_counts / np.maximum(relevant_counts, 1), 0.0
        )

        error_fired = eligible & (error_rate >= self.error_rate_threshold)
        no_content_fired = eligible & ~error_fired & (no_content >= self.no_content_threshold)
        head_fired = (
            eligible & ~error_fired & ~no_content_fired & (head_fraction >= self.head_threshold)
        )
        out: list[str | None] = [None] * n
        for index in np.flatnonzero(error_fired).tolist():
            out[index] = f"{self.name}: error rate {float(error_rate[index]):.1%}"
        for index in np.flatnonzero(no_content_fired).tolist():
            out[index] = f"{self.name}: 204 fraction {float(no_content[index]):.1%}"
        for index in np.flatnonzero(head_fired).tolist():
            out[index] = f"{self.name}: HEAD fraction {float(head_fraction[index]):.1%}"
        return out


class RobotsNoAssetRule(Rule):
    """Crawler-shaped sessions that are not verified crawlers.

    Fetching ``robots.txt`` while never loading a stylesheet or image is
    crawler behaviour; when the visitor is not one of the verified search
    engines it is almost certainly a scraper seeding its crawl.
    """

    name = "robots-no-assets"

    def __init__(self, *, min_requests: int = 10, asset_threshold: float = 0.02):
        self.min_requests = min_requests
        self.asset_threshold = asset_threshold

    def matches(self, session: Session) -> str | None:
        if session.request_count < self.min_requests:
            return None
        if session.robots_txt_hits() == 0:
            return None
        if session.asset_fraction() <= self.asset_threshold:
            return f"{self.name}: robots.txt fetched, {session.asset_fraction():.1%} assets"
        return None

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        asset_fraction = features.column("asset_fraction")
        fired = (
            (features.counts >= self.min_requests)
            & (features.column("robots_hits") > 0)
            & (asset_fraction <= self.asset_threshold)
        )
        out: list[str | None] = [None] * len(features)
        for index in np.flatnonzero(fired).tolist():
            out[index] = (
                f"{self.name}: robots.txt fetched, {float(asset_fraction[index]):.1%} assets"
            )
        return out


class PathRepetitionRule(Rule):
    """The same resource hammered repeatedly within one session."""

    name = "path-repetition"

    def __init__(self, *, min_requests: int = 20, repetition_threshold: float = 8.0):
        self.min_requests = min_requests
        self.repetition_threshold = repetition_threshold

    def matches(self, session: Session) -> str | None:
        if session.request_count < self.min_requests:
            return None
        repetition = session.path_repetition()
        if repetition >= self.repetition_threshold:
            return f"{self.name}: {repetition:.1f} requests per distinct path"
        return None

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        unique = features.unique_paths
        repetition = np.where(
            unique > 0, features.counts / np.maximum(unique, 1), 0.0
        )
        fired = (features.counts >= self.min_requests) & (
            repetition >= self.repetition_threshold
        )
        out: list[str | None] = [None] * len(features)
        for index in np.flatnonzero(fired).tolist():
            out[index] = f"{self.name}: {float(repetition[index]):.1f} requests per distinct path"
        return out


class HeuristicRuleDetector(SessionDetector):
    """A rule engine: a session is alerted when any rule fires.

    Verified crawlers (well-known crawler user agent from the operator's
    published IP range) are whitelisted before the rules run, as every
    operations team does to avoid alert noise from Googlebot.
    """

    #: Rules judge one session at a time (the Rule contract), so
    #: hash-sharding by IP -- which keeps sessions whole -- is safe.
    frame_shardable = True

    def __init__(
        self,
        rules: Sequence[Rule],
        *,
        name: str = "heuristic-rules",
        whitelist_verified_crawlers: bool = True,
        crawler_pool: IPPool | None = None,
        sessionizer: Sessionizer | None = None,
    ) -> None:
        super().__init__(sessionizer)
        if not rules:
            raise ValueError("a rule detector needs at least one rule")
        self.name = name
        self.rules = list(rules)
        self.whitelist_verified_crawlers = whitelist_verified_crawlers
        self.crawler_pool = crawler_pool or IPSpace().crawler

    def is_whitelisted(self, session: Session) -> bool:
        """True for sessions from verified, well-known crawlers."""
        if not self.whitelist_verified_crawlers:
            return False
        return is_known_crawler_agent(session.user_agent) and self.crawler_pool.contains(session.client_ip)

    def judge_session(self, session: Session) -> tuple[float, Sequence[str]] | None:
        if self.is_whitelisted(session):
            return None
        reasons = []
        for rule in self.rules:
            reason = rule.matches(session)
            if reason is not None:
                reasons.append(reason)
        if not reasons:
            return None
        # More independent rules firing means higher confidence.
        score = min(1.0, 0.6 + 0.2 * (len(reasons) - 1))
        return score, tuple(reasons)

    # ------------------------------------------------------------------
    def whitelisted_sessions(
        self, frame: "RecordFrame", sessions: "FrameSessions"
    ) -> np.ndarray:
        """Per-session flags: verified, well-known crawler sessions."""
        n = len(sessions)
        flags = np.zeros(n, dtype=bool)
        if not self.whitelist_verified_crawlers:
            return flags
        agents = frame.tables["user_agent"]
        ips = frame.tables["client_ip"]
        crawler_table = np.fromiter(
            (is_known_crawler_agent(agent) for agent in agents), bool, len(agents)
        )
        pool_cache: dict[int, bool] = {}
        for index in np.flatnonzero(crawler_table[sessions.agent_codes]).tolist():
            ip_code = int(sessions.ip_codes[index])
            verified = pool_cache.get(ip_code)
            if verified is None:
                verified = self.crawler_pool.contains(ips[ip_code])
                pool_cache[ip_code] = verified
            flags[index] = verified
        return flags

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Frame-native alert arrays: per-session rule verdicts, scattered.

        When any rule lacks a vectorized implementation the whole rule
        set runs through the record bridge of
        :meth:`~repro.detectors.base.Detector.alert_columns`; otherwise
        the per-request expansion is a vectorized session -> row scatter.
        """
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        per_rule: list[list[str | None]] = []
        for rule in self.rules:
            reasons = rule.matches_frame(frame, sessions, features)
            if reasons is None:
                return super().alert_columns(frame, sessions, features)
            per_rule.append(reasons)
        whitelisted = self.whitelisted_sessions(frame, sessions)
        n_sessions = len(sessions)
        session_flags = np.zeros(n_sessions, dtype=bool)
        session_scores = np.zeros(n_sessions, dtype=np.float64)
        session_codes = np.full(n_sessions, -1, dtype=np.int64)
        encoder = ReasonEncoder()
        for index in range(n_sessions):
            if whitelisted[index]:
                continue
            reasons = [rule[index] for rule in per_rule if rule[index] is not None]
            if not reasons:
                continue
            session_flags[index] = True
            session_scores[index] = min(1.0, 0.6 + 0.2 * (len(reasons) - 1))
            session_codes[index] = encoder.code(tuple(reasons))
        return DetectorAlerts.from_sessions(
            self.name,
            frame,
            sessions,
            session_flags,
            session_scores,
            session_codes,
            encoder.table,
        )
