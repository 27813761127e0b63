"""User-agent / client fingerprint detector.

Commercial bot defences validate the client's claimed identity: obvious
scripted clients (python-requests, curl, Scrapy, ...) are flagged
outright, headless browsers are flagged, and user agents that *claim* to
be a well-known crawler are checked against the crawler operators'
published IP ranges (fake Googlebots are a scraping staple).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session
from repro.traffic.ipspace import IPPool, IPSpace
from repro.traffic.useragents import is_headless_agent, is_known_crawler_agent, is_scripted_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class UserAgentFingerprintDetector(Detector):
    """Flag requests whose client fingerprint is inconsistent or non-browser."""

    #: Verdicts depend only on the row's own (user agent, client IP)
    #: strings, so hash-sharding by IP cannot change them.
    frame_shardable = True

    def __init__(
        self,
        *,
        name: str = "ua-fingerprint",
        crawler_pool: IPPool | None = None,
        flag_scripted: bool = True,
        flag_headless: bool = True,
        flag_missing_agent: bool = True,
        flag_fake_crawlers: bool = True,
    ) -> None:
        self.name = name
        self.crawler_pool = crawler_pool or IPSpace().crawler
        self.flag_scripted = flag_scripted
        self.flag_headless = flag_headless
        self.flag_missing_agent = flag_missing_agent
        self.flag_fake_crawlers = flag_fake_crawlers

    # ------------------------------------------------------------------
    def judge_request(self, user_agent: str, client_ip: str) -> tuple[float, str] | None:
        """Return ``(score, reason)`` when the fingerprint is suspicious."""
        if self.flag_missing_agent and not user_agent.strip():
            return 0.9, "missing user agent"
        if self.flag_scripted and is_scripted_agent(user_agent):
            return 1.0, "scripted client user agent"
        if self.flag_headless and is_headless_agent(user_agent):
            return 0.9, "headless browser user agent"
        if self.flag_fake_crawlers and is_known_crawler_agent(user_agent):
            if not self.crawler_pool.contains(client_ip):
                return 0.95, "claims to be a known crawler from an unverified IP"
        return None

    def is_verified_crawler(self, user_agent: str, client_ip: str) -> bool:
        """True for crawler user agents whose source IP checks out."""
        return is_known_crawler_agent(user_agent) and self.crawler_pool.contains(client_ip)

    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        # Fingerprints depend only on (user agent, client IP), so cache
        # verdicts per pair instead of re-evaluating per request.
        cache: dict[tuple[str, str], tuple[float, str] | None] = {}
        for record in dataset:
            key = (record.user_agent, record.client_ip)
            if key not in cache:
                cache[key] = self.judge_request(record.user_agent, record.client_ip)
            verdict = cache[key]
            if verdict is None:
                continue
            score, reason = verdict
            alert_set.add(record.request_id, score=score, reasons=(reason,))
        return alert_set

    # ------------------------------------------------------------------
    def pair_verdicts(
        self, frame: "RecordFrame"
    ) -> dict[tuple[int, int], tuple[float, str]]:
        """Suspicious verdicts per distinct (agent code, IP code) pair."""
        agent_codes = frame.codes["user_agent"]
        ip_codes = frame.codes["client_ip"]
        agents = frame.tables["user_agent"]
        ips = frame.tables["client_ip"]
        pair_key = agent_codes * np.int64(len(ips) + 1) + ip_codes
        verdicts: dict[tuple[int, int], tuple[float, str]] = {}
        for key in np.unique(pair_key):
            agent_code = int(key) // (len(ips) + 1)
            ip_code = int(key) % (len(ips) + 1)
            verdict = self.judge_request(agents[agent_code], ips[ip_code])
            if verdict is not None:
                verdicts[(agent_code, ip_code)] = verdict
        return verdicts

    # ------------------------------------------------------------------
    def verdict_alerts(
        self,
        frame: "RecordFrame",
        verdicts: dict[tuple[int, int], tuple[float, str]] | None = None,
    ) -> "DetectorAlerts":
        """Frame-native alert arrays: one judgement per distinct pair.

        Per-pair flag/score/reason-code arrays are filled from
        :meth:`pair_verdicts` and gathered through the pair key's inverse
        index -- no per-record Python at all.
        """
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        if verdicts is None:
            verdicts = self.pair_verdicts(frame)
        alerts = DetectorAlerts.empty(self.name, len(frame))
        if not verdicts:
            return alerts
        ips = frame.tables["client_ip"]
        span = len(ips) + 1
        pair_key = frame.codes["user_agent"] * np.int64(span) + frame.codes["client_ip"]
        unique_keys, inverse = np.unique(pair_key, return_inverse=True)
        n_pairs = len(unique_keys)
        pair_flags = np.zeros(n_pairs, dtype=bool)
        pair_scores = np.zeros(n_pairs, dtype=np.float64)
        pair_codes = np.full(n_pairs, -1, dtype=np.int64)
        encoder = ReasonEncoder()
        for index, key in enumerate(unique_keys.tolist()):
            verdict = verdicts.get((key // span, key % span))
            if verdict is None:
                continue
            score, reason = verdict
            pair_flags[index] = True
            pair_scores[index] = score
            pair_codes[index] = encoder.code((reason,))
        return DetectorAlerts(
            self.name,
            pair_flags[inverse],
            pair_scores[inverse],
            pair_codes[inverse],
            encoder.table,
        )

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        return self.verdict_alerts(frame)
