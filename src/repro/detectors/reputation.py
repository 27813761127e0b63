"""IP-reputation detector.

Commercial bot-mitigation products consume threat-intelligence feeds that
flag hosting/datacenter ranges and known proxy exits.  The detector here
consumes a blocklist of /24 prefixes; by default the blocklist is the
simulated reputation feed from :class:`repro.traffic.ipspace.IPSpace`
(which flags a large share of the datacenter space and nothing else),
built with a fixed seed so results are reproducible.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Session
from repro.traffic.ipspace import IPSpace, prefix24

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class IPReputationDetector(Detector):
    """Flag every request from a /24 prefix present on a reputation blocklist."""

    def __init__(
        self,
        blocklist: Iterable[str] | None = None,
        *,
        name: str = "ip-reputation",
        feed_seed: int = 99,
        min_requests_from_prefix: int = 1,
    ) -> None:
        self.name = name
        if blocklist is None:
            blocklist = IPSpace().reputation_blocklist(random.Random(feed_seed))
        self.blocklist = set(blocklist)
        if min_requests_from_prefix < 1:
            raise ValueError("min_requests_from_prefix must be at least 1")
        self.min_requests_from_prefix = min_requests_from_prefix
        # With a prefix-count threshold the verdict depends on the
        # *global* count over a /24, and hash-sharding by full IP can
        # split a /24 across shards -- so only the default (threshold 1,
        # verdict per-IP pure) is safe to shard.
        self.frame_shardable = min_requests_from_prefix == 1

    def is_blocklisted(self, client_ip: str) -> bool:
        """True when the address's /24 prefix is on the blocklist."""
        return prefix24(client_ip) in self.blocklist

    def analyze(self, dataset: Dataset, *, sessions: Sequence[Session] | None = None) -> AlertSet:
        alert_set = AlertSet(self.name)
        if self.min_requests_from_prefix > 1:
            counts: dict[str, int] = {}
            for record in dataset:
                counts[prefix24(record.client_ip)] = counts.get(prefix24(record.client_ip), 0) + 1
        else:
            counts = {}
        for record in dataset:
            prefix = prefix24(record.client_ip)
            if prefix not in self.blocklist:
                continue
            if self.min_requests_from_prefix > 1 and counts.get(prefix, 0) < self.min_requests_from_prefix:
                continue
            alert_set.add(record.request_id, score=0.8, reasons=(f"IP prefix {prefix}.0/24 on reputation blocklist",))
        return alert_set

    # ------------------------------------------------------------------
    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Frame-native alert arrays: one blocklist probe per distinct IP."""
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        ips = frame.tables["client_ip"]
        alerts = DetectorAlerts.empty(self.name, len(frame))
        if not ips:
            return alerts
        prefixes = [prefix24(ip) for ip in ips]
        ip_flags = np.fromiter(
            (prefix in self.blocklist for prefix in prefixes), bool, len(ips)
        )
        ip_codes = frame.codes["client_ip"]
        if self.min_requests_from_prefix > 1:
            from repro.columns.frame import encode_column

            prefix_codes, prefix_table = encode_column(prefixes)
            per_prefix = np.bincount(
                prefix_codes[ip_codes].astype(np.intp), minlength=len(prefix_table)
            )
            ip_flags &= per_prefix[prefix_codes] >= self.min_requests_from_prefix
        encoder = ReasonEncoder()
        ip_reason_codes = np.fromiter(
            (
                encoder.code((f"IP prefix {prefix}.0/24 on reputation blocklist",))
                if hit
                else -1
                for prefix, hit in zip(prefixes, ip_flags.tolist())
            ),
            np.int64,
            len(ips),
        )
        flags = ip_flags[ip_codes]
        return DetectorAlerts(
            self.name,
            flags,
            np.where(flags, 0.8, 0.0),
            ip_reason_codes[ip_codes],
            encoder.table,
        )
