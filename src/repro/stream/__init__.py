"""repro.stream -- real-time streaming detection.

The batch pipeline answers the paper's retrospective question ("which
requests *were* malicious?"); this package answers the production one
("is *this* request malicious, right now?").  It consumes
:class:`~repro.logs.record.LogRecord` streams -- dataset replays, live
traffic-generator feeds or tailed Apache logs -- and produces per-request
verdicts online:

* :mod:`repro.stream.sessionizer` -- incremental sessionization with
  timeout-based eviction, mirroring the batch semantics exactly;
* :mod:`repro.stream.detectors` -- the :class:`OnlineDetector` protocol
  and online ports of the rate-limit, fingerprint, in-house-heuristic
  and anomaly detectors;
* :mod:`repro.stream.adjudicator` -- the paper's 1oo2/2oo2 and
  serial confirm/escalate schemes applied to live votes over a sliding
  window;
* :mod:`repro.stream.engine` -- the event-driven engine tying the above
  together;
* :mod:`repro.stream.runner` -- visitor-sharded execution, one forked
  worker process per shard (:mod:`repro.sharding`);
* :mod:`repro.stream.bridge` -- proof that replaying a data set through
  the engine reproduces the batch pipeline's alert sets exactly.

Quickstart::

    from repro.stream import StreamEngine, WindowedAdjudicator, default_online_detectors
    from repro.stream.sources import dataset_replay

    detectors = default_online_detectors()
    engine = StreamEngine(
        detectors,
        adjudicator=WindowedAdjudicator([d.name for d in detectors], k=2),
    )
    result = engine.run(dataset_replay(dataset))
    print(result.alert_counts(), result.adjudication.alert_count)
"""

from repro.stream.adjudicator import AdjudicatedVerdict, WindowedAdjudicator
from repro.stream.bridge import (
    DetectorEquivalence,
    EquivalenceReport,
    ported_detector_pairs,
    replay,
    verify_equivalence,
)
from repro.stream.detectors import (
    OnlineAnomalyDetector,
    OnlineDetector,
    OnlineFingerprintDetector,
    OnlineInHouseDetector,
    OnlineRateLimitDetector,
    OnlineRequestRateLimiter,
    default_online_detectors,
)
from repro.stream.engine import StreamEngine, StreamResult
from repro.stream.events import EngineStats, OnlineVerdict, RequestVerdict
from repro.sharding import shard_of
from repro.stream.runner import ShardedStreamRunner
from repro.stream.sessionizer import IncrementalSessionizer, SessionUpdate
from repro.stream.sources import dataset_replay, generator_feed, tail_log_file, trace_replay

__all__ = [
    "AdjudicatedVerdict",
    "DetectorEquivalence",
    "EngineStats",
    "EquivalenceReport",
    "IncrementalSessionizer",
    "OnlineAnomalyDetector",
    "OnlineDetector",
    "OnlineFingerprintDetector",
    "OnlineInHouseDetector",
    "OnlineRateLimitDetector",
    "OnlineRequestRateLimiter",
    "OnlineVerdict",
    "RequestVerdict",
    "SessionUpdate",
    "ShardedStreamRunner",
    "StreamEngine",
    "StreamResult",
    "WindowedAdjudicator",
    "dataset_replay",
    "default_online_detectors",
    "generator_feed",
    "ported_detector_pairs",
    "replay",
    "shard_of",
    "tail_log_file",
    "trace_replay",
    "verify_equivalence",
]
