"""Sharded multi-worker execution of the streaming engine.

Every stateful signal the engine computes is keyed by visitor (sessions,
rate windows, fingerprints), so the stream partitions cleanly by client
IP: records of one visitor always land on the same shard, each shard
runs an independent :class:`~repro.stream.engine.StreamEngine`, and the
per-shard results merge losslessly at the end (the anomaly port pools
its session features across shards before fitting, so even its global
contamination threshold matches an unsharded run).

The records are partitioned with :func:`~repro.sharding.shard_of` and the
shards run through :func:`~repro.sharding.fork_map`: one forked worker
process per shard, which inherits its partition copy-free and ships only
its compact export back.  Where ``fork`` is unavailable the shards run
one after another in-process; the merged result is the same.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.adjudication import AdjudicationResult
from repro.exceptions import DetectorError
from repro.logs.record import LogRecord
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.sharding import fork_map, shard_of
from repro.stream.engine import StreamEngine, StreamResult
from repro.stream.events import EngineStats


def _run_shard(
    state: tuple[list[list[LogRecord]], Callable[[], StreamEngine]], index: int
) -> dict:
    """Feed one shard's records through a fresh engine; return its export."""
    partitions, factory = state
    engine = factory()
    engine.reset()
    for record in partitions[index]:
        engine.process(record)
    return engine.finish_shard()


class ShardedStreamRunner:
    """Run a record stream through visitor-sharded engine workers.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one :class:`StreamEngine`; called
        once per shard (plus once in the parent as the merge reference).
        Each call must return a fresh engine -- shards share no state.
    shards:
        Number of worker shards.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` owned by the
        *runner* (worker engines run unregistered; per-shard counts are
        bulk-added here at merge time, which is also why per-request
        latency histograms are only available on the single-engine path).
    """

    def __init__(
        self,
        engine_factory: Callable[[], StreamEngine],
        *,
        shards: int = 2,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if shards < 1:
            raise DetectorError("shards must be at least 1")
        self.engine_factory = engine_factory
        self.shards = shards
        self.registry = resolve_registry(registry)

    def run(self, records: Iterable[LogRecord]) -> StreamResult:
        """Consume the stream across all shards and merge the results.

        A worker that dies before returning its shard raises
        :class:`~repro.exceptions.ShardWorkerError`.
        """
        partitions: list[list[LogRecord]] = [[] for _ in range(self.shards)]
        for record in records:
            partitions[shard_of(record.client_ip, self.shards)].append(record)
        exports, forked = fork_map(_run_shard, (partitions, self.engine_factory), self.shards)
        return self._merge(exports, forked=forked)

    def _merge(self, exports: Sequence[dict], *, forked: bool) -> StreamResult:
        reference = self.engine_factory()
        alert_sets = [
            detector.merge_states([export["states"][column] for export in exports])
            for column, detector in enumerate(reference.detectors)
        ]

        stats = EngineStats(online_alerts={d.name: 0 for d in reference.detectors})
        latencies: list[float] = []
        sessions_evicted = 0
        open_sessions = 0
        shard_records = self.registry.counter(
            metric_names.SHARD_RECORDS, "Records processed per stream shard."
        )
        for shard, export in enumerate(exports):
            shard_stats: EngineStats = export["stats"]
            shard_records.inc(shard_stats.records, shard=str(shard))
            sessions_evicted += export.get("sessions_evicted", 0)
            open_sessions += export.get("open_sessions", 0)
            stats.records += shard_stats.records
            stats.sessions_opened += shard_stats.sessions_opened
            stats.sessions_closed += shard_stats.sessions_closed
            stats.ensemble_alerts += shard_stats.ensemble_alerts
            # Forked shards overlap, so wall-clock throughput is bounded by
            # the busiest shard; in-process shards run back to back and add up.
            if forked:
                stats.busy_seconds = max(stats.busy_seconds, shard_stats.busy_seconds)
            else:
                stats.busy_seconds += shard_stats.busy_seconds
            for name, count in shard_stats.online_alerts.items():
                stats.online_alerts[name] = stats.online_alerts.get(name, 0) + count
            latencies.extend(export["latencies"])

        adjudication = None
        if reference.adjudicator is not None and all(
            export["adjudicated_ids"] is not None for export in exports
        ):
            alerted: set[str] = set()
            for export in exports:
                alerted.update(export["adjudicated_ids"])
            adjudication = AdjudicationResult(
                scheme_name=reference.adjudicator.name,
                detector_names=reference.adjudicator.detector_names,
                alerted_ids=frozenset(alerted),
                total_requests=stats.records,
            )
        result = StreamResult(
            alert_sets=alert_sets,
            stats=stats,
            adjudication=adjudication,
            latencies=latencies,
        )
        if self.registry.enabled:
            reference.export_metrics(
                alert_sets=alert_sets,
                stats=stats,
                registry=self.registry,
                sessions_evicted=sessions_evicted,
                open_sessions=open_sessions,
            )
        return result
