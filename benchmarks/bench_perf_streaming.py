"""Experiment ``perf_streaming``: streaming-engine throughput and latency.

Measures what the batch benchmarks cannot: the *online* cost of a
verdict.  Three quantities matter for a production deployment:

* **throughput** -- records/second through the full four-detector engine,
  at 1, 2 and 4 visitor shards (one forked worker per shard when there
  are several, so multi-core hosts see near-linear scaling; on a
  single-core host the sharded runs mostly measure partitioning
  overhead);
* **decision latency** -- the p50/p99 wall-clock time from a record
  entering the engine to its ensemble verdict;
* **shard scaling** -- multi-shard vs single-shard throughput.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.stream import ShardedStreamRunner, StreamEngine, default_online_detectors

SHARD_COUNTS = (1, 2, 4)


def _engine_factory() -> StreamEngine:
    return StreamEngine(default_online_detectors())


@pytest.fixture(scope="module")
def replay_records(bench_dataset):
    """The benchmark data set in arrival order (materialised once)."""
    return sorted(bench_dataset.records, key=lambda record: record.timestamp)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_perf_streaming_throughput(benchmark, replay_records, shards):
    runner = ShardedStreamRunner(_engine_factory, shards=shards)

    result = benchmark.pedantic(runner.run, args=(replay_records,), rounds=2, iterations=1)

    assert result.stats.records == len(replay_records)
    rate = len(replay_records) / benchmark.stats.stats.min
    print(
        f"\n{shards} shard(s): {len(replay_records):,} records, "
        f"{rate:,.0f} records/sec (best round)"
    )


def test_perf_streaming_decision_latency(replay_records):
    engine = StreamEngine(default_online_detectors(), track_latency=True)
    result = engine.run(replay_records)
    percentiles = result.latency_percentiles()

    print(
        f"\nper-request decision latency over {len(replay_records):,} records: "
        f"p50={percentiles['p50'] * 1e6:,.1f}us "
        f"p95={percentiles['p95'] * 1e6:,.1f}us "
        f"p99={percentiles['p99'] * 1e6:,.1f}us "
        f"max={percentiles['max'] * 1e3:,.2f}ms"
    )
    assert percentiles["p50"] <= percentiles["p99"] <= percentiles["max"]
    # An online verdict that takes more than 100ms at the median would be
    # useless for inline blocking; the engine is orders of magnitude under.
    assert percentiles["p50"] < 0.1


def test_perf_multishard_throughput_vs_single_shard(replay_records):
    """Sharded throughput comparison (the scaling claim of the runner).

    The speedup assertion only applies on multi-core hosts: with a single
    core, process shards serialise on the CPU and only add partitioning
    overhead, so the comparison is reported but not enforced.
    """

    def best_rate(shards: int) -> float:
        runner = ShardedStreamRunner(_engine_factory, shards=shards)
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            runner.run(replay_records)
            best = min(best, time.perf_counter() - started)
        return len(replay_records) / best

    cores = os.cpu_count() or 1
    single = best_rate(1)
    multi_shards = min(4, max(2, cores))
    multi = best_rate(multi_shards)
    print(
        f"\n1 shard: {single:,.0f} records/sec; "
        f"{multi_shards} shards: {multi:,.0f} records/sec "
        f"(x{multi / single:.2f} on {cores} core(s))"
    )
    if cores > 1:
        assert multi > single, (
            f"expected multi-shard throughput to exceed single-shard on {cores} cores "
            f"({multi:,.0f} vs {single:,.0f} records/sec)"
        )
