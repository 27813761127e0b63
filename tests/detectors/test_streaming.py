"""Tests for the streaming (online) detection components."""

from __future__ import annotations

import pytest

from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.streaming import StreamingDetector
from repro.logs.dataset import Dataset
from repro.stream.detectors import OnlineRequestRateLimiter
from tests.helpers import BROWSER_UA, SCRIPTED_UA, make_record, make_records


class TestStreamingRateLimiter:
    """The ``streaming-rate`` limiter, :class:`OnlineRequestRateLimiter`."""

    def test_slow_visitor_never_flagged(self):
        limiter = OnlineRequestRateLimiter(max_requests=30, window_seconds=60)
        verdicts = [limiter.observe(record) for record in make_records(20, gap_seconds=10)]
        assert not any(verdict.alerted for verdict in verdicts)

    def test_fast_visitor_flagged_once_budget_exceeded(self):
        limiter = OnlineRequestRateLimiter(max_requests=10, window_seconds=60, penalty_seconds=0)
        verdicts = [limiter.observe(record) for record in make_records(20, gap_seconds=1)]
        assert not verdicts[5].alerted  # still under budget
        assert verdicts[11].alerted  # 12th request within the window
        assert "exceeds" in verdicts[11].reason

    def test_penalty_period_keeps_visitor_flagged(self):
        limiter = OnlineRequestRateLimiter(max_requests=5, window_seconds=60, penalty_seconds=600)
        records = make_records(8, gap_seconds=1) + [make_record("late", seconds=120)]
        verdicts = [limiter.observe(record) for record in records]
        assert verdicts[-1].alerted
        assert "penalty" in verdicts[-1].reason

    def test_scripted_agents_flagged_immediately(self):
        limiter = OnlineRequestRateLimiter()
        verdict = limiter.observe(make_record(user_agent=SCRIPTED_UA))
        assert verdict.alerted
        assert "scripted" in verdict.reason

    def test_visitors_tracked_independently(self):
        limiter = OnlineRequestRateLimiter(max_requests=5, window_seconds=60)
        fast = make_records(10, gap_seconds=1, ip="172.20.0.1")
        slow = [make_record(f"s{i}", seconds=i * 30, ip="10.16.0.1") for i in range(10)]
        merged = sorted(fast + slow, key=lambda r: r.timestamp)
        verdicts = {v.request_id: v for v in map(limiter.observe, merged)}
        assert any(verdicts[f"r{i}"].alerted for i in range(10))
        assert not any(verdicts[f"s{i}"].alerted for i in range(10))

    def test_reset_clears_state(self):
        limiter = OnlineRequestRateLimiter(max_requests=3, window_seconds=60)
        for record in make_records(6, gap_seconds=1):
            limiter.observe(record)
        limiter.reset()
        verdict = limiter.observe(make_record("fresh", seconds=100))
        assert not verdict.alerted

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OnlineRequestRateLimiter(max_requests=0)
        with pytest.raises(ValueError):
            OnlineRequestRateLimiter(window_seconds=0)

    def test_record_alerts_opt_out_bounds_memory(self):
        limiter = OnlineRequestRateLimiter(max_requests=3, window_seconds=60, record_alerts=False)
        verdicts = [limiter.observe(record) for record in make_records(10, gap_seconds=1)]
        assert any(verdict.alerted for verdict in verdicts)
        assert len(limiter.final_alert_set()) == 0

    def test_batch_adapter_works_with_alert_free_limiter(self):
        # analyze() must return the alerts even when the limiter was
        # configured alert-free for live deployments.
        limiter = OnlineRequestRateLimiter(max_requests=10, window_seconds=60, record_alerts=False)
        dataset = Dataset(make_records(40, gap_seconds=0.5, user_agent=BROWSER_UA))
        alerts = StreamingDetector(limiter).analyze(dataset)
        assert len(alerts) > 0
        assert limiter.record_alerts is False  # restored afterwards


class TestStreamingDetector:
    def test_batch_adapter_flags_fast_traffic(self):
        dataset = Dataset(make_records(40, gap_seconds=0.5, user_agent=BROWSER_UA))
        alerts = StreamingDetector(OnlineRequestRateLimiter(max_requests=20, window_seconds=60)).analyze(dataset)
        assert len(alerts) > 0
        assert len(alerts) < len(dataset)  # the ramp-up requests pass

    def test_replays_in_time_order(self):
        # Records supplied out of order must still be judged chronologically.
        records = list(reversed(make_records(30, gap_seconds=1)))
        dataset = Dataset(records)
        alerts = StreamingDetector(OnlineRequestRateLimiter(max_requests=10, window_seconds=60)).analyze(dataset)
        assert "r29" in alerts or len(alerts) > 0

    def test_agrees_with_batch_rate_detector_on_aggressive_traffic(self, small_dataset):
        """Online and offline rate limiting should broadly agree on which
        requests belong to fast automation (they use the same signal)."""
        streaming = StreamingDetector(OnlineRequestRateLimiter(max_requests=45, window_seconds=60, flag_scripted_agents=False))
        batch = RateLimitDetector(threshold_rpm=45)
        streaming_ids = streaming.analyze(small_dataset).request_ids()
        batch_ids = batch.analyze(small_dataset).request_ids()
        if not batch_ids:
            pytest.skip("no fast sessions in fixture")
        overlap = len(streaming_ids & batch_ids) / len(batch_ids)
        assert overlap > 0.5

    def test_participates_in_diversity_analysis(self, small_dataset):
        from repro.core.diversity import diversity_breakdown
        from repro.detectors.inhouse import InHouseHeuristicDetector
        from repro.detectors.pipeline import run_detectors

        result = run_detectors(small_dataset, [StreamingDetector(), InHouseHeuristicDetector()])
        breakdown = diversity_breakdown(result.matrix, "streaming-rate", "inhouse")
        assert breakdown.total == len(small_dataset)
