"""Vectorized sessionization must replicate the legacy scan exactly."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import RecordFrame, sessionize_frame
from repro.logs.sessionization import Sessionizer
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import make_record


def assert_equivalent(records, timeout=None):
    """Legacy and vectorized sessionization agree on everything visible."""
    sessionizer = Sessionizer(timeout) if timeout is not None else Sessionizer()
    legacy = sessionizer.sessionize(records)
    frame = RecordFrame.from_records(records)
    spans = sessionizer.sessionize_frame(frame)

    assert len(legacy) == len(spans)
    for index, session in enumerate(legacy):
        assert spans.session_ids[index] == session.session_id
        assert spans.client_ip(index) == session.client_ip
        assert spans.user_agent(index) == session.user_agent
        got = [records[row].request_id for row in spans.span(index)]
        assert got == session.request_ids()
    # The record -> session mapping inverts the spans.
    mapping = spans.record_session_index()
    for index in range(len(spans)):
        assert set(np.flatnonzero(mapping == index)) == set(spans.span(index).tolist())
    # Materialised Session objects are the legacy ones.
    rebuilt = spans.to_sessions(records)
    assert [s.session_id for s in rebuilt] == [s.session_id for s in legacy]
    assert [s.request_ids() for s in rebuilt] == [s.request_ids() for s in legacy]


class TestScenarioEquivalence:
    def test_generated_scenario(self):
        dataset = generate_dataset(balanced_small(total_requests=4_000, seed=5))
        assert_equivalent(dataset.records)

    def test_empty(self):
        frame = RecordFrame.from_records([])
        spans = sessionize_frame(frame)
        assert len(spans) == 0
        assert spans.to_sessions() == []

    def test_single_record(self):
        assert_equivalent([make_record("only")])


@settings(max_examples=120, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # visitor index
            st.integers(min_value=0, max_value=7_200),  # offset seconds
        ),
        min_size=1,
        max_size=40,
    ),
    timeout_minutes=st.integers(min_value=1, max_value=45),
)
def test_hypothesis_adversarial_ties_and_timeouts(data, timeout_minutes):
    # Duplicate timestamps across and within visitors, gaps straddling
    # the timeout, interleaved visitors: the legacy scan's tie-breaking
    # (stable time sort, dict iteration order, stable final sort) must
    # survive vectorization.
    visitors = [("10.0.0.1", "agent-a"), ("10.0.0.1", "agent-b"), ("10.0.0.2", "agent-a"), ("192.168.7.9", "other")]
    records = []
    for index, (visitor, offset) in enumerate(data):
        ip, agent = visitors[visitor]
        records.append(
            make_record(f"r{index}", seconds=float(offset), ip=ip, user_agent=agent)
        )
    assert_equivalent(records, timeout=timedelta(minutes=timeout_minutes))


class _OneBigSession(Sessionizer):
    """A custom sessionizer: everything is one session, whoever sent it."""

    def sessionize(self, records):  # pragma: no cover - never called
        return []


def test_custom_sessionizer_subclass_is_rejected():
    # The vectorized sessionization only reproduces the base Sessionizer,
    # so a pipeline refuses a subclass up front instead of ignoring it.
    from repro.detectors.pipeline import DetectionPipeline
    from repro.detectors.ratelimit import RateLimitDetector
    from repro.exceptions import DetectorError

    with pytest.raises(DetectorError, match="_OneBigSession"):
        DetectionPipeline([RateLimitDetector()], sessionizer=_OneBigSession())


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=20)
)
def test_hypothesis_identical_timestamps_keep_arrival_order(offsets):
    # Many records sharing one timestamp: span order must equal the
    # original arrival order (both sorts are stable).
    records = [
        make_record(f"r{index}", seconds=float(offset // 10)) for index, offset in enumerate(offsets)
    ]
    assert_equivalent(records)
