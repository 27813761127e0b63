"""Small factories shared across the test suite."""

from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from typing import Iterator, Sequence

from repro.core.alerts import AlertMatrix, AlertSet
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, GroundTruth
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.sessionization import Session

BASE_TIME = datetime(2018, 3, 11, 12, 0, 0, tzinfo=timezone.utc)

BROWSER_UA = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"
)
SCRIPTED_UA = "python-requests/2.18.4"


def make_record(
    request_id: str = "r0",
    *,
    seconds: float = 0.0,
    ip: str = "10.16.0.1",
    method: str = "GET",
    path: str = "/search?o=PAR&d=LIS",
    status: int = 200,
    size: int = 1024,
    referrer: str = "",
    user_agent: str = BROWSER_UA,
) -> LogRecord:
    """Build one log record with sensible defaults."""
    return LogRecord(
        request_id=request_id,
        timestamp=BASE_TIME + timedelta(seconds=seconds),
        client_ip=ip,
        method=RequestMethod(method),
        path=path,
        protocol="HTTP/1.1",
        status=status,
        response_size=size,
        referrer=referrer,
        user_agent=user_agent,
    )


def make_records(count: int, *, gap_seconds: float = 1.0, **kwargs) -> list[LogRecord]:
    """Build ``count`` records with consecutive ids and fixed inter-arrival gaps."""
    return [
        make_record(request_id=f"r{i}", seconds=i * gap_seconds, **kwargs)
        for i in range(count)
    ]


def make_session(records: Sequence[LogRecord], session_id: str = "s0") -> Session:
    """Wrap records (assumed same visitor) into a session."""
    first = records[0]
    session = Session(session_id=session_id, client_ip=first.client_ip, user_agent=first.user_agent)
    for record in records:
        session.add(record)
    return session


def make_labelled_dataset(
    malicious_ids: Sequence[str],
    benign_ids: Sequence[str],
    *,
    status_for: dict[str, int] | None = None,
) -> Dataset:
    """A labelled data set with one record per id (statuses optionally overridden)."""
    status_for = status_for or {}
    records = []
    truth = GroundTruth()
    for index, request_id in enumerate(list(malicious_ids) + list(benign_ids)):
        records.append(
            make_record(
                request_id=request_id,
                seconds=float(index),
                status=status_for.get(request_id, 200),
            )
        )
    for request_id in malicious_ids:
        truth.set(request_id, MALICIOUS, "aggressive_scraper")
    for request_id in benign_ids:
        truth.set(request_id, BENIGN, "human")
    return Dataset(records, ground_truth=truth)


def make_alert_matrix(
    dataset: Dataset,
    alerted_by_detector: dict[str, Sequence[str]],
) -> AlertMatrix:
    """Build an alert matrix from explicit per-detector alerted id lists."""
    alert_sets = []
    for detector_name, request_ids in alerted_by_detector.items():
        alert_set = AlertSet(detector_name)
        for request_id in request_ids:
            alert_set.add(request_id)
        alert_sets.append(alert_set)
    return AlertMatrix.from_alert_sets(dataset, alert_sets)


def disable_fork(monkeypatch) -> None:
    """Make ``multiprocessing.get_context("fork")`` fail, as where fork does not exist."""
    get_context = multiprocessing.get_context

    def without_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", without_fork)


@contextmanager
def hang_guard(seconds: int) -> Iterator[None]:
    """Raise :class:`TimeoutError` if the block is still running after ``seconds``.

    Uses ``SIGALRM``; skip tests that need it where the signal is missing.
    """

    def timed_out(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s: the run hung")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
