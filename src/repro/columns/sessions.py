"""Vectorized sessionization over a :class:`~repro.columns.frame.RecordFrame`.

:func:`sessionize_frame` reproduces, record for record and id for id,
what :meth:`repro.logs.sessionization.Sessionizer.sessionize` computes
from record objects -- the same visitor grouping, the same timeout
splits, the same ``s{counter}`` naming and the same final ordering
(including the tie-breaking that falls out of the legacy scan order) --
but as a handful of numpy sorts and scans instead of a per-record Python
loop.  The result is a :class:`FrameSessions` index: a permutation of
the frame's rows grouped session by session plus span offsets, rather
than materialised :class:`~repro.logs.sessionization.Session` objects.

The equivalence is pinned by tests (including a hypothesis suite over
adversarial timestamp ties), because downstream analyses depend on the
exact session order: the anomaly models are seeded RNG consumers of the
feature-matrix rows, so "the same sessions in a different order" would
not reproduce the legacy alert sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from typing import Sequence

import numpy as np

from repro.columns.frame import RecordFrame
from repro.logs.record import LogRecord
from repro.logs.sessionization import DEFAULT_TIMEOUT, Session
from repro.obs.names import FRAME_SESSIONS

_ONE_US = timedelta(microseconds=1)


@dataclass
class FrameSessions:
    """Session spans over a frame: who, when, and which rows belong where.

    ``order`` is a permutation of the frame's row indices arranged
    session by session (sessions in final output order, records within a
    session in time order); ``starts`` holds ``n_sessions + 1`` offsets
    into it, so session ``j`` covers ``order[starts[j]:starts[j+1]]``.
    """

    frame: RecordFrame
    order: np.ndarray
    starts: np.ndarray
    session_ids: list[str]
    ip_codes: np.ndarray
    agent_codes: np.ndarray
    _record_session: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def counts(self) -> np.ndarray:
        """Requests per session."""
        return np.diff(self.starts)

    def span(self, index: int) -> np.ndarray:
        """The frame row indices of one session, in session-record order."""
        return self.order[self.starts[index] : self.starts[index + 1]]

    def record_session_index(self) -> np.ndarray:
        """Per frame row: the index of the session the record belongs to."""
        if self._record_session is None:
            mapping = np.empty(len(self.order), dtype=np.int64)
            mapping[self.order] = np.repeat(
                np.arange(len(self), dtype=np.int64), self.counts
            )
            self._record_session = mapping
        return self._record_session

    def user_agent(self, index: int) -> str:
        """The session's user-agent string."""
        return self.frame.tables["user_agent"][self.agent_codes[index]]

    def client_ip(self, index: int) -> str:
        """The session's client IP string."""
        return self.frame.tables["client_ip"][self.ip_codes[index]]

    def to_sessions(self, records: Sequence[LogRecord] | None = None) -> list[Session]:
        """Materialise legacy :class:`Session` objects (compatibility layer).

        ``records`` must be the frame's records in frame order (e.g.
        ``dataset.records``); when omitted they are rebuilt from the
        frame itself.
        """
        if records is None:
            records = list(self.frame.iter_records())
        starts = self.starts
        order = self.order
        sessions: list[Session] = []
        for j, session_id in enumerate(self.session_ids):
            session = Session(
                session_id=session_id,
                client_ip=self.client_ip(j),
                user_agent=self.user_agent(j),
            )
            session.records = [records[row] for row in order[starts[j] : starts[j + 1]]]
            sessions.append(session)
        return sessions


def timeout_microseconds(timeout: timedelta = DEFAULT_TIMEOUT) -> int:
    """A session timeout as exact integer microseconds."""
    return timeout // _ONE_US


def sessionize_frame(
    frame: RecordFrame, *, timeout: timedelta = DEFAULT_TIMEOUT, registry=None
) -> FrameSessions:
    """Group a frame's rows into visitor sessions (vectorized).

    Exactly equivalent to sorting the records by timestamp and scanning
    them through :class:`~repro.logs.sessionization.Sessionizer`: same
    sessions, same ``s{counter}`` ids, same output order.
    """
    if timeout.total_seconds() <= 0:
        raise ValueError("session timeout must be positive")
    timeout_us = timeout_microseconds(timeout)
    n = len(frame)
    if n == 0:
        if registry is not None:
            registry.counter(
                FRAME_SESSIONS, "Session spans produced by vectorized sessionization."
            ).inc(0)
        return FrameSessions(
            frame=frame,
            order=np.empty(0, dtype=np.int64),
            starts=np.zeros(1, dtype=np.int64),
            session_ids=[],
            ip_codes=np.empty(0, dtype=np.int64),
            agent_codes=np.empty(0, dtype=np.int64),
        )

    ts = frame.timestamps_us
    ip_codes = frame.codes["client_ip"]
    agent_codes = frame.codes["user_agent"]
    # One integer per (client IP, user agent) visitor key.
    key = ip_codes * np.int64(len(frame.tables["user_agent"]) + 1) + agent_codes

    # Arrange records by (visitor, time); both sorts are stable, so ties
    # keep original record order -- exactly the legacy scan's ordering.
    perm = np.lexsort((ts, key))
    key_sorted = key[perm]
    ts_sorted = ts[perm]

    # A session starts where the visitor changes or the gap exceeds the
    # timeout (strictly greater, like the legacy comparison).
    new_session = np.empty(n, dtype=bool)
    new_session[0] = True
    new_session[1:] = (key_sorted[1:] != key_sorted[:-1]) | (
        (ts_sorted[1:] - ts_sorted[:-1]) > timeout_us
    )
    first_positions = np.flatnonzero(new_session)
    n_sessions = len(first_positions)
    session_of_sorted = np.cumsum(new_session) - 1

    # Rank every record in the stable time order; a session's *creation
    # rank* (the legacy ``s{counter}``) is the time rank of its first
    # record, because the scan creates each session when it first meets
    # that record.
    time_rank = np.empty(n, dtype=np.int64)
    time_rank[np.argsort(ts, kind="stable")] = np.arange(n, dtype=np.int64)
    first_time_rank = time_rank[perm[first_positions]]
    creation_rank = np.empty(n_sessions, dtype=np.int64)
    creation_rank[np.argsort(first_time_rank)] = np.arange(n_sessions, dtype=np.int64)

    # The legacy scan appends a session to its output list either when a
    # later session of the same visitor supersedes it (at the successor's
    # creation) or, for each visitor's last session, at the end in
    # visitor-first-seen order.  The final ordering then sorts by start
    # time with that list order breaking ties, so reproduce it exactly.
    session_key = key_sorted[first_positions]
    has_successor = np.zeros(n_sessions, dtype=bool)
    if n_sessions > 1:
        has_successor[:-1] = session_key[:-1] == session_key[1:]
    pre_sort_rank = np.empty(n_sessions, dtype=np.int64)
    successor_index = np.flatnonzero(has_successor) + 1
    pre_sort_rank[has_successor] = first_time_rank[successor_index]

    key_first = np.ones(n_sessions, dtype=bool)
    key_first[1:] = session_key[1:] != session_key[:-1]
    key_first_index = np.flatnonzero(key_first)
    key_insertion_rank = np.empty(len(key_first_index), dtype=np.int64)
    key_insertion_rank[np.argsort(first_time_rank[key_first_index])] = np.arange(
        len(key_first_index), dtype=np.int64
    )
    key_group = np.cumsum(key_first) - 1
    last_of_key = ~has_successor
    pre_sort_rank[last_of_key] = n + key_insertion_rank[key_group[last_of_key]]

    start_us = ts_sorted[first_positions]
    final_order = np.lexsort((pre_sort_rank, start_us))
    final_rank = np.empty(n_sessions, dtype=np.int64)
    final_rank[final_order] = np.arange(n_sessions, dtype=np.int64)

    # Regroup the records by final session order (stable, so the within-
    # session time order is preserved).
    record_final = final_rank[session_of_sorted]
    regroup = np.argsort(record_final, kind="stable")
    order = perm[regroup]

    counts = np.diff(np.append(first_positions, n))[final_order]
    starts = np.empty(n_sessions + 1, dtype=np.int64)
    starts[0] = 0
    np.cumsum(counts, out=starts[1:])

    first_rows = perm[first_positions][final_order]
    creation_final = creation_rank[final_order]
    session_ids = [f"s{int(rank)}" for rank in creation_final]

    if registry is not None:
        registry.counter(
            FRAME_SESSIONS, "Session spans produced by vectorized sessionization."
        ).inc(n_sessions)
    return FrameSessions(
        frame=frame,
        order=order,
        starts=starts,
        session_ids=session_ids,
        ip_codes=ip_codes[first_rows],
        agent_codes=agent_codes[first_rows],
    )
