"""Tests for the shared visitor-sharding helpers."""

from __future__ import annotations

import os

from repro.sharding import fork_map
from tests.helpers import disable_fork


def _where(state, index):
    return index, state, os.getpid()


def test_fork_map_runs_each_shard_in_a_forked_worker():
    results, forked = fork_map(_where, "state", 3)
    assert forked
    assert [(index, state) for index, state, _ in results] == [
        (0, "state"),
        (1, "state"),
        (2, "state"),
    ]
    assert all(pid != os.getpid() for _, _, pid in results)


def test_single_shard_runs_in_process():
    results, forked = fork_map(_where, None, 1)
    assert not forked
    assert results == [(0, None, os.getpid())]


def test_without_fork_shards_run_in_process(monkeypatch):
    disable_fork(monkeypatch)
    results, forked = fork_map(_where, None, 2)
    assert not forked
    assert results == [(0, None, os.getpid()), (1, None, os.getpid())]

