"""Visitor sharding: one hash and one fork pool for batch and stream runs.

Every signal the detectors compute is keyed by visitor (sessions, rate
windows, fingerprints), so a run splits cleanly by client IP: all of a
visitor's records land on the same shard, each shard is analysed on its
own, and the per-shard results merge losslessly.  The batch pipeline
(:meth:`~repro.detectors.pipeline.DetectionPipeline.run_frame` with
``workers > 1``) and the stream runner
(:class:`~repro.stream.runner.ShardedStreamRunner`) both place visitors
with :func:`shard_of` and run their shards through :func:`fork_map`.
"""

from __future__ import annotations

import logging
import multiprocessing
import zlib
from multiprocessing.context import BaseContext
from typing import Any, Callable, TypeVar

from repro.exceptions import ShardWorkerError

logger = logging.getLogger(__name__)

S = TypeVar("S")
R = TypeVar("R")


def shard_of(client_ip: str, shards: int) -> int:
    """The shard a visitor belongs to (stable across processes and runs).

    ``zlib.crc32`` rather than ``hash()`` because the latter is salted
    per process, which would scatter one visitor across shards between
    the parent and forked workers.
    """
    return zlib.crc32(client_ip.encode("utf-8")) % shards


#: ``(task, state)`` of the pool this worker process was forked for.
#: Set only inside forked workers, by the pool initializer.
_WORKER_JOB: tuple[Callable[[Any, int], Any], Any] | None = None


def _adopt_job(task: Callable[[Any, int], Any], state: Any) -> None:
    global _WORKER_JOB
    _WORKER_JOB = (task, state)


def _run_job(index: int) -> Any:
    assert _WORKER_JOB is not None
    task, state = _WORKER_JOB
    return task(state, index)


def fork_map(task: Callable[[S, int], R], state: S, count: int) -> tuple[list[R], bool]:
    """Run ``task(state, index)`` for every shard index in ``range(count)``.

    Each shard runs in its own forked worker process.  ``task`` and
    ``state`` reach the workers through the fork itself (the pool
    initializer's arguments are inherited, never pickled), so they may be
    closures over large arrays; only the shard index travels to a worker
    and only the task's return value travels back.

    With ``count == 1``, or where the platform has no ``fork``, the
    shards run one after another in this process instead.

    Returns the results in shard order and whether the shards forked.
    An exception raised by ``task`` in a worker propagates unchanged; a
    worker that dies before returning its shard (killed, crashed, out of
    memory) raises :class:`~repro.exceptions.ShardWorkerError`.
    """
    context: BaseContext | None = None
    if count > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            logger.warning("fork unavailable, running shards in-process", extra={"shards": count})
    if context is None:
        return [task(state, index) for index in range(count)], False
    # Imported here: unsharded runs never pay for loading the pool machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
            max_workers=count,
            mp_context=context,
            initializer=_adopt_job,
            initargs=(task, state),
        ) as pool:
            return list(pool.map(_run_job, range(count))), True
    except BrokenProcessPool as error:
        raise ShardWorkerError(
            f"a worker process of the {count}-worker sharded run died "
            "before returning its shard",
            count,
        ) from error
