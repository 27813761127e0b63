"""Experiment ``perf_columns``: the columnar substrate vs the record path.

The :mod:`repro.columns` refactor claims the batch detection hot path --
sessionization, feature extraction, detector scoring -- runs several
times faster on the vectorized substrate than on per-record Python
loops, without changing a single result.  This module measures the three
layers at the columns benchmark scale (``REPRO_COLUMNS_BENCH_SCALE``,
default 0.1 -- about 144k requests):

* **dataset-wide feature extraction** -- ``RecordFrame.from_dataset`` +
  vectorized sessionization + ``FeatureMatrix.from_frame`` against the
  legacy ``Sessionizer`` + per-session ``extract_features`` loop; the
  acceptance floor is a 3x speedup;
* **tables run** -- the full paper experiment
  (``PaperExperiment.run_on``) against the record-path reference
  (:func:`repro.bench.reference.reference_run`);
* **zero-decode trace ingestion** -- ``TraceReader.read_frame`` against
  ``read_dataset`` + ``from_dataset`` for trace-backed runs.

All numbers land in ``BENCH_perf_columns.json`` via the shared conftest
hook, and the feature-extraction speedup is asserted so a regression in
the new hot path fails the job loudly.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.bench.reference import reference_run
from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.core.experiment import PaperExperiment
from repro.detectors.features import extract_features
from repro.logs.sessionization import Sessionizer
from repro.trace import TraceReader, write_trace

#: Scale of the columns benchmarks (fraction of the paper's 1.47M requests).
COLUMNS_SCALE = float(os.environ.get("REPRO_COLUMNS_BENCH_SCALE", "0.1"))

#: Speedup floor for dataset-wide feature extraction (frame vs records).
FEATURE_SPEEDUP_FLOOR = 3.0


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def columns_dataset():
    """The calibrated scenario at the columns benchmark scale (memoised)."""
    return scenario_dataset(COLUMNS_SCALE, BENCH_SEED)


def test_perf_feature_extraction_frame_vs_records(columns_dataset, record_bench):
    """Batched feature extraction must beat the per-session loop by >= 3x."""

    def record_path():
        sessions = Sessionizer().sessionize(columns_dataset.records)
        return np.vstack([extract_features(session).vector() for session in sessions])

    def frame_path():
        frame = RecordFrame.from_dataset(columns_dataset)
        spans = sessionize_frame(frame)
        return FeatureMatrix.from_frame(frame, spans).values

    record_seconds = _best_of(record_path, rounds=2)
    frame_seconds = _best_of(frame_path, rounds=3)
    speedup = record_seconds / frame_seconds
    assert np.array_equal(record_path(), frame_path())  # same bytes, only faster
    n_sessions = len(Sessionizer().sessionize(columns_dataset.records))
    print(
        f"\n{len(columns_dataset):,} records, {n_sessions:,} sessions: "
        f"record path {record_seconds:.2f}s, frame path {frame_seconds:.2f}s "
        f"(x{speedup:.1f})"
    )
    record_bench(
        "perf_columns",
        "feature_extraction",
        scale=COLUMNS_SCALE,
        records=len(columns_dataset),
        sessions=n_sessions,
        record_seconds=record_seconds,
        frame_seconds=frame_seconds,
        speedup=speedup,
    )
    assert speedup >= FEATURE_SPEEDUP_FLOOR, (
        f"frame-path feature extraction regressed: {speedup:.1f}x < "
        f"{FEATURE_SPEEDUP_FLOOR}x over the record path"
    )


def test_perf_tables_run_columnar_vs_records(columns_dataset, record_bench):
    """The full tables experiment must not be slower than the record-path reference."""
    records_seconds = _best_of(lambda: reference_run(columns_dataset), rounds=1)
    columnar_seconds = _best_of(lambda: PaperExperiment().run_on(columns_dataset), rounds=2)
    speedup = records_seconds / columnar_seconds
    print(
        f"\ntables run: record-path reference {records_seconds:.2f}s, "
        f"batch pipeline {columnar_seconds:.2f}s (x{speedup:.1f})"
    )
    record_bench(
        "perf_columns",
        "tables_run",
        records=len(columns_dataset),
        records_engine_seconds=records_seconds,
        columnar_engine_seconds=columnar_seconds,
        speedup=speedup,
    )
    assert speedup >= 1.0, (
        f"the columnar tables run is slower than the record path ({speedup:.2f}x)"
    )


def test_perf_trace_read_frame_zero_decode(columns_dataset, record_bench, tmp_path):
    """Mapping a trace into a frame must beat decode-then-columnarise."""
    path = str(tmp_path / "columns-bench.trace")
    write_trace(columns_dataset, path)

    frame_seconds = _best_of(lambda: TraceReader(path).read_frame())
    decode_seconds = _best_of(
        lambda: RecordFrame.from_dataset(TraceReader(path).read_dataset())
    )
    speedup = decode_seconds / frame_seconds
    print(
        f"\ntrace -> frame: read_frame {frame_seconds:.2f}s, "
        f"read_dataset+from_dataset {decode_seconds:.2f}s (x{speedup:.1f})"
    )
    record_bench(
        "perf_columns",
        "trace_read_frame",
        records=len(columns_dataset),
        read_frame_seconds=frame_seconds,
        decode_then_columnarise_seconds=decode_seconds,
        speedup=speedup,
    )
    assert speedup >= 2.0, (
        f"read_frame lost its zero-decode advantage ({speedup:.1f}x < 2x)"
    )
