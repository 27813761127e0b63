"""Experiment ``perf_analysis``: frame-native analysis vs the record path.

The frame-native tables pipeline claims the *analysis* slice of a run --
Tables 1-4, the pairwise diversity metrics and the labelled evaluations
-- collapses from per-request Python loops into a handful of
``np.bincount`` / ``np.count_nonzero`` kernels over the
:class:`~repro.columns.frame.RecordFrame`, and that a trace-backed
``tables`` run therefore fits in bounded memory: the columnar frame is
the *only* copy of the data, no :class:`~repro.logs.dataset.Dataset` and
no per-record objects exist at any point.

Two measurements, both at the analysis benchmark scale
(``REPRO_ANALYSIS_BENCH_SCALE``, default 0.1 -- about 144k requests):

* **analysis slice** -- every post-detection analysis of
  ``PaperExperiment`` (status tables, exclusive status tables, pairwise
  diversity incl. double fault, per-tool and adjudicated confusion
  evaluations) on the frame kernels against the record-path
  equivalents; the acceptance floor is a 3x speedup, and the two paths
  must agree exactly;
* **bounded-memory streamed run** -- a full tables experiment on a
  frame streamed straight out of a trace file must peak well below the
  same experiment on the record path (materialise the trace, build
  session objects, extract per-session features), proving the frame
  path keeps Tables 1-4 feasible at scales where the record path no
  longer fits.

All numbers land in ``BENCH_perf_analysis.json`` via the shared conftest
hook, and both floors are asserted so a regression fails the job loudly.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.bench.reference import reference_run
from repro.columns import RecordFrame
from repro.core.breakdown import exclusive_status_breakdown, status_breakdown
from repro.core.diversity import diversity_breakdown
from repro.core.evaluation import evaluate_ensemble, evaluate_matrix
from repro.core.experiment import PaperExperiment
from repro.core.framestats import (
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    pairwise_diversity_from_frame,
    status_tables_from_frame,
)
from repro.core.metrics import pairwise_diversity
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.trace import TraceReader, read_trace, write_trace

#: Scale of the analysis benchmarks (fraction of the paper's 1.47M requests).
ANALYSIS_SCALE = float(os.environ.get("REPRO_ANALYSIS_BENCH_SCALE", "0.1"))

#: Speedup floor for the analysis slice (frame kernels vs record loops).
ANALYSIS_SPEEDUP_FLOOR = 3.0


def _best_of(callable_, rounds: int = 3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def _detectors():
    return [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]


@pytest.fixture(scope="module")
def analysis_dataset():
    """The calibrated scenario at the analysis benchmark scale (memoised)."""
    return scenario_dataset(ANALYSIS_SCALE, BENCH_SEED)


@pytest.fixture(scope="module")
def analysis_run(analysis_dataset):
    """``(frame, matrix)`` -- detection done once, analysis timed below."""
    frame = RecordFrame.from_dataset(analysis_dataset)
    result = DetectionPipeline(_detectors()).run_frame(frame)
    return frame, result.matrix


def test_perf_analysis_slice_frame_vs_records(
    analysis_dataset, analysis_run, record_bench
):
    """The post-detection analysis must beat the record path by >= 3x."""
    frame, matrix = analysis_run
    first, second = (detector.name for detector in _detectors())

    def record_path():
        breakdown = diversity_breakdown(matrix, first, second)
        status = {name: status_breakdown(analysis_dataset, matrix, name) for name in (first, second)}
        exclusive = {
            name: exclusive_status_breakdown(analysis_dataset, matrix, name)
            for name in (first, second)
        }
        metrics = pairwise_diversity(matrix, first, second, dataset=analysis_dataset)
        tools = evaluate_matrix(analysis_dataset, matrix)
        schemes = evaluate_ensemble(analysis_dataset, matrix)
        return breakdown, status, exclusive, metrics, tools, schemes

    def frame_path():
        breakdown = diversity_breakdown(matrix, first, second)
        status, exclusive = status_tables_from_frame(frame, matrix, (first, second))
        metrics = pairwise_diversity_from_frame(frame, matrix, first, second)
        tools = evaluate_matrix_from_frame(frame, matrix)
        schemes = evaluate_ensemble_from_frame(frame, matrix)
        return breakdown, status, exclusive, metrics, tools, schemes

    record_seconds, by_records = _best_of(record_path, rounds=2)
    frame_seconds, by_frame = _best_of(frame_path, rounds=3)
    speedup = record_seconds / frame_seconds

    # Identical analysis, only faster: same tables, metrics and evaluations.
    assert by_frame[0] == by_records[0]
    assert {name: table.counts for name, table in by_frame[1].items()} == {
        name: table.counts for name, table in by_records[1].items()
    }
    assert {name: table.counts for name, table in by_frame[2].items()} == {
        name: table.counts for name, table in by_records[2].items()
    }
    assert by_frame[3].as_dict() == by_records[3].as_dict()
    assert [e.as_dict() for e in by_frame[4]] == [e.as_dict() for e in by_records[4]]
    assert [e.as_dict() for e in by_frame[5]] == [e.as_dict() for e in by_records[5]]

    print(
        f"\n{len(frame):,} records: analysis slice on records {record_seconds:.2f}s, "
        f"on frame kernels {frame_seconds:.3f}s (x{speedup:.1f})"
    )
    record_bench(
        "perf_analysis",
        "analysis_slice",
        scale=ANALYSIS_SCALE,
        records=len(frame),
        record_seconds=record_seconds,
        frame_seconds=frame_seconds,
        speedup=speedup,
    )
    assert speedup >= ANALYSIS_SPEEDUP_FLOOR, (
        f"frame-kernel analysis regressed: {speedup:.1f}x < "
        f"{ANALYSIS_SPEEDUP_FLOOR}x over the record path"
    )


def test_perf_streamed_tables_bounded_memory(
    analysis_dataset, record_bench, tmp_path
):
    """A trace-streamed tables run peaks well below the record path.

    The frame read out of the trace is the only copy of the data for the
    whole experiment -- detection, Tables 1-4, diversity, evaluations.
    The record path pays for the materialised :class:`Dataset`, the
    per-session objects *and* the per-session feature vectors on top, so
    its peak must sit comfortably above the streamed run's.
    """
    path = str(tmp_path / "analysis-bench.trace")
    write_trace(analysis_dataset, path)

    tracemalloc.start()
    frame = TraceReader(path).read_frame()
    result = PaperExperiment().run_on_frame(frame)
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.dataset is None  # no Dataset ever materialised
    assert result.total_requests == len(analysis_dataset)

    tracemalloc.start()
    dataset = read_trace(path)
    by_records = reference_run(dataset).experiment
    _, record_path_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert by_records.render_all() == result.render_all()  # same tables

    ratio = record_path_peak / streamed_peak
    bytes_per_record = streamed_peak / max(len(frame), 1)
    print(
        f"\nstreamed tables run: {len(frame):,} records, peak "
        f"{streamed_peak / 1e6:.1f} MB ({bytes_per_record:.0f} B/record) vs "
        f"{record_path_peak / 1e6:.1f} MB on the record path (x{ratio:.1f})"
    )
    record_bench(
        "perf_analysis",
        "streamed_tables_memory",
        scale=ANALYSIS_SCALE,
        records=len(frame),
        streamed_peak_bytes=streamed_peak,
        record_path_peak_bytes=record_path_peak,
        peak_ratio=ratio,
        bytes_per_record=bytes_per_record,
    )
    # The record path's peak keeps growing with session count (objects +
    # feature vectors); 1.5x holds with margin at the 0.1 scale.
    assert streamed_peak * 1.5 < record_path_peak, (
        "the streamed frame tables run should peak well below the record "
        f"path ({streamed_peak / 1e6:.1f} MB vs {record_path_peak / 1e6:.1f} MB)"
    )
