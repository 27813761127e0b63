"""Frame-native pipeline equivalence: reference == frame arrays == shards == trace.

The frame entry points (:meth:`DetectionPipeline.run_frame` and
:meth:`PaperExperiment.run_on_frame`) must reproduce the record-path
reference (:func:`repro.bench.reference.reference_run`) exactly -- alerts
(ids, scores *and* reasons), matrices, Tables 1-4 and labelled
evaluations -- whether they run single-process, sharded across
``workers=2`` processes or from a trace file.  A trace-backed ``tables``
run additionally proves the frame path never materialises a
:class:`Dataset` at all.  ``test_engine_equivalence.py`` holds the
:class:`Dataset` entry points to the same reference.
"""

from __future__ import annotations

import importlib
import os
import signal
import time

import pytest

from repro.bench.reference import reference_run
from repro.columns import RecordFrame
from repro.core.alerts import AlertSet
from repro.core.experiment import PaperExperiment
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.heuristic import HeuristicRuleDetector, Rule
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.naive_bayes import NaiveBayesRobotDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.streaming import StreamingDetector
from repro.exceptions import DetectorError, ShardWorkerError, SpecError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.runspec.spec import ExecutionSpec
from repro.trace import write_trace
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario
from tests.helpers import disable_fork, hang_guard


def _detectors():
    return [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]


def _full_alerts(alert_set):
    return {alert.request_id: (alert.score, alert.reasons) for alert in alert_set.alerts()}


def _evaluations(experiment):
    return (
        experiment.diversity_metrics.as_dict(),
        [e.as_dict() for e in experiment.tool_evaluations],
        [e.as_dict() for e in experiment.adjudication_evaluations],
    )


def _comparable(result):
    """A RunResult's reproducible face (timings/telemetry/spec vary)."""
    payload = result.to_dict()
    payload.pop("timings", None)
    payload.pop("telemetry", None)
    payload.pop("spec", None)
    return payload


class TestFramePipelineEquivalence:
    def test_alert_sets_byte_identical_across_paths(self, preset, monkeypatch):
        _dataset, frame, _trace, reference = preset
        oracle = reference.experiment.matrix
        single = DetectionPipeline(_detectors()).run_frame(frame)
        sharded = DetectionPipeline(_detectors()).run_frame(frame, workers=2)
        # Where fork is unavailable the shards run in-process, same merge.
        disable_fork(monkeypatch)
        in_process = DetectionPipeline(_detectors()).run_frame(frame, workers=2)
        for frame_result in (single, sharded, in_process):
            assert frame_result.matrix.request_ids == oracle.request_ids
            assert (frame_result.matrix.values == oracle.values).all()
            for by_record, by_frame in zip(
                reference.alert_sets, frame_result.alert_sets(), strict=True
            ):
                assert by_record.detector_name == by_frame.detector_name
                assert _full_alerts(by_record) == _full_alerts(by_frame)

    def test_experiment_tables_identical(self, preset):
        _dataset, frame, _trace, reference = preset
        oracle = reference.experiment
        for workers in (1, 2):
            by_frame = PaperExperiment().run_on_frame(frame, workers=workers)
            assert by_frame.render_all() == oracle.render_all()
            assert dict(by_frame.alert_counts) == dict(oracle.alert_counts)
            assert _evaluations(by_frame) == _evaluations(oracle)
            # Frame-native runs never materialise the record objects.
            assert by_frame.dataset is None
            assert by_frame.frame is frame

    @pytest.mark.parametrize("mode", ["tables", "evaluate"])
    def test_execute_identical_across_engines_and_workers(self, mode, preset):
        """Single, sharded and trace-sourced runs carry the reference's numbers."""
        dataset, _frame, trace_path, reference = preset
        oracle = reference.experiment
        results = [
            execute(RunSpec(mode=mode, execution=ExecutionSpec(workers=w)), dataset=dataset)
            for w in (1, 2)
        ]
        results.append(
            execute(RunSpec(mode=mode, traffic=TrafficSpec(source="trace", path=trace_path)))
        )
        for result in results:
            assert result.alert_counts == dict(oracle.alert_counts)
            assert result.raw.render_all() == oracle.render_all()
            assert _evaluations(result.raw) == _evaluations(oracle)
        # Everything but the echoed spec is identical across the paths.
        first = _comparable(results[0])
        assert all(_comparable(result) == first for result in results[1:])


class _SlashCountRule(Rule):
    """A custom rule with no vectorized implementation."""

    name = "deep-paths"

    def matches(self, session):
        deep = sum(record.url_path.count("/") > 3 for record in session.records)
        return f"{deep} deep paths" if deep >= 5 else None


class TestBridgedDetectors:
    def test_record_only_detectors_bridge_identically(self):
        """Detectors without array code ride the record bridge of Detector.alert_columns."""
        dataset = generate_dataset(get_scenario("balanced_small", total_requests=3_000, seed=11))
        frame = RecordFrame.from_dataset(dataset)

        def detectors():
            return [
                StreamingDetector(),
                HeuristicRuleDetector([_SlashCountRule()], name="custom-rules"),
                NaiveBayesRobotDetector(),
                RateLimitDetector(),
            ]

        reference = reference_run(dataset, detectors())
        assert any(len(alert_set) for alert_set in reference.alert_sets[:2])
        registry = MetricsRegistry()
        by_frame = DetectionPipeline(detectors(), registry=registry).run_frame(frame)
        for by_record, bridged in zip(reference.alert_sets, by_frame.alert_sets(), strict=True):
            assert by_record.detector_name == bridged.detector_name
            assert _full_alerts(by_record) == _full_alerts(bridged)
        runs = registry.counter(metric_names.DETECTOR_RUNS)
        paths = {dict(labels)["detector"]: dict(labels)["path"] for labels, _ in runs.series()}
        assert paths["streaming-rate"] == "bridge"
        assert paths["naive-bayes"] == paths["rate-limit"] == "columnar"


class TestTraceSourcedTables:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        dataset = generate_dataset(get_scenario("balanced_small", total_requests=2_500, seed=3))
        path = str(tmp_path_factory.mktemp("traces") / "frames.trace")
        write_trace(dataset, path)
        return dataset, path

    def test_trace_tables_never_materialise_records(self, recorded, monkeypatch):
        """Tables from a trace run frame-natively: no Dataset is ever built."""
        dataset, path = recorded
        oracle = reference_run(dataset).experiment
        execute_module = importlib.import_module("repro.runspec.execute")

        def fail(*_args, **_kwargs):  # pragma: no cover - called means regression
            raise AssertionError("trace-backed tables materialised the whole trace")

        monkeypatch.setattr(execute_module, "read_trace", fail)
        monkeypatch.setattr(RecordFrame, "to_dataset", fail)
        for workers in (1, 2):
            result = execute(
                RunSpec(
                    mode="tables",
                    traffic=TrafficSpec(source="trace", path=path),
                    execution=ExecutionSpec(workers=workers),
                )
            )
            assert result.tables == {
                "table1": oracle.render_table1(),
                "table2": oracle.render_table2(),
                "table3": oracle.render_table3(),
                "table4": oracle.render_table4(),
            }
            assert result.source == "balanced_small"


class TestWorkerValidation:
    def test_workers_below_one_rejected_in_spec(self):
        with pytest.raises(SpecError, match="at least 1"):
            ExecutionSpec(workers=0)

    def test_workers_are_batch_only(self):
        spec = RunSpec(
            mode="stream",
            traffic=TrafficSpec(scenario="balanced_small"),
            execution=ExecutionSpec(workers=2),
        )
        with pytest.raises(SpecError, match="tables/evaluate"):
            execute(spec)

    def test_run_frame_rejects_bad_workers_and_custom_sessionizers(self):
        from repro.logs.sessionization import Sessionizer

        frame = RecordFrame.from_records([])
        with pytest.raises(DetectorError, match="at least 1"):
            DetectionPipeline(_detectors()).run_frame(frame, workers=0)

        class CustomSessionizer(Sessionizer):
            def sessionize(self, records):  # pragma: no cover - never called
                return super().sessionize(records)

        with pytest.raises(DetectorError, match="base Sessionizer"):
            DetectionPipeline(_detectors(), sessionizer=CustomSessionizer())


class _DyingDetector(Detector):
    """Kills the shard worker that runs it, as an OOM kill would."""

    name = "dies"
    frame_shardable = True

    def analyze(self, dataset, *, sessions=None):  # pragma: no cover - never called
        return AlertSet(self.name)

    def alert_columns(self, frame, sessions, features):  # pragma: no cover - in a worker
        os._exit(137)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the timeout")
def test_dead_shard_worker_raises_instead_of_hanging():
    dataset = generate_dataset(get_scenario("balanced_small", total_requests=1_000, seed=5))
    frame = RecordFrame.from_dataset(dataset)

    started = time.monotonic()
    with hang_guard(10), pytest.raises(ShardWorkerError, match="2-worker") as raised:
        DetectionPipeline([_DyingDetector()]).run_frame(frame, workers=2)
    assert raised.value.workers == 2
    assert time.monotonic() - started < 10
