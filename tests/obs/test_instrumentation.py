"""End-to-end instrumentation: every workload fills one registry.

The contract under test is the ISSUE's acceptance bar: an instrumented
run carries a telemetry snapshot with per-stage duration histograms and
at least ten distinct named counters; single-process and sharded batch
runs count *identical* logical events (the shared
:data:`~repro.obs.names.ENGINE_EQUIVALENT_COUNTERS` vocabulary); and an
uninstrumented run stays exactly as it was (no telemetry, legacy
timings only).
"""

from __future__ import annotations

import pytest

from repro.columns import RecordFrame
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.runspec.execute import execute
from repro.runspec.spec import RunSpec, TrafficSpec
from repro.stream.detectors import default_online_detectors
from repro.stream.engine import StreamEngine
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(get_scenario("balanced_small"))


def _pipeline(registry: MetricsRegistry) -> DetectionPipeline:
    return DetectionPipeline(
        [CommercialBotDefenceDetector(), InHouseHeuristicDetector()], registry=registry
    )


def _counter_series(registry: MetricsRegistry, name: str) -> dict:
    counter = registry.get(name)
    if counter is None:
        return {}
    return {tuple(sorted(labels.items())): value for labels, value in counter.series()}


def _distinct_counters(telemetry: dict) -> list[str]:
    return [
        name for name, entry in telemetry["metrics"].items() if entry["kind"] == "counter"
    ]


class TestPipelineCounterEquivalence:
    def test_single_and_sharded_runs_count_identical_events(self, dataset):
        frame = RecordFrame.from_dataset(dataset)
        observed = {}
        for workers in (1, 2):
            registry = MetricsRegistry()
            _pipeline(registry).run_frame(frame, workers=workers)
            observed[workers] = {
                name: _counter_series(registry, name)
                for name in metric_names.ENGINE_EQUIVALENT_COUNTERS
            }
            assert registry.counter(metric_names.RECORDS_INGESTED).total() == len(dataset)
        assert observed[1] == observed[2]
        # The equivalence vocabulary is non-trivial: every counter in it
        # actually fired.
        for name in metric_names.ENGINE_EQUIVALENT_COUNTERS:
            assert observed[1][name], f"{name} never incremented"

    def test_detector_runs_carry_the_code_path(self, dataset):
        registry = MetricsRegistry()
        _pipeline(registry).run(dataset)
        runs = _counter_series(registry, metric_names.DETECTOR_RUNS)
        assert runs and all(dict(labels)["path"] == "columnar" for labels in runs)


class TestExecuteTelemetry:
    def _spec(self, mode: str) -> RunSpec:
        return RunSpec(mode=mode, traffic=TrafficSpec(scenario="balanced_small", seed=3))

    def test_tables_snapshot_meets_the_acceptance_bar(self):
        registry = MetricsRegistry()
        result = execute(self._spec("tables"), registry=registry)
        telemetry = result.telemetry
        assert telemetry is not None
        assert len(_distinct_counters(telemetry)) >= 10
        stage = telemetry["metrics"][metric_names.STAGE_SECONDS]
        assert stage["kind"] == "histogram"
        stages = {dict(series["labels"])["stage"] for series in stage["series"]}
        assert {"dataset", "experiment", "sessionize", "detectors"} <= stages
        # The derived per-stage view is folded into timings, with the
        # legacy pipeline keys preserved.
        assert {"dataset", "experiment", "sessionization", "detectors"} <= set(result.timings)
        # And the whole registry round-trips from the result payload.
        rebuilt = MetricsRegistry.from_dict(result.to_dict()["telemetry"])
        assert rebuilt.to_dict() == telemetry

    def test_stream_snapshot_meets_the_acceptance_bar(self):
        registry = MetricsRegistry()
        result = execute(self._spec("stream"), registry=registry)
        telemetry = result.telemetry
        assert telemetry is not None
        assert len(_distinct_counters(telemetry)) >= 10
        assert metric_names.STAGE_SECONDS in telemetry["metrics"]
        assert {"source", "stream"} <= set(result.timings)
        assert {"stream_seconds", "busy_seconds"} <= set(result.timings)
        ingested = MetricsRegistry.from_dict(telemetry).counter(
            metric_names.RECORDS_INGESTED
        )
        assert ingested.total() == result.total_requests

    def test_defend_snapshot_covers_enforcement(self):
        registry = MetricsRegistry()
        spec = RunSpec(mode="defend", traffic=TrafficSpec(total_requests=800, seed=3))
        result = execute(spec, registry=registry)
        telemetry = result.telemetry
        assert telemetry is not None
        counters = _distinct_counters(telemetry)
        assert metric_names.ENFORCEMENT_ACTIONS in counters
        assert "defense_seconds" in result.timings
        assert {"simulate", "report"} <= set(result.timings)
        actions = _counter_series(registry, metric_names.ENFORCEMENT_ACTIONS)
        assert sum(actions.values()) == result.total_requests

    def test_uninstrumented_execute_is_unchanged(self):
        result = execute(self._spec("tables"))
        assert result.telemetry is None
        assert "dataset" not in result.timings  # no span-derived stages
        assert result.to_dict()["telemetry"] is None

    def test_runs_counter_tracks_mode(self):
        registry = MetricsRegistry()
        execute(self._spec("tables"), registry=registry)
        assert registry.counter(metric_names.RUNS).value(mode="tables") == 1


class TestStreamEngineExport:
    def test_export_matches_the_stream_result(self, dataset):
        registry = MetricsRegistry()
        engine = StreamEngine(default_online_detectors(), registry=registry)
        engine.reset()
        for record in dataset_replay(dataset):
            engine.process(record)
        result = engine.finish()
        assert registry.counter(metric_names.RECORDS_INGESTED).total() == result.stats.records
        assert (
            registry.counter(metric_names.SESSIONS_OPENED).total()
            == result.stats.sessions_opened
        )
        assert (
            registry.counter(metric_names.SESSIONS_CLOSED).total()
            == result.stats.sessions_closed
        )
        assert (
            registry.counter(metric_names.ENSEMBLE_ALERTS).total()
            == result.stats.ensemble_alerts
        )
        verdict_hist = registry.get(metric_names.VERDICT_SECONDS)
        assert verdict_hist is not None
        assert verdict_hist.count() == result.stats.records
