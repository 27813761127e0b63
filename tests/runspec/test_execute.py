"""Tests for execute(): dispatch, legacy equivalence and cross-workload identities."""

from __future__ import annotations

import pytest

from repro.exceptions import SpecError
from repro.runspec import (
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunResult,
    RunSpec,
    TrafficSpec,
    build_dataset,
    execute,
)

SMALL_TRAFFIC = TrafficSpec(scenario="balanced_small", seed=3, params={"total_requests": 3000})


@pytest.fixture(scope="module")
def small_spec_dataset():
    return build_dataset(SMALL_TRAFFIC)


class TestTablesMode:
    def test_round_tripped_spec_reproduces_legacy_metrics(self, calibrated_dataset, experiment_result):
        """The acceptance criterion: spec -> dict -> spec -> execute matches
        the legacy ``PaperExperiment`` run on the calibrated scenario."""
        spec = RunSpec(
            mode="tables",
            traffic=TrafficSpec(scenario="amadeus_march_2018", scale=0.005, seed=2018),
        )
        result = execute(RunSpec.from_dict(spec.to_dict()))
        assert result.total_requests == experiment_result.total_requests
        assert result.alert_counts == dict(experiment_result.alert_counts)
        assert result.metrics["both"] == experiment_result.breakdown.both
        assert result.metrics["kappa"] == experiment_result.diversity_metrics.kappa

    def test_tables_render_matches_legacy(self, small_spec_dataset):
        from repro.core.experiment import PaperExperiment

        spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC)
        result = execute(spec, dataset=small_spec_dataset)
        legacy = PaperExperiment().run_on(small_spec_dataset)
        assert result.render() == legacy.render_all()

    def test_custom_detector_pair_by_name(self, small_spec_dataset):
        spec = RunSpec(
            mode="tables",
            detectors=(DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse")),
        )
        result = execute(spec, dataset=small_spec_dataset)
        assert set(result.alert_counts) == {"rate-limit", "inhouse"}

    def test_wrong_detector_count_rejected(self):
        spec = RunSpec(mode="tables", detectors=(DetectorSpec(name="rate-limit"),))
        with pytest.raises(SpecError, match="pairwise"):
            execute(spec)

    def test_result_carries_spec_and_raw(self, small_spec_dataset):
        spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC, label="carry")
        result = execute(spec, dataset=small_spec_dataset)
        assert result.spec == spec.to_dict()
        assert result.label == "carry"
        assert result.raw is not None
        # The serialized form round-trips (raw is dropped).
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.alert_counts == result.alert_counts
        assert rebuilt.raw is None


class TestEvaluateMode:
    def test_evaluation_rows_present(self, small_spec_dataset):
        spec = RunSpec(mode="evaluate", traffic=SMALL_TRAFFIC)
        result = execute(spec, dataset=small_spec_dataset)
        assert result.rows["tool_evaluation"]
        assert result.rows["adjudication_evaluation"]
        assert result.rows["actor_class_detection"]
        names = {row["name"] for row in result.rows["tool_evaluation"]}
        assert names == set(result.alert_counts)

    def test_configurations_opt_in(self, small_spec_dataset):
        spec = RunSpec(
            mode="evaluate",
            traffic=SMALL_TRAFFIC,
            execution=ExecutionSpec(compare_configurations=True),
        )
        result = execute(spec, dataset=small_spec_dataset)
        configurations = {row["configuration"] for row in result.rows["configurations"]}
        assert any(name.startswith("serial-confirm") for name in configurations)


class TestStreamMode:
    def test_batch_stream_equivalence_is_a_one_liner(self, small_spec_dataset):
        """The ported detectors produce identical alert sets in both modes."""
        pair = (DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse"))
        batch = RunSpec(mode="tables", detectors=pair)
        stream = RunSpec(mode="stream", detectors=pair)
        assert (
            execute(stream, dataset=small_spec_dataset).alert_counts
            == execute(batch, dataset=small_spec_dataset).alert_counts
        )

    def test_default_ensemble_and_adjudication(self, small_spec_dataset):
        spec = RunSpec(mode="stream", adjudication=AdjudicationSpec(k=2))
        result = execute(spec, dataset=small_spec_dataset)
        assert set(result.alert_counts) == {"rate-limit", "ua-fingerprint", "inhouse", "anomaly"}
        assert result.metrics["adjudication_scheme"] == "2-out-of-4"
        assert 0 < result.metrics["adjudicated_alerts"] <= result.total_requests
        assert any("adjudicated" in line for line in result.summary)

    def test_sharded_run_matches_single_shard(self, small_spec_dataset):
        single = RunSpec(mode="stream", adjudication=AdjudicationSpec(k=2))
        sharded = RunSpec(
            mode="stream",
            adjudication=AdjudicationSpec(k=2),
            execution=ExecutionSpec(shards=2),
        )
        first = execute(single, dataset=small_spec_dataset)
        second = execute(sharded, dataset=small_spec_dataset)
        assert first.alert_counts == second.alert_counts

    def test_progress_hook_fires(self, small_spec_dataset):
        milestones = []
        spec = RunSpec(mode="stream", execution=ExecutionSpec(progress_every=500))
        execute(spec, dataset=small_spec_dataset, progress=lambda engine: milestones.append(engine.stats.records))
        assert milestones and all(count >= 500 for count in milestones)


class TestDefendMode:
    def test_pass_through_policy_enforces_nothing(self):
        spec = RunSpec(
            mode="defend",
            traffic=TrafficSpec(total_requests=800, seed=3),
            policy=PolicySpec(name="pass-through"),
        )
        result = execute(spec)
        assert result.metrics["denied_requests"] == 0
        assert result.metrics["served_requests"] == result.total_requests

    def test_defend_reproduces_legacy_run_defense(self):
        from repro.mitigation import build_report, run_defense

        spec = RunSpec(mode="defend", traffic=TrafficSpec(total_requests=800, seed=3))
        result = execute(spec)
        legacy = build_report(
            run_defense(total_requests=800, seed=3), policy_name="standard"
        )
        assert result.total_requests == legacy.total_requests
        assert result.metrics["denied_requests"] == legacy.denied_requests
        assert result.metrics["attacker_yield"] == legacy.attacker_yield
        assert result.enforcement["action_counts"] == dict(legacy.action_counts)

    def test_defend_rejects_injected_dataset(self, small_spec_dataset):
        spec = RunSpec(mode="defend", traffic=TrafficSpec(total_requests=800, seed=3))
        with pytest.raises(SpecError, match="closed-loop"):
            execute(spec, dataset=small_spec_dataset)

    def test_defend_rejects_custom_detectors(self):
        spec = RunSpec(
            mode="defend",
            traffic=TrafficSpec(total_requests=800, seed=3),
            detectors=(DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse")),
        )
        with pytest.raises(SpecError, match="online ensemble"):
            execute(spec)


class TestModeValidation:
    """Spec fields the mode would ignore are rejected, not dropped."""

    @pytest.mark.parametrize(
        ("spec", "match"),
        [
            (
                RunSpec(mode="defend", traffic=TrafficSpec(scenario="stealth_heavy")),
                "remove traffic.scenario",
            ),
            (
                RunSpec(mode="defend", traffic=TrafficSpec(scale=0.01)),
                "total_requests",
            ),
            (
                RunSpec(mode="defend", adjudication=AdjudicationSpec(mode="serial-confirm")),
                "parallel",
            ),
            (
                RunSpec(mode="stream", traffic=TrafficSpec(total_requests=500)),
                "traffic.params",
            ),
            (
                RunSpec(mode="tables", traffic=TrafficSpec(campaign="adaptive")),
                "defend-only",
            ),
            (
                RunSpec(mode="tables", policy=PolicySpec()),
                "policy",
            ),
            (
                RunSpec(mode="tables", adjudication=AdjudicationSpec()),
                "adjudication",
            ),
            (
                RunSpec(mode="evaluate", execution=ExecutionSpec(shards=2)),
                "stream-only",
            ),
            (
                RunSpec(mode="tables", execution=ExecutionSpec(compare_configurations=True)),
                "evaluate-only",
            ),
            (
                RunSpec(mode="defend", execution=ExecutionSpec(progress_every=100)),
                "stream-only",
            ),
        ],
    )
    def test_inapplicable_fields_rejected(self, spec, match):
        with pytest.raises(SpecError, match=match):
            execute(spec)

    def test_scenario_rejects_parameters_it_does_not_take(self):
        with pytest.raises(SpecError, match="does not accept the given parameters"):
            build_dataset(TrafficSpec(scenario="balanced_small", scale=0.01))

    def test_default_scenario_fills_in(self):
        spec = TrafficSpec()
        assert spec.scenario is None
        # build_dataset falls back to the calibrated scenario; a tiny
        # scale keeps this fast.
        dataset = build_dataset(TrafficSpec(scale=0.001, seed=1))
        assert dataset.metadata.name == "amadeus_march_2018"


class TestBuildDataset:
    def test_log_file_replay(self, tmp_path, small_spec_dataset):
        from repro.logs.writer import LogWriter

        path = tmp_path / "access.log"
        LogWriter().write_file(small_spec_dataset.records, str(path))
        replayed = build_dataset(TrafficSpec(log_file=str(path)))
        assert len(replayed) == len(small_spec_dataset)

    def test_unknown_scenario_has_suggestion(self):
        from repro.exceptions import ScenarioError

        with pytest.raises(ScenarioError, match="did you mean"):
            build_dataset(TrafficSpec(scenario="balanced_smal"))
