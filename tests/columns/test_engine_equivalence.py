"""The batch pipeline equals the record-path reference -- exactly.

For every preset scenario (seeded), the batch pipeline entered with a
:class:`~repro.logs.dataset.Dataset` (``DetectionPipeline.run``,
``PaperExperiment.run_on``, ``execute`` in ``tables`` and ``evaluate``
mode) must produce the alert sets (ids, scores *and* reasons), Tables
1-4 and labelled-evaluation metrics of
:func:`repro.bench.reference.reference_run`, which computes them from
each detector's record ``analyze`` and the dict-path :mod:`repro.core`
functions.  ``test_frame_equivalence.py`` holds the frame entry points,
the sharded run and the trace-sourced run to the same reference.
"""

from __future__ import annotations

from repro.core.experiment import PaperExperiment
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.runspec import RunSpec, execute


def _full_alerts(alert_set):
    return {alert.request_id: (alert.score, alert.reasons) for alert in alert_set.alerts()}


def _evaluation_rows(evaluations):
    return [evaluation.as_dict() for evaluation in evaluations]


class TestEngineEquivalence:
    def test_alert_sets_byte_identical(self, preset):
        dataset, _frame, _trace, reference = preset
        result = DetectionPipeline(
            [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]
        ).run(dataset)
        assert result.matrix.request_ids == reference.experiment.matrix.request_ids
        assert (result.matrix.values == reference.experiment.matrix.values).all()
        for by_record, by_batch in zip(reference.alert_sets, result.alert_sets, strict=True):
            assert by_record.detector_name == by_batch.detector_name
            assert _full_alerts(by_record) == _full_alerts(by_batch)

    def test_tables_mode_identical(self, preset):
        dataset, _frame, _trace, reference = preset
        oracle = reference.experiment
        result = execute(RunSpec(mode="tables"), dataset=dataset)
        assert result.alert_counts == dict(oracle.alert_counts)
        assert result.tables == {
            "table1": oracle.render_table1(),
            "table2": oracle.render_table2(),
            "table3": oracle.render_table3(),
            "table4": oracle.render_table4(),
        }
        assert result.metrics == {
            "both": oracle.breakdown.both,
            "neither": oracle.breakdown.neither,
            "first_only": oracle.breakdown.first_only,
            "second_only": oracle.breakdown.second_only,
            **oracle.diversity_metrics.as_dict(),
        }

    def test_evaluate_mode_identical(self, preset):
        dataset, _frame, _trace, reference = preset
        oracle = reference.experiment
        result = execute(RunSpec(mode="evaluate"), dataset=dataset)
        assert result.alert_counts == dict(oracle.alert_counts)
        assert result.rows["tool_evaluation"] == _evaluation_rows(oracle.tool_evaluations)
        assert result.rows["adjudication_evaluation"] == _evaluation_rows(
            oracle.adjudication_evaluations
        )

    def test_experiment_object_equivalence(self, preset):
        dataset, _frame, _trace, reference = preset
        oracle = reference.experiment
        result = PaperExperiment().run_on(dataset)
        assert result.dataset is dataset
        assert result.render_all() == oracle.render_all()
        assert dict(result.alert_counts) == dict(oracle.alert_counts)
        assert (result.matrix.values == oracle.matrix.values).all()
        assert result.diversity_metrics.as_dict() == oracle.diversity_metrics.as_dict()
        assert _evaluation_rows(result.tool_evaluations) == _evaluation_rows(
            oracle.tool_evaluations
        )
        assert _evaluation_rows(result.adjudication_evaluations) == _evaluation_rows(
            oracle.adjudication_evaluations
        )
