"""The record-path reference result of the paper experiment.

The batch pipeline runs every detector through its array implementation
(``alert_columns``) and computes the tables with the frame kernels of
:mod:`repro.core.framestats`.  The reference computes the same outputs
from the record implementation instead: each detector's ``analyze`` over
one shared set of :class:`~repro.logs.sessionization.Session` objects,
:meth:`~repro.core.alerts.AlertMatrix.from_alert_sets`, then the
dict-path Tables 1-4, diversity metrics and labelled evaluations of
:mod:`repro.core`.  The test suite and the benchmarks hold the batch
path to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.alerts import AlertMatrix, AlertSet
from repro.core.breakdown import exclusive_status_breakdown, status_breakdown
from repro.core.diversity import diversity_breakdown
from repro.core.evaluation import DetectorEvaluation, evaluate_ensemble, evaluate_matrix
from repro.core.experiment import ExperimentResult
from repro.core.metrics import pairwise_diversity
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Sessionizer


@dataclass
class ReferenceRun:
    """One detector set run through the record path."""

    #: One alert set per detector, in detector order.
    alert_sets: list[AlertSet]
    #: The paper experiment over the first two detectors.
    experiment: ExperimentResult


def reference_run(dataset: Dataset, detectors: Sequence[Detector] | None = None) -> ReferenceRun:
    """Run ``detectors`` (default: the paper's two tools) through the record path.

    The pairwise tables of :attr:`ReferenceRun.experiment` compare the
    first two detectors; the labelled evaluations cover all of them.
    """
    if detectors is None:
        detectors = [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]
    sessions = Sessionizer().sessionize(dataset.records)
    alert_sets = [detector.analyze(dataset, sessions=sessions) for detector in detectors]
    matrix = AlertMatrix.from_alert_sets(dataset, alert_sets)
    first, second = matrix.detector_names[:2]
    pair = (first, second)

    tool_evaluations: list[DetectorEvaluation] = []
    adjudication_evaluations: list[DetectorEvaluation] = []
    if dataset.is_labelled:
        tool_evaluations = evaluate_matrix(dataset, matrix)
        adjudication_evaluations = evaluate_ensemble(dataset, matrix)
    experiment = ExperimentResult(
        dataset=dataset,
        matrix=matrix,
        total_requests=len(dataset),
        alert_counts=matrix.alert_counts(),
        breakdown=diversity_breakdown(matrix, first, second),
        status_tables={name: status_breakdown(dataset, matrix, name) for name in pair},
        exclusive_status_tables={
            name: exclusive_status_breakdown(dataset, matrix, name) for name in pair
        },
        diversity_metrics=pairwise_diversity(matrix, first, second, dataset=dataset),
        tool_evaluations=tool_evaluations,
        adjudication_evaluations=adjudication_evaluations,
    )
    return ReferenceRun(alert_sets=alert_sets, experiment=experiment)
