"""Golden digests of the batch outputs, pinned independently of any code path.

Every case is one preset scenario at a fixed seed.  For each case the
committed ``batch_digests.json`` holds a sha256 of

* each detector's alert set -- the sorted ``(request_id, repr(score),
  reasons)`` triples -- for the paper's two stand-in tools,
* each rendered Table 1-4,
* each ``evaluate`` row group (``tool_evaluation``,
  ``adjudication_evaluation``, ``actor_class_detection``),

plus the alert sets of all nine registered detectors on one preset.  A
refactor of the batch path must leave every digest unchanged; a change
that moves a published number has to regenerate the file on purpose::

    PYTHONPATH=src python tests/golden/test_golden_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "batch_digests.json")

#: ``(case id, scenario, scenario parameters)``.  The 7919 seed is the
#: benchmark's held-out seed.
CASES = [
    ("amadeus_march_2018-2018", "amadeus_march_2018", {"scale": 0.02, "seed": 2018}),
    ("amadeus_march_2018-7919", "amadeus_march_2018", {"scale": 0.02, "seed": 7919}),
    ("balanced_small-7", "balanced_small", {"total_requests": 5_000, "seed": 7}),
    ("balanced_small-8", "balanced_small", {"total_requests": 5_000, "seed": 8}),
    ("stealth_heavy-23", "stealth_heavy", {"total_requests": 5_000, "seed": 23}),
    ("stealth_heavy-24", "stealth_heavy", {"total_requests": 5_000, "seed": 24}),
]

#: The case every registered detector is digested on.
ALL_DETECTORS_CASE = "balanced_small-7"

ROW_GROUPS = ("tool_evaluation", "adjudication_evaluation", "actor_class_detection")


def _sha256(value: Any) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def alert_set_digest(alert_set: Any) -> str:
    """sha256 over an alert set's sorted ``(request_id, repr(score), reasons)``."""
    triples = sorted(
        (alert.request_id, repr(alert.score), list(alert.reasons))
        for alert in alert_set.alerts()
    )
    return _sha256(triples)


def _dataset(scenario: str, params: dict[str, Any]) -> Any:
    from repro.traffic.generator import generate_dataset
    from repro.traffic.scenarios import get_scenario

    return generate_dataset(get_scenario(scenario, **params))


def case_digests(scenario: str, params: dict[str, Any], *, all_detectors: bool) -> dict[str, str]:
    """Every digest of one case, keyed ``alerts/<detector>``, ``tableN``, ``rows/<group>``."""
    from repro.detectors.commercial import CommercialBotDefenceDetector
    from repro.detectors.inhouse import InHouseHeuristicDetector
    from repro.detectors.pipeline import DetectionPipeline
    from repro.detectors.registry import available_detectors, create_detector
    from repro.runspec import RunSpec, execute

    dataset = _dataset(scenario, params)
    digests: dict[str, str] = {}
    pipeline = DetectionPipeline([CommercialBotDefenceDetector(), InHouseHeuristicDetector()])
    for alert_set in pipeline.run(dataset).alert_sets:
        digests[f"alerts/{alert_set.detector_name}"] = alert_set_digest(alert_set)

    result = execute(RunSpec(mode="evaluate"), dataset=dataset)
    experiment = result.raw
    for number, render in enumerate(
        (
            experiment.render_table1,
            experiment.render_table2,
            experiment.render_table3,
            experiment.render_table4,
        ),
        start=1,
    ):
        digests[f"table{number}"] = _sha256(render())
    for group in ROW_GROUPS:
        digests[f"rows/{group}"] = _sha256(result.rows[group])

    if all_detectors:
        names = available_detectors()
        everyone = DetectionPipeline([create_detector(name) for name in names])
        for name, alert_set in zip(names, everyone.run(dataset).alert_sets):
            digests[f"all-detectors/{name}"] = alert_set_digest(alert_set)
    return digests


def compute_all() -> dict[str, dict[str, str]]:
    return {
        case: case_digests(scenario, params, all_detectors=case == ALL_DETECTORS_CASE)
        for case, scenario, params in CASES
    }


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case, scenario, params", CASES, ids=[case for case, _, _ in CASES])
def test_batch_outputs_match_golden_digests(case, scenario, params):
    expected = _golden()[case]
    actual = case_digests(scenario, params, all_detectors=case == ALL_DETECTORS_CASE)
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{case}: batch outputs changed for {changed}"


def test_all_registered_detectors_are_digested():
    from repro.detectors.registry import available_detectors

    keys = _golden()[ALL_DETECTORS_CASE]
    digested = sorted(key.split("/", 1)[1] for key in keys if key.startswith("all-detectors/"))
    assert digested == sorted(available_detectors())
    assert len(digested) == 9


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_all(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
