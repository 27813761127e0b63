"""Preset scenarios shared by the batch-equivalence suites.

Each preset is generated once per test session, recorded to a trace
file and run through the record-path reference
(:func:`repro.bench.reference.reference_run`), so both suites compare
against the same reference without recomputing it.
"""

from __future__ import annotations

import pytest

from repro.bench.reference import reference_run
from repro.columns import RecordFrame
from repro.trace import write_trace
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario

#: Every preset scenario, scaled to keep the suite fast (the paper
#: scenario at scale 0.02, the fixed-size presets at a few thousand
#: requests) and seeded for reproducibility.
PRESETS = [
    ("amadeus_march_2018", {"scale": 0.02, "seed": 2018}),
    ("balanced_small", {"total_requests": 5_000, "seed": 7}),
    ("stealth_heavy", {"total_requests": 5_000, "seed": 23}),
]


@pytest.fixture(scope="session", params=PRESETS, ids=[name for name, _ in PRESETS])
def preset(request, tmp_path_factory):
    """``(dataset, frame, trace path, reference run)`` of one preset."""
    name, params = request.param
    dataset = generate_dataset(get_scenario(name, **params))
    trace_path = str(tmp_path_factory.mktemp("traces") / f"{name}.trace")
    write_trace(dataset, trace_path)
    return dataset, RecordFrame.from_dataset(dataset), trace_path, reference_run(dataset)
