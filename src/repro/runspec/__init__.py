"""repro.runspec -- one declarative, serializable entry point for every workload.

The reproduction grew four divergent entry points (the batch
:class:`~repro.core.experiment.PaperExperiment`, the labelled-evaluation
path, the :class:`~repro.stream.engine.StreamEngine`, and the closed-loop
:func:`~repro.mitigation.scenarios.run_defense`).  This package makes an
experiment *data* instead: a :class:`RunSpec` dataclass tree fully
describes a run, round-trips through JSON, and a single
:func:`execute` call dispatches it to the right workload, returning a
uniform :class:`RunResult`.

Quickstart::

    from repro.runspec import RunSpec, TrafficSpec, execute, load_runspec

    spec = RunSpec(mode="tables", traffic=TrafficSpec(scale=0.02, seed=2018))
    result = execute(spec)
    print(result.render())                 # the Tables 1-4 report
    print(result.alert_counts)             # {'commercial': ..., 'inhouse': ...}

    spec.save("spec.json")                 # ... later, or on another machine:
    same = execute(load_runspec("spec.json"))

Specs reference detectors, scenarios, policies and adjudication schemes
by registry name, so third-party components plug in by registering a
factory (see :mod:`repro.registry`).
"""

from repro.runspec.execute import build_dataset, execute
from repro.runspec.result import RunResult
from repro.runspec.spec import (
    ADJUDICATION_MODES,
    CAMPAIGNS,
    DEFAULT_SCENARIO,
    RUN_MODES,
    TRAFFIC_SOURCES,
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunSpec,
    TrafficSpec,
    load_runspec,
)

__all__ = [
    "ADJUDICATION_MODES",
    "AdjudicationSpec",
    "CAMPAIGNS",
    "DEFAULT_SCENARIO",
    "DetectorSpec",
    "ExecutionSpec",
    "PolicySpec",
    "RUN_MODES",
    "RunResult",
    "RunSpec",
    "TRAFFIC_SOURCES",
    "TrafficSpec",
    "build_dataset",
    "execute",
    "load_runspec",
]
