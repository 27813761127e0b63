"""The benchmark's workloads, run one per fresh child process.

``perfbench/run.py`` starts this file as a child for each set-up and
each timed iteration::

    python3 perfbench/workloads.py '<job as JSON>'

and reads the one JSON object it prints.  A job names its ``role``:
``warmup`` imports every module once, ``setup`` records the input trace
of a replay workload, ``iteration`` runs one timed pass of a workload.
It also carries the ``workload``, the ``seed``, the trace path and the
``spawned`` time (``time.monotonic`` in the parent, the same clock
system-wide), so set-up time counts interpreter start and imports.
``traced`` installs the per-layer tracer of :mod:`layers`; ``observed``
also hands ``execute`` a ``MetricsRegistry`` so the program's own stage
timings can be compared with the traced ones.

Every workload goes through ``repro.runspec.execute``, which drives
``StreamEngine`` (stream) and ``ClosedLoopSimulator`` (defend) itself.
All four are closed loops with one client, in one thread.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import sys
import time
from typing import Any

import layers

#: Scenario traffic size per workload (``amadeus_march_2018`` scale):
#: about 72k requests at 0.05, 29k at 0.02.  One iteration takes 0.5-3 s,
#: so a 20 s run gets enough iterations for a steady median.
SCALE = {"tables-cold": 0.05, "evaluate-replay": 0.05, "stream-replay": 0.02}
#: Closed-loop request budget of ``defend-adaptive`` (about 11k attempted).
DEFEND_REQUESTS = 20_000


def digest(value: Any) -> str:
    """A short stable hash of a JSON-ready value."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _spec(workload: str, seed: int, trace_path: str) -> Any:
    from repro.runspec import AdjudicationSpec, RunSpec, TrafficSpec

    if workload == "tables-cold":
        return RunSpec(mode="tables", traffic=TrafficSpec(scale=SCALE[workload], seed=seed))
    if workload == "evaluate-replay":
        return RunSpec(mode="evaluate", traffic=TrafficSpec(path=trace_path))
    if workload == "stream-replay":
        return RunSpec(
            mode="stream",
            traffic=TrafficSpec(path=trace_path),
            adjudication=AdjudicationSpec(k=2),
        )
    if workload == "defend-adaptive":
        return RunSpec(
            mode="defend",
            traffic=TrafficSpec(
                campaign="adaptive", total_requests=DEFEND_REQUESTS, seed=seed
            ),
            adjudication=AdjudicationSpec(k=2, window_seconds=600.0),
        )
    raise ValueError(f"unknown workload {workload!r}")


def _batch_outputs(result: Any) -> dict[str, Any]:
    """Tables 1-4, alert counts and the Table 2 cells of a batch run."""
    experiment = result.raw
    cells = {key: result.metrics[key] for key in ("both", "neither", "first_only", "second_only")}
    problems = []
    if sum(cells.values()) != result.total_requests:
        problems.append(
            f"Table 2 cells sum to {sum(cells.values())}, not {result.total_requests} requests"
        )
    return {
        "requests": result.total_requests,
        "alert_counts": dict(result.alert_counts),
        "table2_cells": cells,
        "tables_digest": digest(
            [experiment.render_table1(), experiment.render_table2(),
             experiment.render_table3(), experiment.render_table4()]
        ),
        "rows_digest": digest(result.rows),
        "problems": problems,
    }


def _stream_outputs(result: Any, probe: dict[str, Any]) -> dict[str, Any]:
    problems = []
    if len(probe["latencies"]) != result.total_requests:
        problems.append(
            f"{len(probe['latencies'])} verdict calls for {result.total_requests} records"
        )
    return {
        "requests": result.total_requests,
        "alert_counts": dict(result.alert_counts),
        "adjudicated_alerts": result.metrics["adjudicated_alerts"],
        "sessions_closed": result.metrics["sessions_closed"],
        "problems": problems,
    }


def _defend_outputs(result: Any, probe: dict[str, Any]) -> dict[str, Any]:
    report = result.raw["report"]
    problems = []
    attempted = report.total_requests
    if report.served_requests + report.denied_requests != attempted:
        problems.append(
            f"served {report.served_requests} + denied {report.denied_requests} "
            f"!= attempted {attempted}"
        )
    if len(probe["latencies"]) != attempted:
        problems.append(f"{len(probe['latencies'])} gateway calls for {attempted} requests")
    return {
        "requests": attempted,
        "alert_counts": dict(result.alert_counts),
        "served": report.served_requests,
        "denied": report.denied_requests,
        "table5_digest": digest(result.tables["table5"]),
        "problems": problems,
    }


def percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]


def _probe_requests(workload: str) -> dict[str, Any] | None:
    """Install the per-request latency probe of a request workload."""
    if workload == "stream-replay":
        from repro.stream.engine import StreamEngine

        return layers.time_requests(
            StreamEngine,
            "process",
            lambda record, verdicts: len(verdicts) == 1
            and verdicts[0].request_id == record.request_id,
        )
    if workload == "defend-adaptive":
        from repro.mitigation.gateway import EnforcementGateway

        return layers.time_requests(
            EnforcementGateway,
            "handle",
            lambda record, outcome: outcome.record is record,
        )
    return None


def _install_tracer(job: dict[str, Any]) -> layers.Tracer | None:
    if not job["traced"]:
        return None
    tracer = layers.Tracer()
    layers.install(tracer)
    return tracer


def _cpu_and_rss() -> tuple[float, float]:
    """CPU seconds and peak RSS in MiB of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    # ru_maxrss is in KiB on Linux.
    return cpu_s, max(own.ru_maxrss, children.ru_maxrss) / 1024.0


def run_iteration(job: dict[str, Any]) -> dict[str, Any]:
    """One timed pass of a workload, with its resource use and outputs."""
    workload = job["workload"]
    execute_module = importlib.import_module("repro.runspec.execute")
    from repro.obs.metrics import MetricsRegistry

    tracer = _install_tracer(job)
    probe = _probe_requests(workload)
    spec = _spec(workload, job["seed"], job["trace_path"])
    registry = MetricsRegistry() if job["observed"] else None
    setup_s = time.monotonic() - job["spawned"]

    cpu_before, _ = _cpu_and_rss()
    started = time.perf_counter()
    result = execute_module.execute(spec, registry=registry)
    wall_s = time.perf_counter() - started
    cpu_after, peak_rss_mib = _cpu_and_rss()
    trace = tracer.snapshot() if tracer is not None else None

    out: dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mib": peak_rss_mib,
    }
    if probe is None:
        # A batch job delivers every request's result when it ends, so
        # each request's latency is the run's wall time.
        out["outputs"] = _batch_outputs(result)
        out["failed_requests"] = 0
        latencies = [wall_s] * out["outputs"]["requests"]
    else:
        out["outputs"] = (
            _stream_outputs(result, probe)
            if workload == "stream-replay"
            else _defend_outputs(result, probe)
        )
        out["failed_requests"] = probe["failed"]
        latencies = sorted(probe["latencies"])
    out["latency_us"] = {
        "p50": percentile(latencies, 0.50) * 1e6,
        "p99": percentile(latencies, 0.99) * 1e6,
        "samples": len(latencies),
    }
    if trace is not None:
        out["trace"] = trace
    if registry is not None:
        out["obs"] = {
            "stages": registry.stage_timings(),
            "spanned_s": sum(span.duration for span in registry.spans),
        }
    return out


def run_setup(job: dict[str, Any]) -> dict[str, Any]:
    """Record the replay input: generate the scenario, write its trace.

    With ``reference`` the batch results the replay run is checked
    against are computed too, after the set-up clock stopped: ``tables``
    mode on the generated traffic (what ``tables-cold`` computes for the
    same scenario, scale and seed) and on the recorded trace.
    """
    execute_module = importlib.import_module("repro.runspec.execute")
    from repro.runspec import RunSpec, TrafficSpec
    from repro.trace import store

    tracer = _install_tracer(job)
    traffic = TrafficSpec(scale=SCALE[job["workload"]], seed=job["seed"])
    dataset = execute_module.build_dataset(traffic)
    info = store.write_trace(dataset, job["trace_path"])
    setup_s = time.monotonic() - job["spawned"]

    with open(job["trace_path"], "rb") as handle:
        trace_digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    out: dict[str, Any] = {
        "setup_s": setup_s,
        "records": info.records,
        "trace_digest": trace_digest,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    if job["reference"]:
        generated = execute_module.execute(RunSpec(mode="tables", traffic=traffic), dataset=dataset)
        replayed = execute_module.execute(
            RunSpec(mode="tables", traffic=TrafficSpec(path=job["trace_path"]))
        )
        out["reference"] = {
            "generated": _batch_outputs(generated),
            "trace": _batch_outputs(replayed),
        }
    return out


def warm_up(job: dict[str, Any]) -> dict[str, Any]:
    """Import every module a workload uses (fills the bytecode cache)."""
    importlib.import_module("repro.runspec.execute")
    layers.install(layers.Tracer())
    return {}


ROLES = {"warmup": warm_up, "setup": run_setup, "iteration": run_iteration}


def main() -> None:
    job = json.loads(sys.argv[1])
    print(json.dumps(ROLES[job["role"]](job)))


if __name__ == "__main__":
    main()
