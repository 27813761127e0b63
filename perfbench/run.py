"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables-cold --seed 2018 --seconds 20 --trace 0

Every set-up and every timed iteration runs in a fresh, single-threaded
child process (``perfbench/workloads.py``) whose environment has the
run store and generation cache unset.  The timed part repeats until
``--seconds`` have passed (at least twice) and each metric is the median
over iterations.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import layers

ROOT = Path(__file__).resolve().parent.parent
#: Each workload's seed when none is given: the scenario defaults.
DEFAULT_SEEDS = {
    "tables-cold": 2018,
    "evaluate-replay": 2018,
    "stream-replay": 2018,
    "defend-adaptive": 314,
}
#: Workloads whose input is a trace recorded during set-up.
REPLAY = ("evaluate-replay", "stream-replay")
#: Set-ups per replay run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: No child may run longer than this (a run must end within 180 s).
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
}
PER_LAYER = {
    **layers.LAYER_METRICS,
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_frac": "frac",
    **{f"obs_gap.{stage}_s": "s" for stage in layers.OBS_STAGES},
    "obs_gap.unspanned_s": "s",
}


class Run:
    """One benchmark invocation: its children, checks and failures."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.trace_path = str(workdir / "input.trace")
        self.problems: list[str] = []
        self.env = {
            key: value
            for key, value in os.environ.items()
            if key not in (
                "REPRO_RUN_STORE", "REPRO_CACHE_DIR", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"
            )
        }
        # Bytecode is cached outside the sources, filled by the warm-up
        # child, so no child's set-up time includes compiling.
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench-out" / "pycache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def child(self, role: str, **job: Any) -> dict[str, Any] | None:
        """Run one child to completion; ``None`` (and a problem) if it failed."""
        job.update(
            role=role,
            workload=self.workload,
            seed=self.seed,
            trace_path=self.trace_path,
            spawned=time.monotonic(),
        )
        command = [sys.executable, str(Path(__file__).with_name("workloads.py")), json.dumps(job)]
        try:
            done = subprocess.run(
                command,
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{role} child timed out after {CHILD_TIMEOUT_S}s")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            self.problems.append(f"{role} child exited with code {done.returncode}")
            return None
        return json.loads(done.stdout.splitlines()[-1])

    def setups(self, traced: bool) -> list[dict[str, Any]]:
        """Record the replay trace several times; the last also computes references."""
        results = []
        for repeat in range(SETUP_REPEATS):
            result = self.child(
                "setup", traced=traced, reference=repeat == SETUP_REPEATS - 1
            )
            if result is None:
                return []
            results.append(result)
        if len({(r["trace_digest"], r["records"]) for r in results}) != 1:
            self.problems.append("set-up recorded different traces from one seed")
        return results

    def iterations(self, kinds: tuple[str, ...], seconds: float) -> list[tuple[str, Any]]:
        """Timed iterations, cycling through ``kinds``, for about ``seconds``.

        A new iteration starts only if the mean so far says it ends in
        time; every kind runs at least once and there are at least two.
        """
        results: list[tuple[str, Any]] = []
        started = time.monotonic()
        while True:
            kind = kinds[len(results) % len(kinds)]
            results.append(
                (kind, self.child("iteration", traced=kind != "plain", observed=False))
            )
            elapsed = time.monotonic() - started
            enough = len(results) >= max(2, len(kinds))
            if enough and elapsed * (len(results) + 1) / len(results) > seconds:
                return results


def _signature(outputs: dict[str, Any]) -> dict[str, Any]:
    """The outputs that must repeat exactly for one seed."""
    return {key: value for key, value in outputs.items() if key != "problems"}


def check_outputs(run: Run, results: list[dict[str, Any] | None], reference: dict | None
                  ) -> tuple[int, int]:
    """Check every iteration's outputs; return (attempted, failed) operations.

    An operation is a run for the batch workloads and a request for the
    other two.  An iteration that crashed or failed a whole-run check
    fails all of its operations.
    """
    done = [result for result in results if result is not None]
    expected = _signature(done[0]["outputs"]) if done else None
    per_request = run.workload not in ("tables-cold", "evaluate-replay")
    size = done[0]["outputs"]["requests"] if (done and per_request) else 1
    attempted = failed = 0
    for result in results:
        if result is None:
            attempted += size
            failed += size
            continue
        outputs = result["outputs"]
        problems = list(outputs["problems"])
        if _signature(outputs) != expected:
            problems.append("outputs differ between iterations of one seed")
        if reference is not None:
            problems.extend(_reference_problems(run.workload, outputs, reference))
        run.problems.extend(problems)
        operations = outputs["requests"] if per_request else 1
        attempted += operations
        failed += operations if problems else result["failed_requests"]
    return attempted, failed


def _reference_problems(workload: str, outputs: dict, reference: dict) -> list[str]:
    problems = []
    if workload == "evaluate-replay":
        for name, expected in reference.items():
            if outputs["alert_counts"] != expected["alert_counts"]:
                problems.append(f"alert counts differ from tables on the {name} traffic")
            if outputs["table2_cells"] != expected["table2_cells"]:
                problems.append(f"Table 2 differs from tables on the {name} traffic")
    if workload == "stream-replay":
        batch = reference["trace"]
        if outputs["alert_counts"]["inhouse"] != batch["alert_counts"]["inhouse"]:
            problems.append(
                f"stream inhouse alerts {outputs['alert_counts']['inhouse']} != "
                f"batch {batch['alert_counts']['inhouse']} on the same trace"
            )
        if outputs["requests"] != batch["requests"]:
            problems.append("stream saw a different number of records than the trace holds")
    return problems


def end_to_end(setups: list[dict], results: list[dict]) -> dict[str, float]:
    """Medians of the end-to-end metrics over the set-ups and timed iterations."""
    metrics = {
        name: statistics.median(values) for name, values in per_iteration(setups, results).items()
    }
    metrics["throughput_rps"] = results[0]["outputs"]["requests"] / metrics["wall_s"]
    return metrics


def per_iteration(setups: list[dict], results: list[dict]) -> dict[str, list[float]]:
    """The raw values behind each end-to-end median, one per set-up or iteration."""
    values = {"setup_s": [r["setup_s"] for r in (setups or results)]}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        values[key] = [r[key] for r in results]
    for name in ("p50", "p99"):
        values[f"latency_{name}_us"] = [r["latency_us"][name] for r in results]
    return values


def _layer_medians(run: Run, traces: list[dict[str, Any]]) -> dict[str, float]:
    """Median self time and exact counts per layer over traced children."""
    values: dict[str, float] = {}
    for metric, unit in layers.LAYER_METRICS.items():
        if unit == "s":
            layer = metric[: -len("_s")]
            values[metric] = statistics.median(t["self_s"].get(layer, 0.0) for t in traces)
        else:
            counts = {t["counts"].get(metric, 0) for t in traces}
            if len(counts) != 1:
                run.problems.append(f"{metric} differs between traced children: {sorted(counts)}")
            values[metric] = max(counts)
    return values


def per_layer(run: Run, setups: list[dict], plain: list[dict], traced: list[dict],
              observed: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics: set-up and iteration layers, coverage and obs gaps."""
    in_setup = _layer_medians(run, [s["trace"] for s in setups]) if setups else {}
    in_timed = _layer_medians(run, [r["trace"] for r in traced])
    metrics = {name: value + in_setup.get(name, 0) for name, value in in_timed.items()}
    metrics["bench.unattributed_s"] = statistics.median(
        r["wall_s"] - sum(r["trace"]["self_s"].values()) for r in traced
    )
    metrics["bench.tracing_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
        - 1.0
    )
    inclusive = observed["trace"]["inclusive_s"]
    stages = observed["obs"]["stages"]
    for stage, stage_layers in layers.OBS_STAGES.items():
        outside_in = sum(inclusive.get(layer, 0.0) for layer in stage_layers)
        recorded = stage in stages or stage in layers.UNSPANNED_STAGES
        metrics[f"obs_gap.{stage}_s"] = outside_in - stages.get(stage, 0.0) if recorded else 0.0
    metrics["obs_gap.unspanned_s"] = observed["wall_s"] - observed["obs"]["spanned_s"]
    return metrics


def describe(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6f} {unit:<6} {notes.get(name, '')}")


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict | None:
    run = Run(workload, seed, workdir)
    if run.child("warmup") is None:
        return None
    setups = run.setups(traced=trace) if workload in REPLAY else []
    if workload in REPLAY and not setups:
        return None
    reference = setups[-1]["reference"] if setups else None
    kinds = ("plain", "traced") if trace else ("plain",)
    timed = run.iterations(kinds, seconds)
    observed = run.child("iteration", traced=True, observed=True) if trace else None
    checked = [result for _, result in timed] + ([observed] if trace else [])
    attempted, failed = check_outputs(run, checked, reference)
    done = [(kind, result) for kind, result in timed if result is not None]
    plain = [result for kind, result in done if kind == "plain"]
    traced = [result for kind, result in done if kind == "traced"]
    if not plain or (trace and (observed is None or not traced)):
        return None

    print(f"workload {workload}, seed {seed}, {len(plain)} untraced iterations")
    if trace:
        metrics = per_layer(run, setups, plain, traced, observed)
        units = PER_LAYER
        notes: dict[str, str] = {}
    else:
        metrics = end_to_end(setups, plain)
        units = END_TO_END
        iterations = f"(median of {len(plain)} iterations)"
        samples = (
            f"(median of {len(plain)} iterations, each over "
            f"{plain[0]['latency_us']['samples']} requests)"
        )
        notes = {name: iterations for name in units}
        notes.update(latency_p50_us=samples, latency_p99_us=samples,
                     setup_s=f"(median of {len(setups or plain)} set-ups)")
    describe(metrics, units, notes)
    if not trace:
        print("  per iteration:")
        for name, values in per_iteration(setups, plain).items():
            print(f"    {name:<16}", " ".join(f"{value:.6g}" for value in values))
    print(f"  {'failed_frac':<34} {failed / attempted:>16.6f} {'frac':<6} "
          f"({failed} of {attempted} operations)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the scenario's, 2018; 314 for defend)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workdir = ROOT / ".perfbench-out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("benchmark failed: no complete measurement", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
