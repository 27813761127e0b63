"""``execute(spec, profile=...)`` and the ``repro profile`` CLI family."""

from __future__ import annotations

import json
import signal

import pytest

from repro.cli import main
from repro.exceptions import ProfError
from repro.obs import MetricsRegistry
from repro.prof import PROFILE_FORMAT, Profile, ProfileOptions
from repro.runspec import ExecutionSpec, RunSpec, TrafficSpec, execute
from repro.runstore import RunStore
from tests.helpers import hang_guard

SMALL_TRAFFIC = TrafficSpec(
    scenario="balanced_small", seed=3, params={"total_requests": 3000}
)


def delivered_near(hz: float, requested: float) -> bool:
    """The recorded rate is the delivered one: near, and not above, the request."""
    return requested / 2 < hz <= requested * 1.1


@pytest.fixture(autouse=True)
def _no_ambient_run_store(monkeypatch):
    monkeypatch.delenv("REPRO_RUN_STORE", raising=False)


# ----------------------------------------------------------------------
# execute(profile=...)
# ----------------------------------------------------------------------
def test_execute_without_profile_keeps_result_clean():
    result = execute(RunSpec(mode="tables", traffic=SMALL_TRAFFIC))
    assert result.profile is None
    assert result.to_dict()["profile"] is None


def test_execute_profile_true_captures_and_attributes():
    result = execute(RunSpec(mode="tables", traffic=SMALL_TRAFFIC), profile=True)
    assert result.profile is not None
    assert result.profile["format"] == PROFILE_FORMAT
    profile = Profile.from_dict(result.profile)
    paths = {stat.path for stat in profile.spans}
    # The batch pipeline's stages are attributed by span path.
    assert "dataset" in paths
    assert "experiment" in paths
    assert any(path.startswith("experiment/") for path in paths)
    assert profile.span("dataset").calls == 1


def test_execute_profile_options_mapping_and_instance():
    spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC)
    by_mapping = execute(spec, profile={"hz": 199.0, "memory": False})
    assert by_mapping.profile is not None
    assert delivered_near(by_mapping.profile["hz"], 199.0)
    assert by_mapping.profile["memory"] == "off"
    by_options = execute(spec, profile=ProfileOptions(hz=151.0))
    assert by_options.profile is not None
    assert delivered_near(by_options.profile["hz"], 151.0)


def test_execute_profile_works_with_caller_registry():
    registry = MetricsRegistry()
    result = execute(
        RunSpec(mode="tables", traffic=SMALL_TRAFFIC), registry=registry, profile=True
    )
    assert result.profile is not None
    # The caller's registry saw the profiler's live instruments.
    assert registry.counter("repro_profile_samples_total").total() >= 0
    assert result.telemetry is not None
    assert "repro_profile_samples_total" in result.telemetry["metrics"]


def test_profiled_sharded_run_matches_unprofiled_and_cleans_up():
    """Forking shard workers while the profiling timer is live."""
    spec = RunSpec(
        mode="tables", traffic=SMALL_TRAFFIC, execution=ExecutionSpec(workers=2)
    )
    handler_before = signal.getsignal(signal.SIGPROF)
    with hang_guard(60):
        plain = execute(spec)
        profiled = execute(spec, profile=True)
    assert profiled.tables == plain.tables
    assert profiled.alert_counts == plain.alert_counts
    assert profiled.profile is not None
    assert profiled.profile["sample_count"] > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler_before


def test_execute_rejects_bad_profile_values():
    spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC)
    with pytest.raises(ProfError, match="unknown profile option"):
        execute(spec, profile={"rate": 10})


def test_profile_round_trips_through_store(tmp_path):
    path = str(tmp_path / "runs.db")
    result = execute(
        RunSpec(mode="tables", traffic=SMALL_TRAFFIC), store=path, profile=True
    )
    with RunStore(path, create=False) as store:
        exported = store.export(1)
        assert exported["profile"] == result.profile
        assert store.profile(1) == result.profile
        # Replay contract: the export rebuilds the identical result.
        from repro.runspec.result import RunResult

        assert RunResult.from_dict(exported).profile == result.profile


# ----------------------------------------------------------------------
# --profile on executing subcommands
# ----------------------------------------------------------------------
def test_tables_profile_flag_records_and_reports(tmp_path, capsys):
    path = str(tmp_path / "runs.db")
    code = main(
        [
            "tables",
            "--scenario",
            "balanced_small",
            "--seed",
            "3",
            "--profile",
            "--profile-hz",
            "199",
            "--store",
            path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "profile:" in out  # the report follows the tables rendering
    assert "top spans (self time):" in out
    with RunStore(path, create=False) as store:
        stored = store.profile(1)
        assert stored is not None
        assert delivered_near(stored["hz"], 199.0)
    # runs show --json surfaces the stored capture (the acceptance case).
    code = main(["runs", "show", "1", "--store", path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"] == stored


# ----------------------------------------------------------------------
# repro profile run / report / export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def profiled_store(tmp_path_factory):
    """A store holding one profiled run plus its spec file."""
    root = tmp_path_factory.mktemp("prof-cli")
    config = root / "spec.json"
    RunSpec(mode="tables", traffic=SMALL_TRAFFIC).save(config)
    path = str(root / "runs.db")
    code = main(["profile", "run", "--config", str(config), "--store", path])
    assert code == 0
    return str(config), path


def test_profile_run_reports_and_stores(profiled_store, capsys):
    capsys.readouterr()
    config, path = profiled_store
    with RunStore(path, create=False) as store:
        assert store.profile(1) is not None


def test_profile_run_exports_artifacts(tmp_path, capsys):
    config = tmp_path / "spec.json"
    RunSpec(mode="tables", traffic=SMALL_TRAFFIC).save(config)
    collapsed = tmp_path / "stacks.collapsed"
    speedscope = tmp_path / "profile.speedscope.json"
    code = main(
        [
            "profile",
            "run",
            "--config",
            str(config),
            "--collapsed",
            str(collapsed),
            "--speedscope",
            str(speedscope),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == PROFILE_FORMAT
    text = collapsed.read_text()
    assert text  # non-empty collapsed output
    # Every line is "stack count" and parses back (round trip).
    from repro.prof import collapse, parse_collapsed

    assert collapse(parse_collapsed(text)) == text
    doc = json.loads(speedscope.read_text())
    assert doc["profiles"][0]["type"] == "sampled"


def test_profile_report_text_and_json(profiled_store, capsys):
    _config, path = profiled_store
    assert main(["profile", "report", "1", "--store", path]) == 0
    out = capsys.readouterr().out
    assert "top spans (self time):" in out
    assert main(["profile", "report", "1", "--store", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == PROFILE_FORMAT


def test_profile_export_formats(profiled_store, capsys, tmp_path):
    _config, path = profiled_store
    assert main(["profile", "export", "1", "--store", path]) == 0
    collapsed = capsys.readouterr().out
    assert collapsed.strip()
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in collapsed.splitlines())

    out_file = tmp_path / "run1.speedscope.json"
    assert (
        main(
            [
                "profile",
                "export",
                "1",
                "--store",
                path,
                "--format",
                "speedscope",
                "--output",
                str(out_file),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert json.loads(out_file.read_text())["profiles"][0]["unit"] == "seconds"

    assert main(["profile", "export", "1", "--store", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["format"] == PROFILE_FORMAT


def test_profile_report_without_capture_exits_with_hint(tmp_path, capsys):
    path = str(tmp_path / "plain.db")
    assert (
        main(["tables", "--scenario", "balanced_small", "--seed", "3", "--store", path])
        == 0
    )
    capsys.readouterr()
    with pytest.raises(SystemExit, match="no profile"):
        main(["profile", "report", "1", "--store", path])
