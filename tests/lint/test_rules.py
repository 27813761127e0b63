"""One firing fixture per rule: each tree violates exactly that rule.

Every test asserts three things: the expected rule (and only it) fires,
the finding points at the right location, and the clean twin of the same
fixture produces nothing -- the no-false-positive half of each rule's
contract.
"""

from __future__ import annotations

from tests.lint.util import only_rule

# ----------------------------------------------------------------------
# REP001 determinism
# ----------------------------------------------------------------------
def test_rep001_fires_on_wall_clock(lint_tree):
    report = lint_tree(
        {
            "src/repro/core/clocky.py": """
            import time

            def stamp():
                return time.time()
            """
        }
    )
    (finding,) = only_rule(report, "REP001")
    assert finding.path == "src/repro/core/clocky.py"
    assert finding.line == 5
    assert "time.time()" in finding.message
    assert finding.suggestion is not None


def test_rep001_fires_on_global_random_and_datetime_now(lint_tree):
    report = lint_tree(
        {
            "src/repro/traffic/wobbly.py": """
            import random
            from datetime import datetime

            def jitter():
                return random.random() + datetime.now().timestamp()
            """
        }
    )
    findings = only_rule(report, "REP001")
    messages = " / ".join(finding.message for finding in findings)
    assert "random.random()" in messages
    assert "datetime.now()" in messages


def test_rep001_allows_seeded_generators_and_out_of_scope_files(lint_tree):
    report = lint_tree(
        {
            # Seeded construction in scope: fine.
            "src/repro/core/seeded.py": """
            import random

            def draw(seed):
                return random.Random(seed).random()
            """,
            # Wall clock outside the engine paths: fine.
            "src/repro/obs/clocky.py": """
            import time

            def stamp():
                return time.time()
            """,
        }
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# REP004 registry discipline
# ----------------------------------------------------------------------
def test_rep004_fires_on_factories_poke(lint_tree):
    report = lint_tree(
        {
            "src/repro/detectors/sneaky.py": """
            from repro.registry import Registry

            def smuggle(registry, name, factory):
                registry._factories[name] = factory
            """
        }
    )
    (finding,) = only_rule(report, "REP004")
    assert "_factories" in finding.message


def test_rep004_fires_on_private_registry_import(lint_tree):
    report = lint_tree(
        {
            "src/repro/detectors/sneaky.py": """
            from repro.registry import _factories_of
            """
        }
    )
    (finding,) = only_rule(report, "REP004")
    assert "_factories_of" in finding.message


def test_rep004_exempts_the_registry_module_itself(lint_tree):
    report = lint_tree(
        {
            "src/repro/registry.py": """
            class Registry:
                def __init__(self):
                    self._factories = {}

                def register(self, name, factory):
                    self._factories[name] = factory
            """
        }
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# REP005 spec round-trip
# ----------------------------------------------------------------------
def test_rep005_fires_on_dropped_field(lint_tree):
    report = lint_tree(
        {
            "src/repro/runspec/leaky.py": """
            from dataclasses import dataclass

            @dataclass
            class LeakySpec:
                kept: int = 0
                dropped: int = 0

                def to_dict(self):
                    return {"kept": self.kept}

                @classmethod
                def from_dict(cls, data):
                    return cls(kept=data["kept"])
            """
        }
    )
    findings = only_rule(report, "REP005")
    assert len(findings) == 2  # not serialized + not restored
    assert all("dropped" in finding.message for finding in findings)
    # Both anchor at the field declaration, so one pragma covers both.
    assert {finding.line for finding in findings} == {7}


def test_rep005_passes_complete_serializers_and_generic_classes(lint_tree):
    report = lint_tree(
        {
            "src/repro/runspec/tight.py": """
            from dataclasses import dataclass, fields

            @dataclass
            class TightSpec:
                kept: int = 0

                def to_dict(self):
                    return {"kept": self.kept}

                @classmethod
                def from_dict(cls, data):
                    return cls(kept=data["kept"])

            @dataclass
            class GenericSpec:
                anything: int = 0
                # no explicit serializers: dataclasses.fields-driven base
            """
        }
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# REP006 lock guard
# ----------------------------------------------------------------------
def test_rep006_fires_on_unguarded_write(lint_tree):
    report = lint_tree(
        {
            "src/repro/runstore/racy.py": """
            import threading

            class Racy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """
        }
    )
    (finding,) = only_rule(report, "REP006")
    assert "reset" in finding.message and "count" in finding.message
    assert finding.line == 14


def test_rep006_allows_init_locked_methods_and_guarded_writes(lint_tree):
    report = lint_tree(
        {
            "src/repro/runstore/tidy.py": """
            import threading

            class Tidy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
                        self._bump_locked()

                def _bump_locked(self):
                    self.count += 1
            """
        }
    )
    assert report.findings == []


# ----------------------------------------------------------------------
# REP007 exception hygiene
# ----------------------------------------------------------------------
def test_rep007_fires_on_bare_except_and_swallowed_pass(lint_tree):
    report = lint_tree(
        {
            "src/repro/stream/sloppy.py": """
            def run(work):
                try:
                    work()
                except:
                    return None

            def best_effort(work):
                try:
                    work()
                except ValueError:
                    pass
            """
        }
    )
    findings = only_rule(report, "REP007")
    by_severity = {finding.severity for finding in findings}
    assert by_severity == {"error", "warning"}
    bare = next(f for f in findings if f.severity == "error")
    assert "bare except" in bare.message


def test_rep007_swallow_is_scoped_but_bare_except_is_not(lint_tree):
    report = lint_tree(
        {
            # Outside the engine/persistence paths: swallowing is not
            # flagged, a bare except still is.
            "src/repro/logs/elsewhere.py": """
            def best_effort(work):
                try:
                    work()
                except ValueError:
                    pass

            def worse(work):
                try:
                    work()
                except:
                    pass
            """
        }
    )
    (finding,) = only_rule(report, "REP007")
    assert "bare except" in finding.message
