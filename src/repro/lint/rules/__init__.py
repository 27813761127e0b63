"""The built-in project-invariant rules.

Importing this package registers every rule (each module applies
:func:`repro.lint.engine.register_rule` at import time):

========  ==========================================================
REP001    seeded determinism in engine paths (no wall clock, no
          global ``random`` state)
REP002    metric-name discipline: instrumentation sites and the
          ``METRIC_REFERENCE`` catalogue match, both directions
REP004    registry discipline: component families are extended
          through ``register_*`` helpers, never registry internals
REP005    spec round-trip parity: ``to_dict``/``from_dict`` cover
          every field of every ``*Spec``/``RunResult`` dataclass
REP006    lock guard: attributes a class writes under its lock are
          never written without it
REP007    exception hygiene: no bare ``except:``; no silently
          swallowed exceptions in engine paths
REP008    CLI drift: every ``ExecutionSpec`` field is reachable
          from ``repro.cli``
REP009    span-name discipline: ``trace_span``/``registry.span``
          stage names and the ``SPAN_REFERENCE`` catalogue match,
          both directions
========  ==========================================================

Adding a rule: subclass :class:`repro.lint.engine.Rule` in a new module
here (or in third-party code), decorate it with ``@register_rule``, and
import the module.  Fixture-backed firing tests live in
``tests/lint/``.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    cli_drift,
    determinism,
    exception_hygiene,
    lock_guard,
    metric_names,
    registry_discipline,
    span_names,
    spec_roundtrip,
)
