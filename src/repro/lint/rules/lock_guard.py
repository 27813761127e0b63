"""REP006: state a class protects with its lock stays protected.

A class that creates a ``threading.Lock``/``RLock`` in ``__init__`` and
writes some attribute under ``with self._lock:`` has declared that
attribute lock-guarded.  Any *other* write to the same attribute that is
not under the lock is a latent race -- exactly the bug class the
metrics registry and the run store were designed to avoid.

Conventions the rule understands:

* ``__init__`` writes are construction, not shared-state mutation, and
  are always allowed;
* methods whose name ends in ``_locked`` document that the caller holds
  the lock and are exempt;
* ``# repro-lint: allow[REP006] reason`` on the write line for anything
  genuinely single-threaded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name, iter_classes, self_attr_of_target, write_targets
from repro.lint.engine import Project, Rule, SourceFile, register_rule
from repro.lint.findings import Finding

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
}


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Attribute names assigned a Lock/RLock anywhere in the class body."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        factory = dotted_name(node.value.func)
        if factory not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = self_attr_of_target(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _holds_lock(stmt: ast.With, locks: set[str]) -> bool:
    for item in stmt.items:
        name = dotted_name(item.context_expr)
        if name is not None and name.startswith("self.") and name[len("self.") :] in locks:
            return True
    return False


def _walk_writes(
    stmts: list[ast.stmt], locks: set[str], under_lock: bool
) -> Iterator[tuple[str, ast.stmt, bool]]:
    """``(attr, stmt, under_lock)`` for every ``self.<attr>`` write."""
    for stmt in stmts:
        for target in write_targets(stmt):
            targets = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for element in targets:
                attr = self_attr_of_target(element)
                if attr is not None:
                    yield attr, stmt, under_lock
        held = under_lock or (isinstance(stmt, ast.With) and _holds_lock(stmt, locks))
        for block in ("body", "orelse", "finalbody"):
            children = getattr(stmt, block, None)
            if children:
                yield from _walk_writes(children, locks, held)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _walk_writes(handler.body, locks, held)


@register_rule
class LockGuardRule(Rule):
    rule_id = "REP006"
    severity = "error"
    summary = (
        "attributes a class writes under its lock must never be written "
        "without it"
    )
    autofix_hint = (
        "wrap the write in 'with self._lock:', rename the method *_locked "
        "if the caller holds it, or pragma a single-threaded write"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if not project.in_scope(source, project.config.lock_paths):
            return
        for cls in iter_classes(source.tree):
            locks = _lock_attrs(cls)
            if not locks:
                continue
            # Pass 1: which attributes does this class treat as guarded?
            guarded: set[str] = set()
            writes: list[tuple[str, ast.stmt, bool, str]] = []
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                for attr, stmt, held in _walk_writes(item.body, locks, False):
                    if attr in locks:
                        continue
                    if held:
                        guarded.add(attr)
                    writes.append((attr, stmt, held, item.name))
            # Pass 2: flag unguarded writes of guarded attributes.
            for attr, stmt, held, method in writes:
                if held or attr not in guarded:
                    continue
                if method == "__init__" or method.endswith("_locked"):
                    continue
                yield self.finding(
                    source,
                    stmt,
                    f"{cls.name}.{method} writes self.{attr} without holding the "
                    f"lock that guards it elsewhere in {cls.name}",
                    suggestion="hold the lock for this write (or rename the method *_locked)",
                )
