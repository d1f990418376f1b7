"""CONC001 and CONC003: lock-discipline rules over the per-class model.

Both read :func:`~repro.devtools.lint.classmodel.class_models` — each
class of the file as a unit: its lock attributes, what every method
touches with which locks lexically held, and which methods call which:

* **CONC001 guarded-field consistency** — a field written under
  ``with self.<lock>`` in one method (or annotated ``# guarded-by:
  <lock>`` at its definition) must hold that lock at *every* access
  outside ``__init__``.  Methods named ``*_locked`` are the documented
  "caller holds the lock" convention and are exempt.
* **CONC003 blocking call under lock** — ``fsync``/``fdatasync``,
  ``time.sleep``, ``subprocess.*``, socket/HTTP I/O and blocking
  ``queue.get()`` must not run while a lock is held, unless the held
  lock is a declared ``io_lock`` leaf (serialising exactly that I/O is
  its job).  Propagates one class deep: calling ``self.m()`` under a
  lock is flagged when ``m`` (transitively) blocks.

The order in which different locks nest is not checked here: every lock
in the tree is a ranked ``OrderedLock`` and the
:mod:`repro.devtools.lockdep` witness checks the ranks on every real
acquisition.

False positives are suppressed inline with a justification::

    self._mode = mode  # repro-lint: disable=CONC001 -- set once before start()
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.devtools.lint.classmodel import ClassModel, class_models
from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule


class GuardedFieldConsistencyRule(Rule):
    code = "CONC001"
    name = "guarded-field-consistency"
    description = (
        "a field written under a lock (or annotated '# guarded-by: <lock>') "
        "must hold that lock at every access outside __init__"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for model in class_models(ctx):
            if not model.locks:
                continue
            findings.extend(self._check_class(ctx, model))
        return findings

    def _check_class(self, ctx: FileContext, model: ClassModel) -> Iterable[Finding]:
        guards, origin = self._field_guards(model)
        findings: List[Finding] = []
        for method_name in sorted(model.methods):
            method = model.methods[method_name]
            if method.is_init or method.is_locked_helper:
                continue
            for access in method.accesses:
                guard_set = guards.get(access.attr)
                if not guard_set or access.held & guard_set:
                    continue
                findings.append(
                    self.finding_at(
                        ctx,
                        access.line,
                        access.col,
                        f"{model.name}.{access.attr} is {access.kind} without "
                        f"holding {self._render_guards(guard_set)} "
                        f"({origin[access.attr]})",
                    )
                )
        return findings

    def _field_guards(
        self, model: ClassModel
    ) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, str]]:
        """field -> lock set that guards it, plus a provenance note."""
        guards: Dict[str, FrozenSet[str]] = {}
        origin: Dict[str, str] = {}
        for attr, lock in model.guarded_by.items():
            guards[attr] = frozenset({lock})
            origin[attr] = f"declared '# guarded-by: {lock}'"
        class_locks = {
            model.canonical_lock(name) for name in model.locks
        } - {None}
        for method_name in sorted(model.methods):
            method = model.methods[method_name]
            if method.is_init:
                continue
            for access in method.accesses:
                if access.kind != "write" or access.attr in guards:
                    continue
                held_class_locks = frozenset(
                    lock for lock in access.held if lock in class_locks
                )
                if held_class_locks:
                    guards[access.attr] = held_class_locks
                    origin[access.attr] = (
                        f"written under it in {method_name}() at "
                        f"line {access.line}"
                    )
        return guards, origin

    @staticmethod
    def _render_guards(guard_set: FrozenSet[str]) -> str:
        names = sorted(guard_set)
        if len(names) == 1:
            return f"self.{names[0]}"
        return " or ".join(f"self.{name}" for name in names)


class BlockingUnderLockRule(Rule):
    code = "CONC003"
    name = "blocking-call-under-lock"
    description = (
        "fsync, sleep, subprocess, socket/HTTP I/O and blocking queue.get "
        "must not run while holding a lock (unless it is a declared io_lock "
        "leaf that exists to serialise that I/O)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for model in class_models(ctx):
            if not model.locks:
                continue
            blocks = self._transitive_blockers(model)
            for method_name in sorted(model.methods):
                method = model.methods[method_name]
                if method.is_init:
                    continue
                for call in method.blocking_calls:
                    held = self._non_io_held(model, call.held)
                    if call.held and not held:
                        continue  # only io-leaf lock(s) held: by design
                    if held:
                        findings.append(
                            self.finding_at(
                                ctx,
                                call.line,
                                call.col,
                                f"blocking call {call.what} while holding "
                                f"{self._render(held)} in "
                                f"{model.name}.{method_name}()",
                            )
                        )
                    elif method.is_locked_helper:
                        findings.append(
                            self.finding_at(
                                ctx,
                                call.line,
                                call.col,
                                f"blocking call {call.what} in "
                                f"{model.name}.{method_name}(), which by the "
                                "*_locked convention runs with the class "
                                "lock held",
                            )
                        )
                for call in method.calls:
                    if not call.held:
                        continue
                    held = self._non_io_held(model, call.held)
                    if not held:
                        continue
                    blocked = blocks.get(call.method)
                    if blocked:
                        findings.append(
                            self.finding_at(
                                ctx,
                                call.line,
                                call.col,
                                f"call to self.{call.method}() while holding "
                                f"{self._render(held)}; it performs blocking "
                                f"{blocked} ({model.name}.{method_name}())",
                            )
                        )
        return findings

    @staticmethod
    def _non_io_held(model: ClassModel, held: FrozenSet[str]) -> FrozenSet[str]:
        return frozenset(
            lock for lock in held if not model.is_io_lock(lock)
        )

    @staticmethod
    def _render(held: FrozenSet[str]) -> str:
        return ", ".join(f"self.{name}" for name in sorted(held))

    @staticmethod
    def _transitive_blockers(model: ClassModel) -> Dict[str, str]:
        """method -> description of a blocking call it (transitively)
        performs *outside* any lock (in-lock sites are flagged at the
        site itself)."""
        blocks: Dict[str, str] = {}
        for name, method in model.methods.items():
            for call in method.blocking_calls:
                if not call.held:
                    blocks.setdefault(name, call.what)
        changed = True
        while changed:
            changed = False
            for name, method in model.methods.items():
                if name in blocks:
                    continue
                for call in method.calls:
                    if call.held:
                        continue
                    inherited = blocks.get(call.method)
                    if inherited:
                        blocks[name] = inherited
                        changed = True
                        break
        return blocks
