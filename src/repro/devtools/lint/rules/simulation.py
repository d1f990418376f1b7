"""SIM001 and API001: engine-encapsulation and layering invariants.

SIM001 — the event heap belongs to :class:`repro.sim.engine.Simulator`.
Its determinism contract (total ``(time, seq)`` order, lazy cancellation,
compaction bookkeeping) holds only while every mutation goes through
``schedule``/``schedule_at``/``cancel`` — or, for a wake-up that is pushed
only if it comes to matter, ``reserve_seq`` + ``schedule_reserved``; a
``heapq`` call on another object's heap bypasses the sequence counter and
the cancelled-event accounting at once.

API001 — shipped modules must never import from the test tree: tests are
not installed, so such an import works in CI and crashes for users.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.lint.context import FileContext, dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register

_HEAPQ_FNS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace", "nsmallest", "nlargest"}
)
_SIM_LINKS = frozenset({"sim", "_sim", "simulator", "_simulator", "engine", "_engine"})


def _resolved_heapq_fn(ctx: FileContext, func: ast.expr) -> Optional[str]:
    resolved = ctx.resolve(func)
    if resolved is None:
        return None
    module, _, member = resolved.rpartition(".")
    if module == "heapq" and member in _HEAPQ_FNS:
        return member
    return None


def _is_engine_heap(arg: ast.expr) -> bool:
    """True for attribute chains that dereference a simulator's heap,
    e.g. ``sim._heap`` or ``self._sim._heap`` — but not a module's own
    ``self._heap``."""
    spelled = dotted_name(arg)
    if spelled is None:
        return False
    parts = spelled.split(".")
    if parts[-1] not in ("_heap", "heap"):
        return False
    return any(part in _SIM_LINKS for part in parts[:-1])


@register
class NoDirectHeapAccess(Rule):
    code = "SIM001"
    name = "no-direct-heap-access"
    description = "heapq calls on the engine's event heap are forbidden"

    def applies(self, ctx: FileContext) -> bool:
        # The engine itself is the one legitimate owner of its heap.
        return ctx.path.name != "engine.py" or not ctx.in_dirs("sim")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            member = _resolved_heapq_fn(ctx, node.func)
            if member is None or not node.args:
                continue
            # The heap is arg 0 for heappush/heappop/... and arg 1 for
            # nsmallest/nlargest; checking every argument covers both.
            if any(_is_engine_heap(arg) for arg in node.args):
                yield self.finding(
                    ctx,
                    node,
                    f"heapq.{member}() on the simulator's event heap — go "
                    "through Simulator.schedule/schedule_at/cancel (or "
                    "reserve_seq + schedule_reserved for a deferred push) so "
                    "the (time, seq) order and cancellation bookkeeping hold",
                )


@register
class NoTestImports(Rule):
    code = "API001"
    name = "no-test-imports"
    description = "shipped modules must not import from the tests/ tree"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "tests" or alias.name.startswith("tests."):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r} — the test tree is "
                            "not installed with the package",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and (
                    module == "tests" or module.startswith("tests.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {module!r} — the test tree is not "
                        "installed with the package",
                    )
