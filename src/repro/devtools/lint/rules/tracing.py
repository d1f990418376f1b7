"""TRC001: hot-path tracer emits must stay behind the ``wants()`` guard.

PR 1 made tracing effectively free when nobody subscribes by guarding
every MAC/PHY/engine emit with ``tracer.wants(kind)`` — the guard avoids
building the keyword dict and :class:`TraceRecord` on the fastest paths.
This rule keeps that invariant in ``mac/``, ``phy/`` and ``sim/``: an
``emit`` on a tracer-ish receiver must sit inside an ``if`` whose test
calls ``.wants(...)``, and when both kinds are string literals they must
match (a mismatched guard silently drops records for subscribed kinds).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from repro.devtools.lint.context import FileContext, dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule


def _is_tracer_receiver(node: ast.expr) -> bool:
    spelled = dotted_name(node)
    if spelled is None:
        return False
    return "tracer" in spelled.split(".")[-1].lower()


def _wants_kinds(test: ast.expr) -> Optional[Set[str]]:
    """String-literal kinds guarded by ``.wants(...)`` calls in ``test``.

    Returns None when the test contains no ``wants`` call at all, and an
    empty set when it does but with a non-literal kind (guarded, but the
    kind cannot be cross-checked).
    """
    kinds: Set[str] = set()
    found = False
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wants"
        ):
            found = True
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    kinds.add(arg.value)
                else:
                    return set()  # guarded by a dynamic kind: trust it
    return kinds if found else None


def _emit_kind(call: ast.Call) -> Optional[str]:
    """The literal kind argument of ``tracer.emit(time, kind, ...)``."""
    if len(call.args) >= 2:
        kind = call.args[1]
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            return kind.value
    return None


class GuardedTracerEmit(Rule):
    code = "TRC001"
    name = "guarded-tracer-emit"
    description = "tracer.emit in mac/phy/sim must be guarded by tracer.wants"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_dirs("mac", "phy", "sim")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree.body, guard_kinds=None)

    def _walk(
        self,
        ctx: FileContext,
        body: Sequence[ast.stmt],
        guard_kinds: Optional[Set[str]],
    ) -> Iterator[Finding]:
        """Recurse with the innermost enclosing ``wants`` guard.

        ``guard_kinds`` is None when unguarded, a set of literal kinds when
        guarded (empty set: guarded by a dynamic kind expression).
        """
        for node in body:
            if isinstance(node, ast.If):
                kinds = _wants_kinds(node.test)
                yield from self._emits_in_expr(ctx, node.test, guard_kinds)
                yield from self._walk(
                    ctx, node.body, kinds if kinds is not None else guard_kinds
                )
                yield from self._walk(ctx, node.orelse, guard_kinds)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A new scope starts unguarded.  Methods *named* emit are
                # the tracer mechanism itself, not call sites.
                if node.name != "emit":
                    yield from self._walk(ctx, node.body, guard_kinds=None)
            elif isinstance(node, ast.ClassDef):
                yield from self._walk(ctx, node.body, guard_kinds=None)
            else:
                # Generic statement: lint its expression parts at the
                # current guard level, recurse into any statement bodies
                # (for/while/with/try) without losing guard structure.
                for value in self._field_values(node):
                    if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                        yield from self._walk(ctx, value, guard_kinds)
                    elif isinstance(value, list) and value and isinstance(value[0], ast.excepthandler):
                        for handler in value:
                            yield from self._walk(ctx, handler.body, guard_kinds)
                    elif isinstance(value, ast.AST):
                        yield from self._emits_in_expr(ctx, value, guard_kinds)
                    elif isinstance(value, list):
                        for item in value:
                            if isinstance(item, ast.AST):
                                yield from self._emits_in_expr(ctx, item, guard_kinds)

    @staticmethod
    def _field_values(node: ast.AST) -> List[object]:
        return [value for _field, value in ast.iter_fields(node)]

    def _emits_in_expr(
        self,
        ctx: FileContext,
        expr: ast.AST,
        guard_kinds: Optional[Set[str]],
    ) -> Iterator[Finding]:
        for sub in ast.walk(expr):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "emit"
                and _is_tracer_receiver(sub.func.value)
            ):
                continue
            if guard_kinds is None:
                yield self.finding(
                    ctx,
                    sub,
                    "unguarded tracer.emit() on a hot path — wrap it in "
                    "'if tracer.wants(kind):' so disabled tracing stays free",
                )
                continue
            kind = _emit_kind(sub)
            if kind is not None and guard_kinds and kind not in guard_kinds:
                guarded = ", ".join(repr(k) for k in sorted(guard_kinds))
                yield self.finding(
                    ctx,
                    sub,
                    f"tracer.emit({kind!r}) is guarded by wants({guarded}) — "
                    "the kinds must match or subscribed records are dropped",
                )
