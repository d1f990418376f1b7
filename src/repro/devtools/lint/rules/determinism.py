"""DET rules: per-seed reproducibility invariants.

The simulator's results are only citable because a run is a pure function
of its :class:`~repro.scenarios.config.ScenarioConfig` (seed included).
These rules mechanise the conventions that keep it that way: simulation
code must not read wall clocks, must draw randomness only from
``repro.sim.rng`` streams, must not let set-iteration order reach the
event scheduler, and must not share mutable default arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.devtools.lint.context import FileContext, dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class NoWallClock(Rule):
    """DET001: simulation code must use ``sim.now``, never the wall clock.

    A wall-clock read is invisible nondeterminism: two runs of the same
    seed diverge by host load.  Reporting/progress code that legitimately
    measures wall time (e.g. sweep ETA estimates) should suppress with a
    justifying comment.
    """

    code = "DET001"
    name = "no-wall-clock"
    description = "wall-clock reads (time.time, datetime.now, ...) are forbidden"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {resolved}() — simulation state must "
                    "derive from sim.now / the scenario, never the host clock",
                )


# numpy.random names that construct *seedable generator machinery* rather
# than drawing from (or reseeding) the hidden module-level global state.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "RandomState",
    }
)


@register
class NoGlobalRandomness(Rule):
    """DET002: all randomness must flow through ``repro.sim.rng`` streams.

    Flags ``import random`` (the stdlib global generator) and calls into
    ``numpy.random`` module-level functions (``np.random.random``,
    ``np.random.seed``, ``np.random.default_rng``, ...).  Generator
    *types* (``np.random.Generator`` etc.) are fine: they are how seeded
    streams are built.
    """

    code = "DET002"
    name = "no-global-randomness"
    description = "stdlib random / numpy.random module-level draws are forbidden"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "import of the stdlib 'random' module — use a "
                            "seeded stream from repro.sim.rng.RandomStreams",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None and (
                    node.module == "random" or node.module.startswith("random.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "import from the stdlib 'random' module — use a "
                        "seeded stream from repro.sim.rng.RandomStreams",
                    )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if resolved is None or not resolved.startswith("numpy.random."):
                    continue
                member = resolved[len("numpy.random."):]
                if "." in member or member in _NP_RANDOM_ALLOWED:
                    continue
                detail = (
                    "an unseeded generator"
                    if member == "default_rng" and not node.args and not node.keywords
                    else "module-level numpy randomness"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{resolved}() is {detail} — all draws must flow "
                    "through repro.sim.rng.RandomStreams",
                )


def _is_set_like(node: ast.AST) -> Optional[str]:
    """A description of why ``node`` iterates in hash order, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(node, ast.Call):
        spelled = dotted_name(node.func)
        if spelled in ("set", "frozenset"):
            return f"a {spelled}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return "dict.keys()"
    return None


def _is_order_laundered(node: ast.AST) -> bool:
    """True when the iterable is explicitly ordered: ``sorted(...)``, or a
    ``list(...)``/``tuple(...)`` copy of something already sorted."""
    if not isinstance(node, ast.Call):
        return False
    spelled = dotted_name(node.func)
    if spelled == "sorted":
        return True
    if spelled in ("list", "tuple") and len(node.args) == 1:
        return _is_order_laundered(node.args[0])
    return False


# reserve_seq counts: it hands out a place in the event order even though
# the push (schedule_reserved) may come later or never.
_SCHEDULING_ATTRS = frozenset(
    {"schedule", "schedule_at", "reserve_seq", "schedule_reserved"}
)
_TIMER_TYPES = frozenset({"Timer", "PeriodicTimer"})


def _schedules_events(body: Iterable[ast.stmt]) -> Optional[ast.Call]:
    """The first scheduling/timer call inside ``body``, or None."""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SCHEDULING_ATTRS:
                    return node
                receiver = dotted_name(node.func.value) or ""
                if node.func.attr == "start" and "timer" in receiver.lower():
                    return node
            spelled = dotted_name(node.func) or ""
            if spelled.split(".")[-1] in _TIMER_TYPES:
                return node
    return None


@register
class NoUnorderedScheduling(Rule):
    """DET003: set-iteration order must never reach the event scheduler.

    Iterating a set (or ``dict.keys()`` of a hash-keyed mapping) and
    scheduling events / reserving sequence numbers / starting timers per
    element bakes hash order into the event sequence.  Wrap the iterable in
    ``sorted(...)``.
    """

    code = "DET003"
    name = "no-unordered-scheduling"
    description = "set iteration feeding Simulator.schedule/timers must be sorted"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            reason = _is_set_like(node.iter)
            if reason is None or _is_order_laundered(node.iter):
                continue
            call = _schedules_events(node.body)
            if call is None:
                continue
            yield self.finding(
                ctx,
                node,
                f"iteration over {reason} schedules events (line "
                f"{call.lineno}) — wrap the iterable in sorted(...) so "
                "event order cannot depend on hash order",
            )


_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray", "collections.defaultdict"})


def _mutable_defaults(args: ast.arguments) -> Iterator[ast.expr]:
    for default in list(args.defaults) + list(args.kw_defaults):
        if default is None:
            continue
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            yield default
        elif isinstance(default, ast.Call) and dotted_name(default.func) in _MUTABLE_CTORS:
            yield default


@register
class NoMutableDefaults(Rule):
    """DET004: no mutable default arguments.

    A mutable default is shared across every call — cross-run *and*
    cross-node state that survives between simulations in one process,
    breaking run-to-run independence.
    """

    code = "DET004"
    name = "no-mutable-defaults"
    description = "mutable default arguments ([], {}, set()) are forbidden"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            label = getattr(node, "name", "<lambda>")
            for default in _mutable_defaults(node.args):
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default argument in {label}() — one object is "
                    "shared by every call; default to None and allocate inside",
                )
