"""DET rules: per-seed reproducibility invariants.

The simulator's results are only citable because a run is a pure function
of its :class:`~repro.scenarios.config.ScenarioConfig` (seed included).
These rules mechanise the conventions that keep it that way: simulation
code must not read wall clocks and must draw randomness only from
``repro.sim.rng`` streams.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule

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
