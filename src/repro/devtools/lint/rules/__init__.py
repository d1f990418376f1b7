"""The rule table: every rule ``repro-lint`` runs, in sorted-code order."""

from typing import Tuple

from repro.devtools.lint.registry import Rule
from repro.devtools.lint.rules.cachekeys import CacheKeyCompleteness
from repro.devtools.lint.rules.concurrency import (
    BlockingUnderLockRule,
    GuardedFieldConsistencyRule,
)
from repro.devtools.lint.rules.determinism import NoGlobalRandomness, NoWallClock
from repro.devtools.lint.rules.tracing import GuardedTracerEmit

RULES: Tuple[Rule, ...] = (
    CacheKeyCompleteness(),  # CACHE001
    GuardedFieldConsistencyRule(),  # CONC001
    BlockingUnderLockRule(),  # CONC003
    NoWallClock(),  # DET001
    NoGlobalRandomness(),  # DET002
    GuardedTracerEmit(),  # TRC001
)
