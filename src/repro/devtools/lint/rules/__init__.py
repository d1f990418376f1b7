"""The rule table: every rule ``repro-lint`` runs, in sorted-code order."""

from typing import Tuple

from repro.devtools.lint.registry import Rule
from repro.devtools.lint.rules.concurrency import (
    BlockingUnderLockRule,
    GuardedFieldConsistencyRule,
)

RULES: Tuple[Rule, ...] = (
    GuardedFieldConsistencyRule(),  # CONC001
    BlockingUnderLockRule(),  # CONC003
)
