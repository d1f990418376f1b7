"""``repro-lint``: AST-based lock-discipline analyzer.

The service's lock discipline lives in conventions; this package turns two
of them into machine-checked rules, each a pass over one parsed file:
CONC001 (a guarded field is accessed under its lock) and CONC003 (nothing
blocks under a non-io lock).  The simulator's determinism, its guarded
hot-path tracing and its complete cache keys are checked on behaviour by
tests instead.  See ``docs/architecture.md`` ("Invariants and what guards
them") for the table of invariants, the guard each one has and the
mutation-recall table behind the rule list.

Programmatic use::

    from repro.devtools.lint import lint_paths
    result = lint_paths([Path("src/repro")])
    assert result.clean, [f.render() for f in result.findings]

Command line::

    repro-lint src/repro
    python -m repro.devtools.lint --list-rules
"""

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, all_rules, known_codes
from repro.devtools.lint.runner import LintResult, lint_paths, lint_source

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "known_codes",
    "lint_paths",
    "lint_source",
]
