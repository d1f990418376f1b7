"""``repro-lint``: AST-based determinism & lock-discipline analyzer.

The simulator's reproducibility guarantees (seeded streams only, no wall
clock, guarded hot-path tracing, complete cache keys) and the service's
lock discipline live in conventions; this package turns six of them into
machine-checked rules, each a pass over one parsed file.  See
``docs/architecture.md`` ("Invariants and what guards them") for the
table of invariants, the guard each one has and the audit behind the
rule list.

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
