"""Rule base class and lookups over the rule table.

The table itself is the ``RULES`` tuple in :mod:`repro.devtools.lint.rules`,
written in sorted-code order so reports are byte-stable.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import Finding


class Rule:
    """One analysis pass over a parsed file.

    Subclasses set ``code`` (stable identifier used in reports and
    suppression comments), ``name`` and ``description``, and implement
    :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` for this rule anchored at an AST node."""
        return self.finding_at(
            ctx, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message
        )

    def finding_at(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        """A :class:`Finding` at a 1-based line and 0-based column offset."""
        return Finding(
            path=str(ctx.path), line=line, col=col + 1, code=self.code, message=message
        )


def all_rules() -> List[Rule]:
    """Every rule, in sorted-code order."""
    from repro.devtools.lint.rules import RULES  # the rule modules import Rule

    return list(RULES)


def get_rule(code: str) -> Rule:
    return {rule.code: rule for rule in all_rules()}[code]


def known_codes() -> List[str]:
    return [rule.code for rule in all_rules()]
