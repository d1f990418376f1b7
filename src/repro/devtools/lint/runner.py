"""File discovery and rule dispatch: every selected rule over every file,
one parse per file, suppression comments applied per file."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, all_rules
from repro.devtools.lint.suppressions import Suppressions

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache"})


@dataclass
class LintResult:
    """Findings plus the bookkeeping one lint invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)  # unreadable/unparsable files

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS & set(candidate.parts)
            )
        else:
            found.append(path)
    return sorted(set(found))


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = {code.upper() for code in select}
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore:
        unwanted = {code.upper() for code in ignore}
        rules = [rule for rule in rules if rule.code not in unwanted]
    return rules


def _check_file(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Findings of ``rules`` over one file, minus the ones it suppresses."""
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return Suppressions(ctx.source).filter(findings)


def lint_source(
    source: str,
    path: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory module; raises ``SyntaxError`` on unparsable input."""
    ctx = FileContext.from_source(path, source)
    return sorted(_check_file(ctx, rules if rules is not None else all_rules()))


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every python file under ``paths``."""
    rules = select_rules(select, ignore)
    result = LintResult()
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            source = file_path.read_text()
        except OSError as exc:
            result.errors.append(f"{file_path}: unreadable: {exc}")
            continue
        try:
            ctx = FileContext.from_source(file_path, source)
        except SyntaxError as exc:
            result.errors.append(
                f"{file_path}: syntax error: {exc.msg} (line {exc.lineno})"
            )
            continue
        result.findings.extend(_check_file(ctx, rules))
        result.files_checked += 1
    result.findings.sort()
    return result
