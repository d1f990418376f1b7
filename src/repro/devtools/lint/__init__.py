"""``repro-lint``: AST-based lock-discipline analyzer.

The service's lock discipline lives in conventions; this module turns two
of them into machine-checked rules over the per-class model of
:mod:`repro.devtools.lint.classmodel` (each class of a file as a unit: its
lock attributes, what every method touches with which locks lexically
held, and which methods call which):

* **CONC001 guarded-field consistency** — a field written under
  ``with self.<lock>`` in one method (or annotated ``# guarded-by:
  <lock>`` at its definition) must hold that lock at *every* access
  outside ``__init__``.  Methods named ``*_locked`` are the documented
  "caller holds the lock" convention and are exempt.
* **CONC003 blocking call under lock** — ``fsync``/``fdatasync``,
  ``time.sleep``, ``subprocess.*``, socket/HTTP I/O and blocking
  ``queue.get()`` must not run while a lock is held, unless the held
  lock is a declared ``io_lock`` leaf (serialising exactly that I/O is
  its job).  Propagates one class deep: calling ``self.m()`` under a
  lock is flagged when ``m`` (transitively) blocks.

The order in which different locks nest is not checked here: every lock
in the tree is a ranked ``OrderedLock`` and the
:mod:`repro.devtools.lockdep` witness checks the ranks on every real
acquisition.  The simulator's determinism, its guarded hot-path tracing and
its complete cache keys are checked on behaviour by tests instead; see
``docs/architecture.md`` ("Invariants and what guards them").

A finding is suppressed by a comment on its own line naming its code,
followed by a justification::

    self._mode = mode  # repro-lint: disable=CONC001 -- set once before start()

Programmatic use::

    from repro.devtools.lint import lint_paths
    result = lint_paths([Path("src/repro")])
    assert result.clean, [f.render() for f in result.findings]

Command line (exit 0: clean; 1: findings or unreadable/unparsable files;
2: usage error)::

    repro-lint src/repro
    python -m repro.devtools.lint src/repro/service
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.devtools.lint.classmodel import ClassModel, class_models, comment_lines

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache"})

#: ``# repro-lint: disable=CODE[,CODE...]``; the codes end at the first
#: word that is not one, where the justification starts.
_CODE = r"[A-Za-z]+[0-9]+\b"
_DISABLE = re.compile(rf"#\s*repro-lint:\s*disable\s*=\s*({_CODE}(?:\s*,\s*{_CODE})*)")

#: One rule's output before it is bound to a file and code: line, 0-based
#: column, message.
Hit = Tuple[int, int, str]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    Ordering is ``(path, line, col, code)`` so reports are stable across
    runs and dict/set intermediates.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintResult:
    """Findings plus the bookkeeping one lint invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)  # unreadable/unparsable files

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def render(self) -> str:
        """The text report: one line per finding and error, then a summary."""
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {error}" for error in self.errors)
        noun = "file" if self.files_checked == 1 else "files"
        if self.clean:
            lines.append(f"repro-lint: {self.files_checked} {noun} checked, no findings")
        else:
            lines.append(
                f"repro-lint: {self.files_checked} {noun} checked, "
                f"{len(self.findings)} finding(s), {len(self.errors)} error(s)"
            )
        return "\n".join(lines)


# -- the rules ----------------------------------------------------------------


def _field_guards(model: ClassModel) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, str]]:
    """field -> lock set that guards it, plus a provenance note."""
    guards: Dict[str, FrozenSet[str]] = {}
    origin: Dict[str, str] = {}
    for attr, lock in model.guarded_by.items():
        guards[attr] = frozenset({lock})
        origin[attr] = f"declared '# guarded-by: {lock}'"
    class_locks = {model.canonical_lock(name) for name in model.locks} - {None}
    for method_name in sorted(model.methods):
        method = model.methods[method_name]
        if method.is_init:
            continue
        for access in method.accesses:
            if access.kind != "written" or access.attr in guards:
                continue
            held_class_locks = frozenset(lock for lock in access.held if lock in class_locks)
            if held_class_locks:
                guards[access.attr] = held_class_locks
                origin[access.attr] = (
                    f"written under it in {method_name}() at line {access.line}"
                )
    return guards, origin


def _locks(held: FrozenSet[str], sep: str) -> str:
    return sep.join(f"self.{name}" for name in sorted(held))


def conc001(model: ClassModel) -> List[Hit]:
    """Guarded-field consistency: every access to a guarded field outside
    ``__init__`` and ``*_locked`` helpers holds one of its guard locks."""
    guards, origin = _field_guards(model)
    hits: List[Hit] = []
    for method_name in sorted(model.methods):
        method = model.methods[method_name]
        if method.is_init or method.is_locked_helper:
            continue
        for access in method.accesses:
            guard_set = guards.get(access.attr)
            if guard_set and not access.held & guard_set:
                hits.append((
                    access.line,
                    access.col,
                    f"{model.name}.{access.attr} is {access.kind} without "
                    f"holding {_locks(guard_set, ' or ')} ({origin[access.attr]})",
                ))
    return hits


def _transitive_blockers(model: ClassModel) -> Dict[str, str]:
    """method -> description of a blocking call it (transitively) performs
    *outside* any lock (in-lock sites are flagged at the site itself)."""
    blocks: Dict[str, str] = {}
    for name, method in model.methods.items():
        for call in method.blocking_calls:
            if not call.held:
                blocks.setdefault(name, call.what)
    changed = True
    while changed:
        changed = False
        for name, method in model.methods.items():
            if name in blocks:
                continue
            for self_call in method.calls:
                if self_call.held:
                    continue
                inherited = blocks.get(self_call.method)
                if inherited:
                    blocks[name] = inherited
                    changed = True
                    break
    return blocks


def conc003(model: ClassModel) -> List[Hit]:
    """Blocking call under a non-io lock, directly, in a ``*_locked``
    helper, or through a ``self.m()`` that blocks."""

    def non_io(held: FrozenSet[str]) -> FrozenSet[str]:
        return frozenset(lock for lock in held if not model.is_io_lock(lock))

    blocks = _transitive_blockers(model)
    hits: List[Hit] = []
    for method_name in sorted(model.methods):
        method = model.methods[method_name]
        if method.is_init:
            continue
        where = f"{model.name}.{method_name}()"
        for call in method.blocking_calls:
            held = non_io(call.held)
            if held:
                hits.append((
                    call.line,
                    call.col,
                    f"blocking call {call.what} while holding {_locks(held, ', ')} in {where}",
                ))
            elif not call.held and method.is_locked_helper:
                hits.append((
                    call.line,
                    call.col,
                    f"blocking call {call.what} in {where}, which by the "
                    "*_locked convention runs with the class lock held",
                ))
        for self_call in method.calls:
            held = non_io(self_call.held)
            blocked = blocks.get(self_call.method)
            if held and blocked:
                hits.append((
                    self_call.line,
                    self_call.col,
                    f"call to self.{self_call.method}() while holding "
                    f"{_locks(held, ', ')}; it performs blocking {blocked} ({where})",
                ))
    return hits


# -- the driver -----------------------------------------------------------------


def _disabled(comments: Dict[int, str]) -> Dict[int, Set[str]]:
    """line -> the codes its ``# repro-lint: disable=`` comment suppresses."""
    disabled: Dict[int, Set[str]] = {}
    for line, comment in comments.items():
        match = _DISABLE.search(comment)
        if match:
            disabled[line] = {code.strip().upper() for code in match.group(1).split(",")}
    return disabled


def lint_source(source: Union[str, bytes], path: Path) -> List[Finding]:
    """Both rules over one module's text or bytes, minus the findings it
    suppresses; raises ``SyntaxError`` on unparsable or undecodable input."""
    tree = ast.parse(source, filename=str(path))
    comments = comment_lines(source)
    disabled = _disabled(comments)
    findings = [
        Finding(path=str(path), line=line, col=col + 1, code=code, message=message)
        for model in class_models(tree, comments)
        if model.locks
        for code, rule in (("CONC001", conc001), ("CONC003", conc003))
        for line, col, message in rule(model)
        if code not in disabled.get(line, ())
    ]
    return sorted(findings)


def _python_files(paths: Sequence[Path]) -> List[Path]:
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


def lint_paths(paths: Sequence[Path]) -> LintResult:
    """Lint every python file under ``paths``."""
    result = LintResult()
    for file_path in _python_files([Path(p) for p in paths]):
        try:
            # Bytes, so ast.parse decodes them as the interpreter would.
            source = file_path.read_bytes()
        except OSError as exc:
            result.errors.append(f"{file_path}: unreadable: {exc}")
            continue
        try:
            result.findings.extend(lint_source(source, file_path))
        except SyntaxError as exc:
            result.errors.append(f"{file_path}: syntax error: {exc.msg} (line {exc.lineno})")
            continue
        result.files_checked += 1
    result.findings.sort()
    return result


def build_parser() -> argparse.ArgumentParser:
    from repro.version import __version__

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based lock-discipline analyzer for the repro codebase.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not path.exists()]
    for path in missing:
        print(f"repro-lint: error: no such path: {path}", file=sys.stderr)
    if missing:
        return 2
    result = lint_paths(args.paths)
    print(result.render())
    return 0 if result.clean else 1
