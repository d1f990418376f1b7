"""The ``repro-lint`` command line interface.

Exit codes: 0 — clean; 1 — findings (or unparsable files); 2 — usage
errors (unknown rule codes, missing paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.devtools.lint.registry import all_rules, known_codes
from repro.devtools.lint.report import render_json, render_text
from repro.devtools.lint.runner import lint_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _parse_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    from repro.version import __version__

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based lock-discipline analyzer for the repro codebase.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to run"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated rule codes to skip"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return EXIT_CLEAN

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    valid = set(known_codes())
    for requested in (select or []) + (ignore or []):
        if requested not in valid:
            print(
                f"repro-lint: error: unknown rule code {requested!r} "
                f"(known: {', '.join(sorted(valid))})",
                file=sys.stderr,
            )
            return EXIT_USAGE

    missing = [path for path in args.paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"repro-lint: error: no such path: {path}", file=sys.stderr)
        return EXIT_USAGE

    result = lint_paths(args.paths, select=select, ignore=ignore)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
