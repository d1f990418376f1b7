"""Every ``--flag`` a doc tells the reader to type must exist.

Shell examples in ``README.md`` and ``docs/*.md`` are parsed out of their
fenced blocks and each long option quoted for one of this package's
commands is looked up in that command's real argparse parser (descending
into sub-commands), so a recipe cannot outlive — or precede — its flag.
"""

import argparse
import re
import shlex
from pathlib import Path

from repro import cli as run_cli
from repro.devtools import lint
from repro.obs import tracecli
from repro.service import cli as service_cli
from repro.service import worker as worker_cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

PARSERS = {
    "repro-run": run_cli._build_parser,
    "repro-serve": service_cli._build_serve_parser,
    "repro-submit": service_cli._build_submit_parser,
    "repro-worker": worker_cli._build_parser,
    "repro-trace": tracecli._build_parser,
    "repro-lint": lint.build_parser,
}
#: ``python -m <module> [<sub-command>]`` spellings of the same commands.
MODULES = {
    ("repro.cli",): "repro-run",
    ("repro.service.cli", "serve"): "repro-serve",
    ("repro.service.cli", "submit"): "repro-submit",
    ("repro.service.cli", "worker"): "repro-worker",
    ("repro.service.worker",): "repro-worker",
    ("repro.obs.tracecli",): "repro-trace",
    ("repro.devtools.lint",): "repro-lint",
}

FENCE = re.compile(r"^```(\w*)\s*$")
SHELL_FENCES = {"sh", "bash", "console"}


def shell_lines(path):
    """``(line_number, command_line)`` for every command in a shell fence,
    backslash continuations joined; console fences count ``$ `` lines only."""
    language = None
    start, text = 0, None
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        fence = FENCE.match(line)
        if fence:
            language = fence.group(1) if language is None else None
            text = None
            continue
        if language not in SHELL_FENCES:
            continue
        if text is None:
            if language == "console" and not line.startswith("$ "):
                continue
            start, text = number, ""
        text += line.removeprefix("$ ")
        if text.endswith("\\"):
            text = text[:-1] + " "
            continue
        yield start, text
        text = None


def commands(tokens):
    """Split a token list at shell operators into simple commands."""
    current = []
    for token in tokens:
        if token in ("|", "&&", "||", ";"):
            yield current
            current = []
        else:
            current.append(token)
    yield current


def locate(command):
    """``(command name, its argument tokens)`` or ``None`` for foreign commands."""
    for index, token in enumerate(command):
        if token in PARSERS:
            return token, command[index + 1 :]
        if token == "-m":
            for spelling, name in MODULES.items():
                if tuple(command[index + 1 : index + 1 + len(spelling)]) == spelling:
                    return name, command[index + 1 + len(spelling) :]
    return None


def unknown_flags(parser, args):
    """Long options in ``args`` the parser (or the sub-command in use) lacks."""
    missing = []
    for token in args:
        if token.startswith("--"):
            if token.split("=", 1)[0] not in parser._option_string_actions:
                missing.append(token)
            continue
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction) and token in action.choices:
                parser = action.choices[token]
    return missing


def quoted_invocations():
    for path in DOCS:
        for number, line in shell_lines(path):
            try:
                tokens = shlex.split(line, comments=True)
            except ValueError:
                continue  # prose inside a fence, not a command line
            for command in commands(tokens):
                located = locate(command)
                if located is not None:
                    yield f"{path.relative_to(ROOT)}:{number}", located[0], located[1]


INVOCATIONS = list(quoted_invocations())


def test_the_docs_quote_every_command():
    """Guards the extraction itself: a parser change that made it find
    nothing would make the flag check vacuous."""
    assert {name for _, name, _ in INVOCATIONS} == set(PARSERS)


def test_quoted_flags_exist():
    problems = [
        f"{where}: {name} has no {' '.join(missing)}"
        for where, name, args in INVOCATIONS
        if (missing := unknown_flags(PARSERS[name](), args))
    ]
    assert problems == []
