"""Text and JSON reporters over a :class:`LintResult`."""

from __future__ import annotations

import json

from repro.devtools.lint.runner import LintResult


def render_text(result: LintResult) -> str:
    lines = [finding.render() for finding in result.findings]
    lines.extend(f"error: {error}" for error in result.errors)
    noun = "file" if result.files_checked == 1 else "files"
    if result.clean:
        lines.append(f"repro-lint: {result.files_checked} {noun} checked, no findings")
    else:
        lines.append(
            f"repro-lint: {result.files_checked} {noun} checked, "
            f"{len(result.findings)} finding(s), {len(result.errors)} error(s)"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(
        {
            "files_checked": result.files_checked,
            "findings": [finding.as_dict() for finding in result.findings],
            "errors": list(result.errors),
        },
        indent=2,
        sort_keys=True,
    )

