"""CACHE001: cache-key completeness for the sweep result cache.

The sweep cache (PR 2) keys results by a canonical JSON encoding of the
full :class:`~repro.scenarios.config.ScenarioConfig`.  That is only sound
if every configuration attribute that *influences* an analysis also
*reaches* the canonical encoding — a field read by ``analysis/`` or
``paper.py`` but missing from ``scenario_canonical_json`` would let two
different experiments share a cache entry.

The rule introspects ``scenarios/config.py`` and ``scenarios/io.py`` (via
:func:`repro.devtools.lint.context.discover_project`) to learn which
fields are canonical, then flags:

* attribute reads ``config.<name>`` on scenario-config values (names
  annotated ``ScenarioConfig`` or conventionally named ``config`` /
  ``cfg`` / ``scenario``) where ``<name>`` is neither a canonical field
  nor a property/method derived from them;
* string keys in ``payload[...]`` / ``payload.get(...)`` reads of
  scenario payload dicts that name no canonical field (the payload dict
  is ``scenario_to_dict`` output, so a stale key silently reads nothing).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule

_CONFIG_NAMES = frozenset({"config", "cfg", "scenario"})
_PAYLOAD_NAMES = frozenset({"payload"})


def _annotated_config_names(tree: ast.Module) -> Set[str]:
    """Names annotated as ScenarioConfig anywhere in the module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        annotation = None
        target = None
        if isinstance(node, ast.arg):
            annotation, target = node.annotation, node.arg
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation, target = node.annotation, node.target.id
        if annotation is None or target is None:
            continue
        spelled = ast.unparse(annotation).replace('"', "").replace("'", "")
        # Exact scalar annotations only: a Sequence[ScenarioConfig] binds a
        # collection, not a config, and its methods are not field reads.
        if spelled in ("ScenarioConfig", "Optional[ScenarioConfig]", "ScenarioConfig | None"):
            names.add(target)
    return names


class CacheKeyCompleteness(Rule):
    code = "CACHE001"
    name = "cache-key-completeness"
    description = (
        "ScenarioConfig reads in analysis//paper.py must be canonical-JSON fields"
    )

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.in_dirs("analysis") or ctx.path.name == "paper.py"
        ) and ctx.project.available

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = ctx.project.allowed_attrs()
        canonical = ctx.project.canonical_keys
        config_names = _CONFIG_NAMES | _annotated_config_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = node.value.id
                if name not in config_names or name == "self":
                    continue
                attr = node.attr
                if attr.startswith("__") or attr in allowed:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"'{name}.{attr}' reads a ScenarioConfig attribute that "
                    "is not part of scenario_canonical_json — the result "
                    "cache cannot distinguish runs that differ in it",
                )
            elif isinstance(node, ast.Subscript):
                key = self._payload_key(node.value, node.slice)
                if key is not None and key not in canonical and key != "dsr":
                    yield self.finding(
                        ctx,
                        node,
                        f"payload[{key!r}] names no canonical scenario field "
                        "— stale key after a schema change?",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
            ):
                key = self._payload_key(node.func.value, node.args[0])
                if key is not None and key not in canonical and key != "dsr":
                    yield self.finding(
                        ctx,
                        node,
                        f"payload.get({key!r}) names no canonical scenario "
                        "field — stale key after a schema change?",
                    )

    @staticmethod
    def _payload_key(receiver: ast.expr, key: ast.expr) -> "str | None":
        if not (isinstance(receiver, ast.Name) and receiver.id in _PAYLOAD_NAMES):
            return None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        return None
