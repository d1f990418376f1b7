"""Per-file analysis context shared by all rules.

``FileContext`` bundles the parsed AST with an import-alias map so rules
can resolve an attribute chain like ``time.sleep`` to its canonical dotted
name regardless of how the module was imported (``from time import sleep``
resolves the same way).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - classmodel imports this module
    from repro.devtools.lint.classmodel import ClassModel


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted origin they were bound to.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only top-level
    and function/class-nested import statements are considered — a name
    rebound by assignment after import is beyond this resolver, which is
    fine: rules only act when resolution *succeeds*, so unknown names can
    never create a false positive.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:  # relative imports: unknown
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.AST) -> Optional[str]:
    """The source-level dotted path of a Name/Attribute chain, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    path: Path
    source: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    #: Filled on first use by :func:`repro.devtools.lint.classmodel.class_models`
    #: so the rules that read the class model build it once per file.
    class_models: Optional[List["ClassModel"]] = None

    @classmethod
    def from_source(cls, path: Path, source: str) -> "FileContext":
        tree = ast.parse(source, filename=str(path))
        return cls(path=Path(path), source=source, tree=tree, imports=build_import_map(tree))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted origin of a Name/Attribute chain, or None.

        ``sp.run`` resolves to ``subprocess.run`` when the file did
        ``import subprocess as sp``; a chain rooted at a name that was never
        imported resolves to None (unknown — not lintable).
        """
        spelled = dotted_name(node)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin
