"""Per-file and per-project analysis context shared by all rules.

``FileContext`` bundles the parsed AST with an import-alias map so rules
can resolve an attribute chain like ``np.random.default_rng`` to its
canonical dotted name ``numpy.random.default_rng`` regardless of how the
module was imported.  ``ProjectModel`` introspects the scenario-schema
modules (``scenarios/config.py``, ``scenarios/io.py``) so the cache-key
completeness rule can compare attribute reads against the fields that
actually reach :func:`repro.scenarios.io.scenario_canonical_json`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

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
class ProjectModel:
    """What the scenario schema looks like, learned from the source tree.

    ``canonical_keys`` are the ``ScenarioConfig`` fields that reach the
    canonical JSON used for cache keys; ``derived_attrs`` are
    properties/methods (legitimate reads that are functions of the
    fields).  ``all_fields_canonical`` records whether ``scenario_to_dict``
    encodes from the dataclass's own field list — a module-level plan built
    from ``dataclasses.fields(ScenarioConfig)``, or ``dataclasses.asdict``
    — so that every field is canonical by construction.
    """

    root: Optional[Path] = None
    canonical_keys: FrozenSet[str] = frozenset()
    derived_attrs: FrozenSet[str] = frozenset()
    all_fields_canonical: bool = False

    @property
    def available(self) -> bool:
        return self.root is not None

    def allowed_attrs(self) -> FrozenSet[str]:
        return self.canonical_keys | self.derived_attrs


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError):
        return None


def _dataclass_members(tree: ast.Module, class_name: str) -> Tuple[Set[str], Set[str]]:
    """(annotated fields, defs) of ``class_name`` in a parsed module."""
    fields: Set[str] = set()
    defs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.add(stmt.name)
    return fields, defs


def _called(node: ast.Call) -> Optional[str]:
    """The function name a call spells, however imported or qualified."""
    called = dotted_name(node.func)
    return None if called is None else called.split(".")[-1]


def _field_plans(tree: ast.Module) -> Set[str]:
    """Module-level names bound to the complete ``ScenarioConfig`` field
    list: a value built from ``dataclasses.fields(ScenarioConfig)`` with no
    filtering comprehension."""
    plans: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        parts = list(ast.walk(value))
        lists_fields = any(
            isinstance(sub, ast.Call)
            and _called(sub) == "fields"
            and sub.args
            and dotted_name(sub.args[0]) == "ScenarioConfig"
            for sub in parts
        )
        filtered = any(
            isinstance(sub, ast.comprehension) and sub.ifs for sub in parts
        )
        if lists_fields and not filtered:
            plans.update(t.id for t in targets if isinstance(t, ast.Name))
    return plans


def _scenario_to_dict_keys(tree: ast.Module) -> Tuple[Set[str], bool]:
    """Keys explicitly written by ``scenario_to_dict``, and whether it
    encodes every dataclass field: by reading a field plan (see
    :func:`_field_plans`) or through ``dataclasses.asdict``."""
    keys: Set[str] = set()
    all_fields = False
    plans = _field_plans(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "scenario_to_dict"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _called(sub) == "asdict":
                all_fields = True
            if isinstance(sub, ast.Name) and sub.id in plans:
                all_fields = True
            if isinstance(sub, ast.Dict):
                for key in sub.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
    return keys, all_fields


def discover_project(start: Path) -> ProjectModel:
    """Walk up from ``start`` to the package root that holds the scenario
    schema (``scenarios/config.py`` + ``scenarios/io.py``) and model it.

    Returns an empty (``available == False``) model when no such root
    exists — rules that need the model then skip rather than guess.
    """
    start = start.resolve()
    candidates = [start] + list(start.parents)
    for candidate in candidates:
        config_py = candidate / "scenarios" / "config.py"
        io_py = candidate / "scenarios" / "io.py"
        if config_py.is_file() and io_py.is_file():
            return _model_from_root(candidate, config_py, io_py)
    return ProjectModel()


def _model_from_root(root: Path, config_py: Path, io_py: Path) -> ProjectModel:
    config_tree = _parse(config_py)
    io_tree = _parse(io_py)
    if config_tree is None or io_tree is None:
        return ProjectModel()
    fields, defs = _dataclass_members(config_tree, "ScenarioConfig")
    explicit_keys, all_fields = _scenario_to_dict_keys(io_tree)
    canonical = set(fields) if all_fields else explicit_keys & fields
    return ProjectModel(
        root=root,
        canonical_keys=frozenset(canonical),
        derived_attrs=frozenset(defs),
        all_fields_canonical=all_fields,
    )


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    path: Path
    source: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    project: ProjectModel = field(default_factory=ProjectModel)
    #: Filled on first use by :func:`repro.devtools.lint.classmodel.class_models`
    #: so the rules that read the class model build it once per file.
    class_models: Optional[List["ClassModel"]] = None

    @classmethod
    def from_source(
        cls,
        path: Path,
        source: str,
        project: Optional[ProjectModel] = None,
    ) -> "FileContext":
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=Path(path),
            source=source,
            tree=tree,
            imports=build_import_map(tree),
            project=project if project is not None else ProjectModel(),
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted origin of a Name/Attribute chain, or None.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the file did ``import numpy as np``; a chain rooted at a name
        that was never imported resolves to None (unknown — not lintable).
        """
        spelled = dotted_name(node)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    def path_parts(self) -> Tuple[str, ...]:
        return self.path.parts

    def in_dirs(self, *names: str) -> bool:
        """True if any path component matches one of ``names``."""
        parts = set(self.path_parts()[:-1])
        return any(name in parts for name in names)
