"""The per-class lock model the concurrency rules read.

CONC001 and CONC003 (:mod:`repro.devtools.lint`) reason about a class as a
unit — which attributes are locks, which fields are written under which
lock in *any* method, which methods call which.  :func:`class_models`
builds that once per parsed file and both rules read it:

* **lock attributes** — ``self.x = threading.Lock()/RLock()/Condition()``
  or ``repro.devtools.lockdep.OrderedLock(...)``; a
  ``Condition(self.other)`` aliases the lock it wraps, so holding either
  name satisfies a guard on the other;
* **guards** — ``# guarded-by: <lock>`` comments attached to the line that
  defines a field (``self.y = ...`` or a class-level annotated field);
* **per-method facts** — attribute reads/writes with the lexically held
  lock set, blocking calls (``fsync``/``sleep``/HTTP/``subprocess``/blocking
  ``queue.get``) and the intra-class call graph (``self.m()``).

Nothing here crosses a class: the order in which *different* locks nest is
checked where it happens, by the :mod:`repro.devtools.lockdep` witness.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

#: Constructor origins recognised as lock objects, mapped to a kind tag.
LOCK_FACTORIES: Dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "repro.devtools.lockdep.OrderedLock": "ordered",
    "repro.devtools.lockdep.locks.OrderedLock": "ordered",
}

#: Calls that block the calling thread (canonical dotted origins).  Any
#: ``subprocess.*`` origin also counts, via prefix match.
BLOCKING_ORIGINS: FrozenSet[str] = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "urllib.request.urlopen",
        "socket.create_connection",
    }
)

#: Constructor origins whose instances have a blocking ``get``.
QUEUE_TYPES: FrozenSet[str] = frozenset(
    {"queue.Queue", "queue.LifoQueue", "queue.PriorityQueue", "queue.SimpleQueue"}
)

#: Method names that mutate their receiver (``self.x.append(...)`` is a
#: write to the collection ``x`` for guard purposes).
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "update",
        "pop",
        "popleft",
        "popitem",
        "setdefault",
        "clear",
        "write",
    }
)

#: Methods that may only run with the class lock already held, by the
#: codebase's naming convention; CONC001 treats their accesses as guarded.
LOCKED_SUFFIX = "_locked"

#: Methods that run before the object is shared between threads.
INIT_METHODS: FrozenSet[str] = frozenset({"__init__", "__post_init__", "__new__"})

GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")


def comment_lines(source: Union[str, bytes]) -> Dict[int, str]:
    """line -> comment text, via tokenize (strings never match).  Bytes are
    decoded as the interpreter would, coding cookie included."""
    comments: Dict[int, str] = {}
    try:
        if isinstance(source, bytes):
            tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
        else:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return comments
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments[token.start[0]] = token.string
    return comments


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


def resolve(imports: Dict[str, str], node: ast.AST) -> Optional[str]:
    """Canonical dotted origin of a Name/Attribute chain, or None.

    ``sp.run`` resolves to ``subprocess.run`` when the file did
    ``import subprocess as sp``; a chain rooted at a name that was never
    imported resolves to None (unknown — not lintable).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = imports.get(node.id)
    if origin is None:
        return None
    return ".".join([origin, *reversed(parts)])


@dataclass(frozen=True)
class LockInfo:
    """One lock-valued attribute of a class."""

    attr: str
    kind: str  # lock | rlock | condition | ordered
    line: int
    alias_of: Optional[str] = None  # Condition(self.other) aliases other
    io_lock: bool = False  # OrderedLock(..., io_lock=True)


@dataclass(frozen=True)
class Access:
    """One ``self.<attr>`` touch inside a method body."""

    attr: str
    kind: str  # read | written
    held: FrozenSet[str]  # canonical lock attrs lexically held
    line: int
    col: int


@dataclass(frozen=True)
class BlockingCall:
    """One call that blocks the thread (fsync/sleep/HTTP/...)."""

    what: str
    held: FrozenSet[str]
    line: int
    col: int


@dataclass(frozen=True)
class MethodCall:
    """A ``self.m()`` call site."""

    method: str
    held: FrozenSet[str]
    line: int
    col: int


@dataclass
class MethodModel:
    """Everything the rules need to know about one method body."""

    name: str
    line: int
    accesses: List[Access] = field(default_factory=list)
    blocking_calls: List[BlockingCall] = field(default_factory=list)
    calls: List[MethodCall] = field(default_factory=list)

    @property
    def is_init(self) -> bool:
        return self.name in INIT_METHODS

    @property
    def is_locked_helper(self) -> bool:
        return self.name.endswith(LOCKED_SUFFIX)


@dataclass
class ClassModel:
    """The concurrency-relevant shape of one class definition."""

    name: str
    locks: Dict[str, LockInfo] = field(default_factory=dict)
    guarded_by: Dict[str, str] = field(default_factory=dict)  # field -> lock attr
    #: attribute -> stdlib constructor origin (e.g. ``queue.Queue``).
    stdlib_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, MethodModel] = field(default_factory=dict)

    def canonical_lock(self, attr: str) -> Optional[str]:
        """Resolve ``attr`` to the lock it ultimately names, or None."""
        info = self.locks.get(attr)
        if info is None:
            return None
        if info.alias_of is not None and info.alias_of in self.locks:
            return info.alias_of
        return attr

    def is_io_lock(self, canonical: str) -> bool:
        for info in self.locks.values():
            if self.canonical_lock(info.attr) == canonical and info.io_lock:
                return True
        return False


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` -> ``"x"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_keyword_true(call: ast.Call, name: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg == name:
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


class _LockCollector:
    """Pass 1 over a class: find lock attrs and queue-typed attrs."""

    def __init__(self, imports: Dict[str, str], model: ClassModel) -> None:
        self.imports = imports
        self.model = model

    def collect(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_method(stmt)

    def _collect_method(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.AnnAssign):
                attr = _self_attr(node.target)
                if attr is not None and node.value is not None:
                    self._classify_value(attr, node.value, node.lineno)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                attr = _self_attr(node.targets[0])
                if attr is not None:
                    self._classify_value(attr, node.value, node.lineno)

    def _classify_value(self, attr: str, value: ast.AST, line: int) -> None:
        if not isinstance(value, ast.Call):
            return
        origin = resolve(self.imports, value.func)
        kind = LOCK_FACTORIES.get(origin) if origin is not None else None
        if kind is not None:
            alias: Optional[str] = None
            io_lock = False
            if kind == "condition" and value.args:
                wrapped = value.args[0]
                alias = _self_attr(wrapped)
                if alias is None and isinstance(wrapped, ast.Call):
                    inner = resolve(self.imports, wrapped.func)
                    if inner is not None and LOCK_FACTORIES.get(inner) == "ordered":
                        io_lock = _call_keyword_true(wrapped, "io_lock")
            if kind == "ordered":
                io_lock = _call_keyword_true(value, "io_lock")
            self.model.locks[attr] = LockInfo(
                attr=attr, kind=kind, line=line, alias_of=alias, io_lock=io_lock
            )
            return
        if origin is not None and origin in QUEUE_TYPES:
            self.model.stdlib_types.setdefault(attr, origin)


class _MethodScanner(ast.NodeVisitor):
    """Pass 2 over one method: accesses, self-calls, blocking calls."""

    def __init__(
        self, imports: Dict[str, str], model: ClassModel, method: MethodModel
    ) -> None:
        self.imports = imports
        self.model = model
        self.method = method
        self.held: Tuple[str, ...] = ()

    # -- helpers -------------------------------------------------------------

    def _held_set(self) -> FrozenSet[str]:
        return frozenset(self.held)

    def _record(self, attr: str, kind: str, node: ast.AST) -> None:
        if attr in self.model.locks:
            return  # lock objects themselves are not guarded data
        self.method.accesses.append(
            Access(
                attr=attr,
                kind=kind,
                held=self._held_set(),
                line=getattr(node, "lineno", self.method.line),
                col=getattr(node, "col_offset", 0),
            )
        )

    # -- statements ----------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            expr = item.context_expr
            attr = _self_attr(expr)
            if attr is not None and attr in self.model.locks:
                canonical = self.model.canonical_lock(attr)
                if canonical is not None:
                    acquired.append(canonical)
                continue
            self.visit(expr)
            if item.optional_vars is not None:
                self._visit_target(item.optional_vars)
        before = self.held
        self.held = before + tuple(acquired)
        for stmt in node.body:
            self.visit(stmt)
        self.held = before

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._visit_target(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._visit_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit_target(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._visit_target(target)

    # -- expressions ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        handled_func = False
        if isinstance(func, ast.Attribute):
            receiver_attr = _self_attr(func.value)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                # self.m(...): intra-class call.
                self.method.calls.append(
                    MethodCall(
                        method=func.attr,
                        held=self._held_set(),
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
                handled_func = True
            elif receiver_attr is not None:
                # self.attr.m(...): a touch of attr.
                kind = "written" if func.attr in MUTATOR_METHODS else "read"
                self._record(receiver_attr, kind, func.value)
                self._check_queue_get(node, receiver_attr, func.attr)
                handled_func = True
        if not handled_func:
            origin = resolve(self.imports, func)
            if origin is not None and (
                origin in BLOCKING_ORIGINS or origin.startswith("subprocess.")
            ):
                self.method.blocking_calls.append(
                    BlockingCall(
                        what=origin,
                        held=self._held_set(),
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _check_queue_get(self, node: ast.Call, attr: str, method: str) -> None:
        if method != "get" or self.model.stdlib_types.get(attr) not in QUEUE_TYPES:
            return
        # q.get() blocks unless block=False or a non-None timeout is given.
        blocking = True
        if node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value is False:
                blocking = False
        for keyword in node.keywords:
            if keyword.arg == "block":
                if isinstance(keyword.value, ast.Constant) and not keyword.value.value:
                    blocking = False
            if keyword.arg == "timeout":
                if not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                ):
                    blocking = False
        if blocking:
            self.method.blocking_calls.append(
                BlockingCall(
                    what=f"{attr}.get() without timeout",
                    held=self._held_set(),
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, ast.Load):
                self._record(attr, "read", node)
            else:
                self._record(attr, "written", node)
            return
        self.generic_visit(node)

    def _visit_target(self, target: ast.AST) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, "written", target)
            return
        if isinstance(target, ast.Subscript):
            inner = _self_attr(target.value)
            if inner is not None:
                # self.d[k] = v mutates the container bound to d.
                self._record(inner, "written", target.value)
            else:
                self.visit(target.value)
            self.visit(target.slice)
            return
        if isinstance(target, ast.Attribute):
            inner = _self_attr(target.value)
            if inner is not None:
                # self.obj.field = v mutates the object bound to obj.
                self._record(inner, "written", target.value)
                return
            self.visit(target.value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element)
            return
        if isinstance(target, ast.Starred):
            self._visit_target(target.value)
            return
        self.visit(target)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs (callbacks) run later, possibly without the lock;
        # scan them with an empty held set.
        before = self.held
        self.held = ()
        for stmt in node.body:
            self.visit(stmt)
        self.held = before

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        before = self.held
        self.held = ()
        self.visit(node.body)
        self.held = before


def _attach_guards(
    model: ClassModel, node: ast.ClassDef, comments: Dict[int, str]
) -> None:
    """Bind ``# guarded-by: <lock>`` comments to the fields whose
    defining assignment shares the line."""
    def guard_on(line: int) -> Optional[str]:
        match = GUARDED_BY.search(comments.get(line, ""))
        return match.group("lock") if match else None

    for sub in ast.walk(node):
        attr: Optional[str] = None
        if isinstance(sub, ast.AnnAssign):
            attr = _self_attr(sub.target)
            if attr is None and isinstance(sub.target, ast.Name):
                attr = sub.target.id
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            attr = _self_attr(sub.targets[0])
        if attr is None:
            continue
        lock = guard_on(sub.lineno)
        if lock is None:
            continue
        canonical = model.canonical_lock(lock) or lock
        model.guarded_by.setdefault(attr, canonical)


def _build_class(
    imports: Dict[str, str], node: ast.ClassDef, comments: Dict[int, str]
) -> ClassModel:
    model = ClassModel(name=node.name)
    _LockCollector(imports, model).collect(node)
    _attach_guards(model, node, comments)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = MethodModel(name=stmt.name, line=stmt.lineno)
            scanner = _MethodScanner(imports, model, method)
            for sub in stmt.body:
                scanner.visit(sub)
            model.methods[stmt.name] = method
    return model


def class_models(tree: ast.Module, comments: Dict[int, str]) -> List[ClassModel]:
    """The models of the module's top-level classes, in source order."""
    imports = build_import_map(tree)
    return [
        _build_class(imports, node, comments)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]
