"""Per-file semantic fact extraction.

One pass over a module's AST produces a :class:`ModuleFacts` summary:
resolved imports, class shapes, and per-function records of call sites.
The dataflow pass (:mod:`repro.lint.dataflow.extract`) then attaches
the per-function lock facts, and the project index is built from the
summaries of every scanned module.

The extraction is deliberately approximate — flow-insensitive, names
as written — because the downstream analyses only need enough signal
to flag *likely* contract violations; precision is recovered by the
pragma mechanism on the rare false positive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "AttrWriteFact",
    "BlockingCallFact",
    "CallFact",
    "ClassFacts",
    "FunctionFacts",
    "ImportFact",
    "LockAcquireFact",
    "LockAttrFact",
    "LockedReadFact",
    "ModuleFacts",
    "extract_module_facts",
]


@dataclass(frozen=True)
class ImportFact:
    """One imported binding, with relative imports already resolved."""

    #: Absolute dotted module the binding comes from.
    module: str
    #: Imported symbol name, ``None`` for ``import m``, ``"*"`` for star.
    name: str | None
    #: Local binding name the module scope sees.
    alias: str


@dataclass(frozen=True)
class CallFact:
    """One call site inside a function body."""

    #: Dotted callee as written (``"helper"``, ``"mod.f"``, ``"self.m"``).
    callee: str
    lineno: int
    col: int
    #: Lock tokens must-held at the call site (dataflow pass; empty when
    #: no lock is provably held).
    held_locks: tuple[str, ...] = ()


@dataclass(frozen=True)
class LockAttrFact:
    """One lock binding: a ``threading.Lock``/``RLock`` construction."""

    #: Attribute name (``"_lock"``) or module-global binding name.
    name: str
    #: ``"Lock"`` or ``"RLock"`` — RLocks may be re-acquired reentrantly.
    kind: str


@dataclass(frozen=True)
class AttrWriteFact:
    """One write to ``self.<attr>`` (assignment, del, or mutator call)."""

    attr: str
    lineno: int
    col: int
    #: Lock tokens must-held at the write.
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class LockedReadFact:
    """A read of ``self.<attr>`` observed under a held lock.

    Guard-ownership evidence: reading an attribute inside a lock region
    declares it lock-protected just as writing it there does — the
    admission-check pattern (read ``self._closed`` under the lock,
    write it elsewhere) is exactly the race RPR401 exists to catch.
    """

    attr: str
    lock: str


@dataclass(frozen=True)
class LockAcquireFact:
    """One lock acquisition (``with lock:`` entry or ``.acquire()``)."""

    lock: str
    lineno: int
    col: int
    #: Lock tokens already must-held when this one is taken — the
    #: intra-function edges of the acquisition-order graph.
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class BlockingCallFact:
    """A known-blocking call executed while at least one lock is held."""

    callee: str
    lineno: int
    col: int
    held: tuple[str, ...] = ()


@dataclass
class FunctionFacts:
    """Summary of one function or method."""

    name: str
    #: ``"Class.method"`` for methods, the bare name for functions.
    qualname: str
    calls: list[CallFact] = field(default_factory=list)
    # -- concurrency facts (populated by the dataflow pass) ------------
    attr_writes: list[AttrWriteFact] = field(default_factory=list)
    locked_reads: list[LockedReadFact] = field(default_factory=list)
    lock_acquires: list[LockAcquireFact] = field(default_factory=list)
    blocking_calls: list[BlockingCallFact] = field(default_factory=list)


@dataclass
class ClassFacts:
    """Summary of one class definition."""

    name: str
    #: Base classes as written (dotted names; subscripts unwrapped).
    bases: list[str] = field(default_factory=list)
    methods: list[FunctionFacts] = field(default_factory=list)
    #: Locks this class constructs on ``self`` (the class *owns* them).
    lock_attrs: list[LockAttrFact] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the project index needs to know about one module."""

    path: str
    module_name: str
    imports: list[ImportFact] = field(default_factory=list)
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)
    #: Module-global lock bindings (``_LOCK = threading.Lock()``).
    global_locks: list[LockAttrFact] = field(default_factory=list)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _extract_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                      qualname: str) -> FunctionFacts:
    facts = FunctionFacts(name=node.name, qualname=qualname)
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        dotted = _dotted(child.func)
        if dotted is not None:
            facts.calls.append(CallFact(callee=dotted, lineno=child.lineno,
                                        col=child.col_offset + 1))
    return facts


def _base_name(node: ast.expr) -> str | None:
    while isinstance(node, ast.Subscript):  # Generic[...] and friends
        node = node.value
    return _dotted(node)


def _extract_class(node: ast.ClassDef) -> ClassFacts:
    facts = ClassFacts(name=node.name,
                       bases=[b for b in (_base_name(base)
                                          for base in node.bases)
                              if b is not None])
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.methods.append(
                _extract_function(stmt, f"{node.name}.{stmt.name}"))
    return facts


def _resolve_relative(module_name: str, is_package_init: bool,
                      node: ast.ImportFrom) -> str | None:
    """Absolute module an import-from targets (mirrors RPR301's logic)."""
    if node.level == 0:
        return node.module
    parts = module_name.split(".")
    cut = node.level - 1 if is_package_init else node.level
    if cut >= len(parts):
        return node.module
    base = parts[:len(parts) - cut]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def extract_module_facts(tree: ast.Module, *, path: str,
                         module_name: str) -> ModuleFacts:
    """Extract the semantic fact summary of one parsed module."""
    is_package_init = path.rsplit("/", 1)[-1] == "__init__.py"
    facts = ModuleFacts(path=path, module_name=module_name)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions.append(_extract_function(stmt, stmt.name))
        elif isinstance(stmt, ast.ClassDef):
            facts.classes.append(_extract_class(stmt))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                facts.imports.append(ImportFact(
                    module=alias.name, name=None, alias=local))
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module_name, is_package_init, node)
            if target is None:
                continue
            for alias in node.names:
                facts.imports.append(ImportFact(
                    module=target, name=alias.name,
                    alias=alias.asname or alias.name))
    return facts
