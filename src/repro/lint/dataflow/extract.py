"""The dataflow pass: attach concurrency facts to a module's facts.

Runs after base fact extraction (:func:`~repro.lint.semantic.facts.
extract_module_facts`).  For each function it builds the CFG, solves
the lock-state analysis, and distils what the RPR4xx rules need:

* every ``self.<attr>`` write with the must-held lock tokens,
* attribute reads observed under a lock (guard-ownership evidence),
* every lock acquisition with the locks already held (order edges),
* known-blocking calls executed while holding a lock,
* held-lock annotations on ordinary call sites (so the project pass
  can propagate acquisition-order edges through the call graph).
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator

from repro.lint.dataflow.cfg import Op, build_cfg
from repro.lint.dataflow.locks import (
    LOCK_CTORS,
    HeldState,
    LockModel,
    LockStateAnalysis,
    classify_blocking,
    held_tokens,
    lock_token,
    op_expressions,
)
from repro.lint.dataflow.solver import iter_op_states, solve
from repro.lint.semantic.facts import (
    AttrWriteFact,
    BlockingCallFact,
    FunctionFacts,
    LockAcquireFact,
    LockAttrFact,
    LockedReadFact,
    ModuleFacts,
)

__all__ = ["attach_concurrency_facts"]

#: Method calls that mutate their receiver in place — a call like
#: ``self._entries.pop(key)`` outside the lock races exactly like an
#: assignment would.
_MUTATORS = frozenset({
    "append", "extend", "add", "remove", "discard", "clear", "pop",
    "popitem", "update", "setdefault", "insert", "move_to_end",
})


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _self_attr(node: ast.expr) -> str | None:
    """``X`` for a one-level ``self.X`` attribute access."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _own_body_walk(node: ast.AST) -> Iterator[ast.AST]:
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _lock_ctor_kind(value: ast.expr) -> str | None:
    """``"Lock"``/``"RLock"`` when ``value`` constructs one."""
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted(value.func)
    if dotted is None:
        return None
    tail = dotted.rpartition(".")[2]
    return tail if tail in LOCK_CTORS else None


# ----------------------------------------------------------------------
# Per-function collection
# ----------------------------------------------------------------------


class _Collector:
    """Accumulates concurrency facts while replaying op states."""

    def __init__(self, model: LockModel) -> None:
        self._model = model
        self.attr_writes: list[AttrWriteFact] = []
        self.lock_acquires: list[LockAcquireFact] = []
        self.blocking_calls: list[BlockingCallFact] = []
        self.locked_reads: set[tuple[str, str]] = set()
        self.held_at_call: dict[tuple[int, int], tuple[str, ...]] = {}

    def visit(self, op: Op, held: HeldState) -> None:
        if op.kind == "enter":
            self._visit_enter(op, held)
            return
        if op.kind == "exit":
            return
        tokens = held_tokens(held)
        for child in op_expressions(op):
            if isinstance(child, ast.Call):
                self._visit_call(child, tokens)
            elif (isinstance(child, ast.Attribute)
                  and isinstance(child.ctx, ast.Load)):
                self._visit_read(child, tokens)
        if op.kind == "stmt":
            for attr, node in self._assignment_writes(op.node):
                self._record_write(attr, node, tokens)

    # -- pieces --------------------------------------------------------

    def _visit_enter(self, op: Op, held: HeldState) -> None:
        interim = held
        for item in op.node.items:
            expr = item.context_expr
            token = lock_token(expr, self._model)
            tokens = held_tokens(interim)
            if token is not None:
                self.lock_acquires.append(LockAcquireFact(
                    lock=token, lineno=expr.lineno,
                    col=expr.col_offset + 1, held=tokens))
                interim = interim | {(token,
                                      (expr.lineno, expr.col_offset))}
            else:
                # Non-lock context expressions still evaluate here —
                # ``with self._lock, open(path):`` blocks under the lock.
                for child in ast.walk(expr):
                    if isinstance(child, ast.Call):
                        self._visit_call(child, tokens)

    def _visit_call(self, call: ast.Call,
                    tokens: tuple[str, ...]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver_token = lock_token(func.value, self._model)
            if receiver_token is not None and func.attr == "acquire":
                self.lock_acquires.append(LockAcquireFact(
                    lock=receiver_token, lineno=call.lineno,
                    col=call.col_offset + 1, held=tokens))
                return
            if receiver_token is not None and func.attr == "release":
                return
            attr = _self_attr(func.value)
            if attr is not None and func.attr in _MUTATORS:
                self._record_write(attr, call, tokens)
        if tokens:
            blocking = classify_blocking(call)
            if blocking is not None:
                self.blocking_calls.append(BlockingCallFact(
                    callee=blocking, lineno=call.lineno,
                    col=call.col_offset + 1, held=tokens))
            dotted = _dotted(func)
            if dotted is not None:
                self.held_at_call[(call.lineno, call.col_offset + 1)] = \
                    tokens

    def _visit_read(self, node: ast.Attribute,
                    tokens: tuple[str, ...]) -> None:
        attr = _self_attr(node)
        if attr is None or not tokens:
            return
        if self._model.is_lock(f"self.{attr}"):
            return
        for token in tokens:
            self.locked_reads.add((attr, token))

    def _record_write(self, attr: str, node: ast.AST,
                      tokens: tuple[str, ...]) -> None:
        if self._model.is_lock(f"self.{attr}"):
            return
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0) + 1
        self.attr_writes.append(AttrWriteFact(
            attr=attr, lineno=lineno, col=col, held=tokens))

    @staticmethod
    def _assignment_writes(stmt: ast.stmt
                           ) -> Iterator[tuple[str, ast.AST]]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is None and isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    nested = _self_attr(element)
                    if nested is not None:
                        yield nested, element
                continue
            if attr is not None:
                yield attr, target


def _attach_function(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                     ff: FunctionFacts, model: LockModel) -> None:
    cfg = build_cfg(fn)
    analysis = LockStateAnalysis(model)
    collector = _Collector(model)
    for op, held in iter_op_states(cfg, analysis, solve(cfg, analysis)):
        collector.visit(op, held)
    ff.attr_writes = collector.attr_writes
    ff.locked_reads = [LockedReadFact(attr=a, lock=lk)
                       for a, lk in sorted(collector.locked_reads)]
    ff.lock_acquires = collector.lock_acquires
    ff.blocking_calls = collector.blocking_calls
    if collector.held_at_call:
        ff.calls = [
            replace(call, held_locks=collector.held_at_call.get(
                (call.lineno, call.col), ()))
            for call in ff.calls]


def _class_lock_attrs(cls: ast.ClassDef) -> list[LockAttrFact]:
    """Locks the class constructs on ``self`` in any of its methods."""
    found: dict[str, str] = {}
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in _own_body_walk(stmt):
            if not (isinstance(child, ast.Assign)
                    and len(child.targets) == 1):
                continue
            attr = _self_attr(child.targets[0])
            kind = _lock_ctor_kind(child.value)
            if attr is not None and kind is not None:
                found.setdefault(attr, kind)
    return [LockAttrFact(name=name, kind=kind)
            for name, kind in sorted(found.items())]


def attach_concurrency_facts(facts: ModuleFacts, tree: ast.Module) -> None:
    """Populate ``facts`` with the dataflow-derived concurrency fields.

    Mutates the function/class fact records in place; pairing with the
    AST relies on extraction order (one facts entry per def, in source
    order) and is double-checked by name so a mismatch degrades to
    "no concurrency facts" rather than misattribution.
    """
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            kind = _lock_ctor_kind(stmt.value)
            if kind is not None:
                facts.global_locks.append(LockAttrFact(
                    name=stmt.targets[0].id, kind=kind))
    global_names = {g.name for g in facts.global_locks}
    functions = iter(facts.functions)
    classes = iter(facts.classes)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ff = next(functions, None)
            if ff is None or ff.name != stmt.name:
                return
            _attach_function(stmt, ff, LockModel((), global_names))
        elif isinstance(stmt, ast.ClassDef):
            cf = next(classes, None)
            if cf is None or cf.name != stmt.name:
                return
            cf.lock_attrs = _class_lock_attrs(stmt)
            self_locks = {a.name for a in cf.lock_attrs}
            methods = iter(cf.methods)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    mf = next(methods, None)
                    if mf is None or mf.name != sub.name:
                        return
                    _attach_function(sub, mf,
                                     LockModel(self_locks, global_names))
