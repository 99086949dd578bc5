"""The lock-state lattice: which locks are *must-held* at each point.

The state is a frozenset of ``(lock_token, region)`` pairs — the lock
expression as written (``"self._lock"``, ``"_REGISTRY_LOCK"``) plus the
source position of the acquisition that opened the current region.
Carrying the region, not just the token, keeps the join conservative:
two different acquisitions of one lock on two incoming paths do not
merge into a single held region.

The join is set intersection: a lock is held at a merge point only if
it is held on *every* incoming path (must-analysis).  That also makes
the ``with``-desugaring approximation in :mod:`~repro.lint.dataflow.
cfg` safe — an acquisition that escapes a ``with`` body through an
early ``return`` edge dies at the first join with a lock-free path.

Lock recognition combines declared knowledge (attributes assigned
``threading.Lock()``/``RLock()`` in the class, module globals bound to
lock constructors) with a naming heuristic (the final path segment
contains ``lock``), so test fixtures and factory-created locks behave
without declarations.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.dataflow.cfg import Op

__all__ = ["LockModel", "LockStateAnalysis", "HeldState", "Region",
           "LOCK_CTORS", "held_tokens", "lock_token", "op_expressions",
           "classify_blocking"]

#: Source position of the acquisition opening a lock region.
Region = tuple[int, int]

#: The lattice element: must-held ``(token, region)`` pairs.
HeldState = frozenset

#: Constructor tails recognised as lock factories.
LOCK_CTORS = frozenset({"Lock", "RLock"})

#: Method tails that block regardless of receiver.
_BLOCKING_ANY = frozenset({"sleep", "urlopen", "result", "wait",
                           "read_text", "write_text", "read_bytes",
                           "write_bytes"})

#: Bare-name calls that block (I/O).
_BLOCKING_BARE = frozenset({"open", "urlopen", "sleep"})

#: Receiver substrings marking ``.join()`` as a thread join (and not
#: ``str.join``/``os.path.join``).
_THREADY = ("thread", "worker", "proc", "pool")


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class LockModel:
    """Decides which expressions denote locks in one function's scope."""

    def __init__(self, self_locks: Iterable[str] = (),
                 global_locks: Iterable[str] = ()) -> None:
        #: ``self.<attr>`` tokens of declared class-owned locks.
        self.self_tokens = {f"self.{name}" for name in self_locks}
        #: Module-global lock binding names.
        self.global_names = set(global_locks)

    def is_lock(self, token: str) -> bool:
        """Whether a dotted token denotes a lock object."""
        if token in self.self_tokens or token in self.global_names:
            return True
        tail = token.rpartition(".")[2]
        return "lock" in tail.lower()


def lock_token(node: ast.expr, model: LockModel) -> str | None:
    """The lock token of an expression, or ``None`` if it is not one."""
    dotted = _dotted(node)
    if dotted is not None and model.is_lock(dotted):
        return dotted
    return None


def held_tokens(state: HeldState) -> tuple[str, ...]:
    """The sorted lock tokens of a held-state (regions dropped)."""
    return tuple(sorted({token for token, _ in state}))


def _own_expr_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested defs."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Lambda)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def op_expressions(op: Op) -> Iterator[ast.AST]:
    """The AST region an op evaluates (what transfer functions scan)."""
    node = op.node
    if op.kind == "stmt":
        yield from _own_expr_walk(node)
    elif op.kind == "test":
        yield from _own_expr_walk(node.test)
    elif op.kind == "for":
        yield from _own_expr_walk(node.iter)
    # "enter"/"exit" context expressions are handled structurally.


class LockStateAnalysis:
    """Forward must-analysis over the lock-region lattice."""

    def __init__(self, model: LockModel) -> None:
        self.model = model

    def initial(self) -> HeldState:
        """Nothing is held at function entry."""
        return frozenset()

    def join(self, states: list[HeldState]) -> HeldState:
        """Intersect: a lock is held only if held on *every* path."""
        result = states[0]
        for state in states[1:]:
            result = result & state
        return result

    def transfer(self, op: Op, state: HeldState) -> HeldState:
        """Apply ``op``'s acquire/release effects to ``state``."""
        if op.kind == "enter":
            for item in op.node.items:
                token = lock_token(item.context_expr, self.model)
                if token is not None:
                    expr = item.context_expr
                    state = state | {(token,
                                      (expr.lineno, expr.col_offset))}
            return state
        if op.kind == "exit":
            released = {lock_token(item.context_expr, self.model)
                        for item in op.node.items}
            released.discard(None)
            return frozenset(pair for pair in state
                             if pair[0] not in released)
        for child in op_expressions(op):
            if not (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)):
                continue
            token = lock_token(child.func.value, self.model)
            if token is None:
                continue
            if child.func.attr == "acquire":
                state = state | {(token,
                                  (child.lineno, child.col_offset))}
            elif child.func.attr == "release":
                state = frozenset(pair for pair in state
                                  if pair[0] != token)
        return state


def classify_blocking(call: ast.Call) -> str | None:
    """Rendered callee when ``call`` is a known blocking operation.

    The catalogue is deliberately narrow — sleeps, future/thread waits,
    queue gets, file and HTTP I/O — because a false "blocking" tag on a
    cheap call makes every held-lock region noisy.
    """
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in _BLOCKING_BARE:
            return func.id
        return None
    if not isinstance(func, ast.Attribute):
        return None
    dotted = _dotted(func)
    rendered = dotted if dotted is not None else f"<expr>.{func.attr}"
    tail = func.attr
    if tail in _BLOCKING_ANY:
        return rendered
    receiver = _dotted(func.value)
    receiver_lower = (receiver or "").lower()
    if tail == "get" and "queue" in receiver_lower:
        return rendered
    if tail == "join" and any(k in receiver_lower for k in _THREADY):
        return rendered
    return None
