"""The project index: symbol resolution, class ancestry, call graph.

Built once per run from the per-file :class:`~repro.lint.semantic.facts.
ModuleFacts` summaries, the index answers the cross-module questions
the concurrency rules ask:

* *symbol resolution* — what does a name in a module refer to,
  following ``from x import y`` chains and package re-exports;
* *class ancestry* — a class and its project ancestors, for inherited
  locks and methods;
* *call graph* — approximate resolution of call sites to project
  functions, including ``self.method`` dispatch and constructor calls;
* *lock-order graph* — which locks are taken while which are held,
  directly or through resolved calls.

Resolution is best-effort: anything the index cannot resolve (builtins,
third-party calls, dynamic dispatch) is simply invisible to the
analyses, which keeps them quiet rather than wrong.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.graph import strongly_connected_components
from repro.lint.semantic.facts import ClassFacts, FunctionFacts, ModuleFacts

__all__ = ["ProjectIndex", "ResolvedSymbol", "LockOrderGraph"]

#: Maximum re-export chain length followed during symbol resolution.
_MAX_CHASE = 16


class ResolvedSymbol:
    """What a name in a module resolves to within the project."""

    #: ``"function"``, ``"class"``, or ``"module"``.
    kind: str

    def __init__(self, kind: str, module: ModuleFacts | None,
                 function: FunctionFacts | None = None,
                 cls: ClassFacts | None = None) -> None:
        self.kind = kind
        #: Module the symbol is defined in (the target for ``module``).
        self.module = module
        #: Function facts when ``kind == "function"``.
        self.function = function
        #: Class facts when ``kind == "class"``.
        self.cls = cls


class ProjectIndex:
    """Cross-module resolution structures built from module facts."""

    def __init__(self, facts: Iterable[ModuleFacts]) -> None:
        #: Module facts keyed by dotted module name.
        self.modules: dict[str, ModuleFacts] = {}
        for mf in facts:
            self.modules[mf.module_name] = mf
        #: bare class name -> [(module facts, class facts)] definitions.
        self.classes_by_name: dict[str, list[tuple[ModuleFacts,
                                                   ClassFacts]]] = {}
        for mf in self.modules.values():
            for cls in mf.classes:
                self.classes_by_name.setdefault(cls.name, []).append(
                    (mf, cls))

    # ------------------------------------------------------------------
    # symbol resolution

    def _project_module(self, dotted: str) -> str | None:
        """Longest known project module matching ``dotted`` (or prefix)."""
        name = dotted
        while name:
            if name in self.modules:
                return name
            name = name.rpartition(".")[0]
        return None

    def resolve_symbol(self, module_name: str,
                       name: str) -> ResolvedSymbol | None:
        """Resolve a (possibly dotted) name in a module's global scope."""
        head, _, rest = name.partition(".")
        symbol = self._resolve_binding(module_name, head)
        while symbol is not None and rest:
            head, _, rest = rest.partition(".")
            if symbol.kind == "module" and symbol.module is not None:
                symbol = self._resolve_binding(
                    symbol.module.module_name, head)
            elif symbol.kind == "class" and symbol.cls is not None:
                method = self._find_method(symbol.module, symbol.cls, head)
                if method is None or rest:
                    return None
                return ResolvedSymbol("function", symbol.module,
                                      function=method)
            else:
                return None
        return symbol

    def _resolve_binding(self, module_name: str, name: str,
                         _depth: int = 0) -> ResolvedSymbol | None:
        if _depth > _MAX_CHASE:
            return None
        mf = self.modules.get(module_name)
        if mf is None:
            return None
        for function in mf.functions:
            if function.name == name:
                return ResolvedSymbol("function", mf, function=function)
        for cls in mf.classes:
            if cls.name == name:
                return ResolvedSymbol("class", mf, cls=cls)
        star_targets: list[str] = []
        for imp in mf.imports:
            if imp.name == "*":
                star_targets.append(imp.module)
                continue
            if imp.alias != name:
                continue
            if imp.name is None:
                target = self._project_module(imp.module)
                if target is not None:
                    return ResolvedSymbol("module", self.modules[target])
                return None
            target = self._project_module(imp.module)
            if target is None:
                return None
            return self._resolve_binding(target, imp.name, _depth + 1)
        for target_module in star_targets:
            target = self._project_module(target_module)
            if target is not None:
                symbol = self._resolve_binding(target, name, _depth + 1)
                if symbol is not None:
                    return symbol
        submodule = f"{module_name}.{name}"
        if submodule in self.modules:
            return ResolvedSymbol("module", self.modules[submodule])
        return None

    # ------------------------------------------------------------------
    # class hierarchy

    def resolve_base(self, module: ModuleFacts,
                     base: str) -> tuple[ModuleFacts, ClassFacts] | None:
        """Resolve a base-class name as written in a class statement.

        Import-based resolution first; when that fails, fall back to a
        unique bare-name match across the project (mirroring the
        pre-index behaviour of the Featurizer-surface rule).
        """
        symbol = self.resolve_symbol(module.module_name, base)
        if symbol is not None and symbol.kind == "class" \
                and symbol.cls is not None and symbol.module is not None:
            return symbol.module, symbol.cls
        bare = base.rpartition(".")[2]
        candidates = self.classes_by_name.get(bare, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def iter_ancestry(self, module: ModuleFacts, cls: ClassFacts
                      ) -> Iterator[tuple[ModuleFacts, ClassFacts]]:
        """The class and its project ancestors, nearest first."""
        queue: list[tuple[ModuleFacts, ClassFacts]] = [(module, cls)]
        seen: set[tuple[str, str]] = set()
        while queue:
            mf, current = queue.pop(0)
            key = (mf.module_name, current.name)
            if key in seen:
                continue
            seen.add(key)
            yield mf, current
            for base in current.bases:
                resolved = self.resolve_base(mf, base)
                if resolved is not None:
                    queue.append(resolved)

    # ------------------------------------------------------------------
    # call graph

    def _find_method(self, module: ModuleFacts | None, cls: ClassFacts,
                     name: str) -> FunctionFacts | None:
        if module is None:
            return None
        for mf, current in self.iter_ancestry(module, cls):
            for method in current.methods:
                if method.name == name:
                    return method
        return None

    def resolve_call(self, module_name: str, callee: str,
                     enclosing_class: str | None = None
                     ) -> tuple[ModuleFacts, FunctionFacts] | None:
        """Resolve a call site to a project function, best effort.

        ``callee`` is the dotted name as written (``"helper"``,
        ``"mod.helper"``, ``"self.method"``, ``"Cls"``); constructor
        calls resolve to the class's ``__init__``.  Returns ``None`` for
        anything outside the project or not statically resolvable.
        """
        mf = self.modules.get(module_name)
        if mf is None:
            return None
        head, _, rest = callee.partition(".")
        if head in ("self", "cls") and enclosing_class is not None:
            if not rest or "." in rest:
                return None
            for cls in mf.classes:
                if cls.name == enclosing_class:
                    method = self._find_method(mf, cls, rest)
                    if method is not None:
                        owner = self._method_owner(mf, cls, rest)
                        return owner if owner is not None else (mf, method)
            return None
        symbol = self.resolve_symbol(module_name, callee)
        if symbol is None or symbol.module is None:
            return None
        if symbol.kind == "function" and symbol.function is not None:
            return symbol.module, symbol.function
        if symbol.kind == "class" and symbol.cls is not None:
            init = self._find_method(symbol.module, symbol.cls, "__init__")
            if init is not None:
                return symbol.module, init
        return None

    def _method_owner(self, module: ModuleFacts, cls: ClassFacts,
                      name: str) -> tuple[ModuleFacts, FunctionFacts] | None:
        for mf, current in self.iter_ancestry(module, cls):
            for method in current.methods:
                if method.name == name:
                    return mf, method
        return None

    # ------------------------------------------------------------------
    # lock ownership (the RPR4xx substrate)

    def function_sites(self) -> Iterator[tuple[ModuleFacts, "str | None",
                                               FunctionFacts]]:
        """Every function with its module and enclosing class name."""
        for mf in self.modules.values():
            for fn in mf.functions:
                yield mf, None, fn
            for cls in mf.classes:
                for method in cls.methods:
                    yield mf, cls.name, method

    def class_lock_attrs(self, module: ModuleFacts,
                         cls: ClassFacts) -> dict[str, str]:
        """Lock attribute name -> kind, inherited locks included."""
        locks: dict[str, str] = {}
        for _, current in self.iter_ancestry(module, cls):
            for lock in current.lock_attrs:
                locks.setdefault(lock.name, lock.kind)
        return locks

    def guarded_attrs(self, module: ModuleFacts,
                      cls: ClassFacts) -> dict[str, set[str]]:
        """Attribute name -> owning lock attribute names.

        An attribute is *guarded* by a class-owned lock when any method
        in the class (or an ancestor) touches it — write or read — while
        must-holding ``self.<lock>``.  ``__init__`` is excluded: the
        constructor runs before the object is shared, so its unlocked
        writes are not ownership evidence against the lock.
        """
        locks = self.class_lock_attrs(module, cls)
        guards: dict[str, set[str]] = {}
        for _, current in self.iter_ancestry(module, cls):
            for method in current.methods:
                if method.name == "__init__":
                    continue
                for write in method.attr_writes:
                    for token in write.held:
                        self._note_guard(guards, write.attr, token, locks)
                for read in method.locked_reads:
                    self._note_guard(guards, read.attr, read.lock, locks)
        return guards

    @staticmethod
    def _note_guard(guards: dict[str, set[str]], attr: str, token: str,
                    locks: dict[str, str]) -> None:
        prefix, _, lock_name = token.rpartition(".")
        if prefix == "self" and lock_name in locks:
            guards.setdefault(attr, set()).add(lock_name)

    def canonical_lock(self, module: ModuleFacts,
                       class_name: "str | None",
                       token: str) -> "str | None":
        """Project-wide identity of a lock token seen in ``module``.

        ``self._lock`` in class ``C`` of module ``m`` becomes
        ``"m.C._lock"``; a module-global ``_LOCK`` becomes
        ``"m._LOCK"``, following one ``from x import _LOCK`` hop.
        Deeper attribute chains (``self._service._lock``) cannot be
        typed statically and map to ``None`` (invisible to the graph).
        """
        if token.startswith("self.") or token.startswith("cls."):
            rest = token.partition(".")[2]
            if "." in rest or class_name is None:
                return None
            return f"{module.module_name}.{class_name}.{rest}"
        head, _, rest = token.partition(".")
        if not rest:
            for imp in module.imports:
                if imp.alias == head and imp.name is not None \
                        and imp.name != "*":
                    target = self._project_module(imp.module)
                    if target is not None:
                        return f"{target}.{imp.name}"
            return f"{module.module_name}.{head}"
        for imp in module.imports:
            if imp.alias != head or "." in rest:
                continue
            if imp.name is None:
                target = self._project_module(imp.module)
                if target is not None:
                    return f"{target}.{rest}"
            elif imp.name != "*":
                # ``from pkg import submodule`` binds a module object;
                # ``head.rest`` is then that module's global.
                candidate = f"{imp.module}.{imp.name}"
                if candidate in self.modules:
                    return f"{candidate}.{rest}"
        return None

    def lock_kinds(self) -> dict[str, str]:
        """Canonical lock id -> ``"Lock"``/``"RLock"`` for declared locks."""
        kinds: dict[str, str] = {}
        for mf in self.modules.values():
            for lock in mf.global_locks:
                kinds[f"{mf.module_name}.{lock.name}"] = lock.kind
            for cls in mf.classes:
                for lock in cls.lock_attrs:
                    kinds[f"{mf.module_name}.{cls.name}.{lock.name}"] = \
                        lock.kind
        return kinds

    def lock_order_graph(self) -> "LockOrderGraph":
        """The project-wide lock-acquisition-order graph.

        Nodes are canonical lock identities; an edge ``A -> B`` records
        an acquisition of ``B`` somewhere while ``A`` is must-held —
        directly in one function, or through a call chain (a call made
        under ``A`` into a function that transitively acquires ``B``).
        A cycle means two threads can wait on each other forever.
        """
        sites = [(mf, class_name, fn)
                 for mf, class_name, fn in self.function_sites()]
        key_of = {(mf.module_name, fn.qualname): (mf, class_name, fn)
                  for mf, class_name, fn in sites}
        # Fixed point: locks each function acquires, transitively
        # through resolvable project calls.
        acquired: dict[tuple[str, str], set[str]] = {}
        resolved_calls: dict[tuple[str, str],
                             list[tuple[tuple[str, str], object]]] = {}
        for mf, class_name, fn in sites:
            key = (mf.module_name, fn.qualname)
            acquired[key] = {
                canon for canon in
                (self.canonical_lock(mf, class_name, acq.lock)
                 for acq in fn.lock_acquires)
                if canon is not None}
            calls = []
            for call in fn.calls:
                target = self.resolve_call(mf.module_name, call.callee,
                                           enclosing_class=class_name)
                if target is None:
                    continue
                target_key = (target[0].module_name, target[1].qualname)
                if target_key in key_of:
                    calls.append((target_key, call))
            resolved_calls[key] = calls
        changed = True
        while changed:
            changed = False
            for key, calls in resolved_calls.items():
                for target_key, _ in calls:
                    missing = acquired[target_key] - acquired[key]
                    if missing:
                        acquired[key] |= missing
                        changed = True
        graph = LockOrderGraph()
        graph.kinds = self.lock_kinds()
        for mf, class_name, fn in sites:
            for acq in fn.lock_acquires:
                target = self.canonical_lock(mf, class_name, acq.lock)
                if target is None:
                    continue
                for held in acq.held:
                    source = self.canonical_lock(mf, class_name, held)
                    if source is not None:
                        graph.add_edge(source, target, mf.path,
                                       acq.lineno, acq.col, via=None)
            key = (mf.module_name, fn.qualname)
            for target_key, call in resolved_calls[key]:
                if not call.held_locks:
                    continue
                for target in sorted(acquired[target_key]):
                    for held in call.held_locks:
                        source = self.canonical_lock(mf, class_name, held)
                        if source is not None:
                            graph.add_edge(
                                source, target, mf.path,
                                call.lineno, call.col, via=call.callee)
        return graph


class LockOrderGraph:
    """Canonical lock nodes, ordered acquisition edges, edge sites."""

    def __init__(self) -> None:
        #: source lock -> set of locks acquired while holding it.
        self.edges: dict[str, set[str]] = {}
        #: (source, target) -> [(path, lineno, col, via)].
        self.sites: dict[tuple[str, str],
                         list[tuple[str, int, int, "str | None"]]] = {}
        #: canonical lock id -> declared kind (``Lock``/``RLock``).
        self.kinds: dict[str, str] = {}

    def add_edge(self, source: str, target: str, path: str,
                 lineno: int, col: int, via: "str | None") -> None:
        """Record "``target`` acquired while ``source`` held" at a site."""
        if source == target:
            # Re-acquiring a lock you hold only deadlocks when it is a
            # declared non-reentrant Lock; RLocks and undeclared
            # (heuristic) locks stay quiet.
            if self.kinds.get(source, "") != "Lock":
                return
        self.edges.setdefault(source, set()).add(target)
        self.sites.setdefault((source, target), []).append(
            (path, lineno, col, via))

    def cycles(self) -> list[list[str]]:
        """Strongly connected components with a cycle, sorted.

        Each entry is the sorted list of lock ids in one SCC of size
        ``>= 2``, or a single lock with a self-edge.
        """
        self_looped = {source for source, targets in self.edges.items()
                       if source in targets}
        return sorted(
            sorted(component)
            for component in strongly_connected_components(self.edges)
            if len(component) > 1 or component <= self_looped)

    def cycle_edges(self, component: list[str]
                    ) -> list[tuple[str, str]]:
        """Graph edges with both endpoints inside ``component``."""
        members = set(component)
        return sorted(
            (source, target)
            for source, targets in self.edges.items()
            if source in members
            for target in targets if target in members)
