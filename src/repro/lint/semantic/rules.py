"""Interprocedural rules running on the project index.

These rules implement only the ``finish_project`` hook: the engine
hands them a :class:`~repro.lint.engine.ProjectContext` carrying the
:class:`~repro.lint.semantic.index.ProjectIndex`, and they report
through it (pragmas and baseline apply exactly as for syntactic rules).

Every finding is attributed to a file whose *import closure* determines
it — the call site, the surface method's return, the iteration site —
never to a file merely reached through the graph.  That invariant is
what makes transitive cache invalidation along the import graph sound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.lint.registry import Rule, register
from repro.lint.semantic.facts import (
    FunctionFacts,
    ModuleFacts,
    ReturnFact,
)
from repro.lint.semantic.index import ProjectIndex

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import ProjectContext

__all__ = [
    "FeatureDtypeDriftRule",
    "FeatureShapeContractRule",
    "GeneratorThreadingRule",
    "UnorderedIterationRule",
]

#: ``(module facts, enclosing class name or None, function facts)``.
_FunctionSite = tuple[ModuleFacts, "str | None", FunctionFacts]


def _function_sites(index: ProjectIndex) -> Iterable[_FunctionSite]:
    """Every function in the index with its module and enclosing class."""
    for mf in index.modules.values():
        for fn in mf.functions:
            yield mf, None, fn
        for cls in mf.classes:
            for method in cls.methods:
                yield mf, cls.name, method


def _module_in(module_name: str, prefixes: Iterable[str]) -> bool:
    return any(module_name == p or module_name.startswith(p + ".")
               for p in prefixes)


def _function_key(mf: ModuleFacts, fn: FunctionFacts) -> tuple[str, str]:
    return (mf.module_name, fn.qualname)


@register
class GeneratorThreadingRule(Rule):
    """A seeded ``np.random.Generator`` must thread intact through the
    call graph: any call that reaches a stochastic project function must
    pass a generator explicitly.  This is the cross-file completion of
    RPR201/RPR202 — those catch the draw site, this catches the caller
    that silently drops the seed at a module boundary.
    """

    code = "RPR203"
    name = "generator-threading"
    summary = "Calls reaching stochastic code must pass a Generator"
    example_bad = 'def fit(self, data):\n    train(data)  # train() draws randomness internally'
    example_good = 'def fit(self, data, rng):\n    train(data, rng=rng)'

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag call sites into generator-requiring functions."""
        index = project.index
        requiring = self._requiring_functions(index)
        if not requiring:
            return
        for mf, class_name, fn in _function_sites(index):
            for call in fn.calls:
                if call.passes_generator:
                    continue
                resolved = index.resolve_call(mf.module_name, call.callee,
                                              enclosing_class=class_name)
                if resolved is None:
                    continue
                target_key = _function_key(resolved[0], resolved[1])
                if target_key in requiring:
                    project.report(
                        self.code, mf.path, call.lineno, call.col,
                        f"call to `{call.callee}` reaches stochastic "
                        f"`{resolved[0].module_name}."
                        f"{resolved[1].qualname}` without an explicit "
                        "np.random.Generator argument; thread a seeded "
                        "Generator through this call")

    @staticmethod
    def _requiring_functions(index: ProjectIndex) -> set[tuple[str, str]]:
        """Fixed point: functions whose determinism needs a caller's rng.

        Base case: a required (no-default) generator parameter and a
        direct draw from a generator value.  Propagation: a required
        generator parameter forwarded into another requiring function.
        """
        sites = list(_function_sites(index))
        requiring: set[tuple[str, str]] = {
            _function_key(mf, fn) for mf, _, fn in sites
            if fn.generator_required and fn.draws_generator}
        changed = True
        while changed:
            changed = False
            for mf, class_name, fn in sites:
                key = _function_key(mf, fn)
                if key in requiring or not fn.generator_required:
                    continue
                for call in fn.calls:
                    if not call.passes_generator:
                        continue
                    resolved = index.resolve_call(
                        mf.module_name, call.callee,
                        enclosing_class=class_name)
                    if resolved is not None and \
                            _function_key(*resolved) in requiring:
                        requiring.add(key)
                        changed = True
                        break
        return requiring


class _SurfaceReturnsRule(Rule):
    """Shared traversal: transitive returns of featurize surfaces.

    Subclasses check the resolved :class:`ReturnFact` leaves of every
    featurize-surface method.  Findings always anchor at the surface's
    *own* return statement, so they live in a file that imports
    everything the verdict depends on.
    """

    #: Module prefixes owning the feature-emission surface.
    module_prefixes = ("repro.featurize",)
    #: Surface method name -> expected emitted array rank.
    surface_ranks = {"featurize": 1, "_featurize_compiled": 2,
                     "featurize_batch": 2}

    def _surface_sites(self, index: ProjectIndex) -> Iterable[
            tuple[ModuleFacts, "str | None", FunctionFacts, int]]:
        for mf, class_name, fn in _function_sites(index):
            if not _module_in(mf.module_name, self.module_prefixes):
                continue
            expected = self.surface_ranks.get(fn.name)
            if expected is not None:
                yield mf, class_name, fn, expected

    def _resolved_leaves(self, index: ProjectIndex, mf: ModuleFacts,
                         class_name: "str | None", fn: FunctionFacts,
                         ) -> Iterable[tuple[ReturnFact, ReturnFact, str]]:
        """``(surface return, leaf return, via)`` triples for a surface.

        ``leaf`` is the transitively-resolved classification the surface
        return ultimately produces; ``via`` names the callee chain for
        the message (empty for direct returns).
        """
        for surface_return in fn.returns:
            for leaf, via in self._chase(index, mf, class_name,
                                         surface_return, frozenset(), ""):
                yield surface_return, leaf, via

    def _chase(self, index: ProjectIndex, mf: ModuleFacts,
               class_name: "str | None", ret: ReturnFact,
               seen: frozenset, via: str) -> Iterable[tuple[ReturnFact,
                                                            str]]:
        if ret.kind != "call" or ret.callee is None:
            yield ret, via
            return
        resolved = index.resolve_call(mf.module_name, ret.callee,
                                      enclosing_class=class_name)
        if resolved is None:
            yield ret, via
            return
        target_mf, target_fn = resolved
        key = (target_mf.module_name, target_fn.qualname)
        if key in seen or len(seen) >= 8:
            return
        hop = f"{via} -> {ret.callee}()" if via else f"via {ret.callee}()"
        target_class = target_fn.qualname.rpartition(".")[0] or None
        for inner in target_fn.returns:
            yield from self._chase(index, target_mf, target_class, inner,
                                   seen | {key}, hop)


@register
class FeatureDtypeDriftRule(_SurfaceReturnsRule):
    """Feature matrices decode exactly (Definition 3.1) only at float64;
    a helper two modules away returning float32 silently halves the
    mantissa of every encoded bound.  This rule propagates numpy dtype
    facts through the call graph and flags any featurize surface whose
    emitted dtype drifts below float64.
    """

    code = "RPR106"
    name = "feature-dtype-drift"
    summary = "Featurize surfaces must emit float64 feature matrices"
    example_bad = 'def featurize(self, query):\n    return np.zeros(8, dtype=np.float32)'
    example_good = 'def featurize(self, query):\n    return np.zeros(8)  # numpy defaults to float64'

    _NARROW = frozenset({"float32", "float16"})

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag featurize surfaces that transitively emit narrow floats."""
        index = project.index
        for mf, class_name, fn, _ in self._surface_sites(index):
            for surface_return, leaf, via in self._resolved_leaves(
                    index, mf, class_name, fn):
                if leaf.dtype in self._NARROW:
                    suffix = f" ({via})" if via else ""
                    project.report(
                        self.code, mf.path, surface_return.lineno,
                        surface_return.col,
                        f"{fn.qualname}() emits {leaf.dtype}{suffix}; "
                        "feature matrices must stay float64 for exact "
                        "decoding (Def. 3.1)")


@register
class FeatureShapeContractRule(_SurfaceReturnsRule):
    """Scalar featurize surfaces emit ``(feature_length,)`` vectors and
    batch kernels emit ``(n, feature_length)`` matrices; a rank mismatch
    means the kernel's output cannot line up with ``feature_length`` at
    all.  Rank facts propagate through the call graph like dtypes.
    """

    code = "RPR107"
    name = "feature-shape-contract"
    summary = "Featurize surfaces must emit the contracted array rank"
    example_bad = 'def featurize_batch(self, queries):\n    return np.zeros(8)  # rank 1; the batch contract is rank 2'
    example_good = 'def featurize_batch(self, queries):\n    return np.zeros((len(queries), 8))'

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag featurize surfaces returning the wrong array rank."""
        index = project.index
        for mf, class_name, fn, expected in self._surface_sites(index):
            for surface_return, leaf, via in self._resolved_leaves(
                    index, mf, class_name, fn):
                if leaf.rank is not None and leaf.rank != expected:
                    contract = ("(feature_length,) vector" if expected == 1
                                else "(n, feature_length) matrix")
                    suffix = f" ({via})" if via else ""
                    project.report(
                        self.code, mf.path, surface_return.lineno,
                        surface_return.col,
                        f"{fn.qualname}() emits a rank-{leaf.rank} "
                        f"array{suffix} but the batch contract requires "
                        f"a {contract}")


@register
class UnorderedIterationRule(Rule):
    """Iterating a ``set`` decides feature-emission order by string-hash
    seed: two processes emit differently-ordered features for the same
    query, which breaks Equation 4 bitwise.  The cross-file case — a
    helper in another module returning a set that a featurize loop
    consumes — is invisible to per-file rules, so this one resolves
    iteration sources through the call graph.
    """

    code = "RPR204"
    name = "unordered-iteration"
    summary = "No set-ordered iteration in feature-emission code"
    example_bad = 'for name in {c.name for c in columns}:\n    emit(name)'
    example_good = 'for name in sorted({c.name for c in columns}):\n    emit(name)'

    #: Packages whose iteration order reaches feature emission.
    module_prefixes = ("repro.featurize", "repro.workloads")

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag hash-ordered iteration inside feature-emission modules."""
        index = project.index
        set_returners = self._set_returning(index)
        for mf, class_name, fn in _function_sites(index):
            if not _module_in(mf.module_name, self.module_prefixes):
                continue
            for iteration in fn.iterations:
                reason = None
                if iteration.kind == "set":
                    reason = "is a set"
                elif iteration.kind == "call" and iteration.callee:
                    resolved = index.resolve_call(
                        mf.module_name, iteration.callee,
                        enclosing_class=class_name)
                    if resolved is not None and \
                            _function_key(*resolved) in set_returners:
                        reason = (f"calls `{resolved[0].module_name}."
                                  f"{resolved[1].qualname}` which "
                                  "returns a set")
                if reason is not None:
                    project.report(
                        self.code, mf.path, iteration.lineno,
                        iteration.col,
                        f"iteration over `{iteration.rendered}` {reason}; "
                        "set order is hash-seed dependent and flows into "
                        "feature-emission order — sort first")

    @staticmethod
    def _set_returning(index: ProjectIndex) -> set[tuple[str, str]]:
        """Fixed point of functions that (transitively) return a set."""
        sites = list(_function_sites(index))
        returning: set[tuple[str, str]] = {
            _function_key(mf, fn) for mf, _, fn in sites
            if any(r.kind == "set" for r in fn.returns)}
        changed = True
        while changed:
            changed = False
            for mf, class_name, fn in sites:
                key = _function_key(mf, fn)
                if key in returning:
                    continue
                for ret in fn.returns:
                    if ret.kind != "call" or ret.callee is None:
                        continue
                    resolved = index.resolve_call(
                        mf.module_name, ret.callee,
                        enclosing_class=class_name)
                    if resolved is not None and \
                            _function_key(*resolved) in returning:
                        returning.add(key)
                        changed = True
                        break
        return returning
