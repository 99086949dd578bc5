"""RPR1xx — correctness rules.

These catch constructs that are legal python but are bugs waiting to
happen in an estimator codebase: shared mutable defaults, exact float
comparison against literals, exception handlers that swallow everything,
and featurizers that silently miss part of the abstract surface.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.registry import Rule, register

__all__ = ["MutableDefaultRule", "FloatEqualityRule", "BroadExceptRule",
           "FeaturizerSurfaceRule", "AdHocTimingRule",
           "MetricNameDriftRule", "SubprocessWithoutDrainRule"]

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict",
                      "Counter", "OrderedDict", "deque"}


@register
class MutableDefaultRule(Rule):
    """A mutable default is evaluated once and shared across calls."""

    code = "RPR101"
    name = "mutable-default-argument"
    summary = "Default argument values must be immutable"
    example_bad = 'def append(item, acc=[]):\n    acc.append(item)\n    return acc'
    example_good = 'def append(item, acc=None):\n    if acc is None:\n        acc = []\n    acc.append(item)\n    return acc'

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          module: ModuleContext) -> None:
        """Check the defaults of a function definition."""
        self._check(node, module)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               module: ModuleContext) -> None:
        """Check the defaults of an async function definition."""
        self._check(node, module)

    def _check(self, node, module: ModuleContext) -> None:
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    module, default,
                    f"mutable default `{ast.unparse(default)}` in "
                    f"{node.name}() is shared across calls; default to "
                    "None and construct inside the body")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            return name in _MUTABLE_FACTORIES
        return False


@register
class FloatEqualityRule(Rule):
    """Exact ``==``/``!=`` against a float literal is representation-
    dependent for computed values.  Vectorized partition-membership tests
    on constructed 0/1 arrays are the legitimate exception — annotate
    those with ``# repro: ignore[RPR102]``.
    """

    code = "RPR102"
    name = "float-literal-equality"
    summary = "No exact ==/!= against float scalar literals"
    example_bad = 'if weight == 0.1:\n    skip()'
    example_good = 'if math.isclose(weight, 0.1):\n    skip()'

    def visit_Compare(self, node: ast.Compare,
                      module: ModuleContext) -> None:
        """Flag ==/!= chains with a float literal on either side."""
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            literal = next((side for side in pair
                            if self._is_float_literal(side)), None)
            if literal is not None:
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self.report(
                    module, node,
                    f"exact `{symbol} {ast.unparse(literal)}` float "
                    "comparison; use math.isclose/np.isclose, or add "
                    "`# repro: ignore[RPR102]` for vectorized "
                    "membership tests on constructed arrays")

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is float


@register
class BroadExceptRule(Rule):
    """Bare/broad handlers swallow contract violations the featurization
    stack raises on purpose (``LosslessnessError``, shape asserts)."""

    code = "RPR103"
    name = "broad-except"
    summary = "No bare `except:` or swallowed `except Exception:`"
    example_bad = 'try:\n    run()\nexcept Exception:\n    pass'
    example_good = 'try:\n    run()\nexcept OSError as error:\n    log.warning("run failed: %s", error)\n    raise'

    _BROAD = {"Exception", "BaseException"}

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            module: ModuleContext) -> None:
        """Flag bare handlers and non-re-raising broad handlers."""
        if node.type is None:
            self.report(module, node,
                        "bare `except:` catches everything including "
                        "KeyboardInterrupt; name the exception types")
            return
        broad = sorted(self._BROAD & set(self._exception_names(node.type)))
        if broad and not self._reraises(node):
            self.report(
                module, node,
                f"`except {broad[0]}:` without re-raise swallows contract "
                "violations; catch specific exceptions or re-raise")

    @staticmethod
    def _exception_names(node: ast.expr) -> Iterable[str]:
        candidates = node.elts if isinstance(node, ast.Tuple) else [node]
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                yield candidate.id
            elif isinstance(candidate, ast.Attribute):
                yield candidate.attr

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(child, ast.Raise) and child.exc is None
                   for child in ast.walk(handler))


@register
class FeaturizerSurfaceRule(Rule):
    """Every concrete ``Featurizer`` subclass must implement the full
    abstract surface declared in ``featurize/base.py``.  A partial
    implementation inherits ``abc``'s *instantiation-time* failure, which
    a model-training run only hits long after import.

    Runs on the project index (class hierarchy from cached fact shards),
    so unchanged files need no AST for the check to cover them.
    """

    code = "RPR104"
    name = "featurizer-abstract-surface"
    summary = "Concrete Featurizer subclasses implement all abstract methods"
    example_bad = 'class BitmapFeaturizer(Featurizer):\n    def featurize(self, query):\n        ...\n    # feature_names() left unimplemented'
    example_good = 'class BitmapFeaturizer(Featurizer):\n    def featurize(self, query):\n        ...\n    def feature_names(self):\n        ...'

    #: Root class whose abstract surface is enforced.
    root_class = "Featurizer"

    def finish_project(self, project: ProjectContext) -> None:
        """Check every transitive Featurizer subclass in the project."""
        index = project.index
        required: set[str] = set()
        for _, root in index.classes_by_name.get(self.root_class, []):
            required.update(root.abstract_names)
        if not required:
            return
        for mf, cls in index.subclasses_of(self.root_class):
            if cls.abstract_names:
                continue  # itself abstract: an intermediate base class
            provided = self._provided_names(index, mf, cls)
            missing = sorted(required - provided)
            if missing:
                project.report(
                    self.code, mf.path, cls.lineno, cls.col,
                    f"concrete Featurizer subclass {cls.name} is missing "
                    f"abstract member(s) {', '.join(missing)} required "
                    "by featurize/base.py")

    @staticmethod
    def _provided_names(index, mf, cls) -> set[str]:
        """Concrete members defined by ``cls`` or any project ancestor."""
        provided: set[str] = set()
        for _, current in index.iter_ancestry(mf, cls):
            abstract = set(current.abstract_names)
            provided.update(m.name for m in current.methods
                            if m.name not in abstract)
            provided.update(current.assigned_names)
        return provided


@register
class AdHocTimingRule(Rule):
    """Pipeline code must measure time through ``repro.obs`` spans, not
    direct clock reads.  Ad-hoc ``time.perf_counter()`` pairs produce
    numbers nothing can export, nest, or attribute to a stage — and they
    quietly diverge from the trace a ``--trace`` run records.  Only the
    observability layer itself and the benchmark harness (which times
    the uninstrumented path on purpose) read the clock directly.
    """

    code = "RPR108"
    name = "ad-hoc-timing"
    summary = "Time pipeline stages with repro.obs spans, not raw clocks"
    example_bad = 'start = time.perf_counter()\nencode(batch)\nelapsed = time.perf_counter() - start'
    example_good = 'with obs.span("featurize.encode"):\n    encode(batch)'

    #: Module prefix the rule applies to.
    module_prefix = "repro"
    #: Module prefixes allowed to read clocks directly.
    exempt_prefixes = ("repro.obs", "repro.bench")
    #: ``time`` module members that read a clock.
    _CLOCKS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns",
    })

    @staticmethod
    def _covered(module_name: str, prefix: str) -> bool:
        return (module_name == prefix
                or module_name.startswith(prefix + "."))

    def begin_module(self, module: ModuleContext) -> None:
        """Prescan imports: ``time`` aliases and clock names it exports."""
        self._applies = (
            self._covered(module.module_name, self.module_prefix)
            and not any(self._covered(module.module_name, prefix)
                        for prefix in self.exempt_prefixes))
        self._time_aliases: set[str] = set()
        self._clock_names: dict[str, str] = {}
        if not self._applies:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self._time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in self._CLOCKS:
                            local = alias.asname or alias.name
                            self._clock_names[local] = alias.name

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        """Flag direct clock reads (``time.perf_counter()`` and kin)."""
        if not self._applies:
            return
        clock = self._clock_call(node)
        if clock is not None:
            self.report(
                module, node,
                f"ad-hoc `{clock}()` timing; wrap the stage in an "
                "obs.span(...) / @obs.trace so the measurement reaches "
                "traces and metrics (or `# repro: ignore[RPR108]` for "
                "deliberate raw-clock use)")

    def _clock_call(self, node: ast.Call) -> str | None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self._time_aliases
                and func.attr in self._CLOCKS):
            return f"{func.value.id}.{func.attr}"
        if isinstance(func, ast.Name) and func.id in self._clock_names:
            return func.id
        return None


@register
class MetricNameDriftRule(Rule):
    """Metric and span names are the join keys of the whole telemetry
    stack: the ``/metrics`` JSON, the Prometheus exposition (which maps
    ``serve.request.seconds`` to ``serve_request_seconds``), trace
    summaries, dashboards, and alert expressions all select series by
    these strings.  A name built at the call site — an f-string, a
    concatenation, a ``.format(...)`` — fragments one logical series
    into many (or silently creates a new one on a typo), and nothing
    can grep for where a dashboard's series comes from.  Names must be
    **dotted lowercase literals** at the call site, or a plain variable
    holding one resolved up front (as ``serve/cache.py`` does in
    ``__init__``).  ``repro.obs`` itself is exempt — it is the layer
    that manipulates names.
    """

    code = "RPR110"
    name = "metric-name-drift"
    summary = "Obs metric/span names must be dotted-lowercase literals"
    example_bad = 'obs.get_registry().counter(f"serve.cache.{kind}").inc()'
    example_good = 'obs.get_registry().counter("serve.cache.hits").inc()'

    #: Module prefix the rule applies to.
    module_prefix = "repro"
    #: Module prefixes allowed to construct names dynamically.
    exempt_prefixes = ("repro.obs",)
    #: Obs API methods whose first argument is a metric/span name.
    _NAME_METHODS = frozenset({"span", "trace", "counter", "gauge",
                               "histogram", "slo"})
    #: Keyword arguments that also carry metric names on those calls.
    _NAME_KEYWORDS = frozenset({"name", "metric"})
    _NAME_PATTERN = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
    #: Node types that mean "assembled at the call site".
    _DYNAMIC = (ast.JoinedStr, ast.BinOp, ast.Call)

    @staticmethod
    def _covered(module_name: str, prefix: str) -> bool:
        return (module_name == prefix
                or module_name.startswith(prefix + "."))

    def begin_module(self, module: ModuleContext) -> None:
        """Decide whether this module is subject to the rule."""
        self._applies = (
            self._covered(module.module_name, self.module_prefix)
            and not any(self._covered(module.module_name, prefix)
                        for prefix in self.exempt_prefixes))

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        """Check the name argument(s) of obs metric/span calls."""
        if not self._applies:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in self._NAME_METHODS):
            return
        candidates: list[ast.expr] = []
        if node.args:
            candidates.append(node.args[0])
        candidates.extend(
            keyword.value for keyword in node.keywords
            if keyword.arg in self._NAME_KEYWORDS)
        for value in candidates:
            self._check_name(value, func.attr, module)

    def _check_name(self, value: ast.expr, method: str,
                    module: ModuleContext) -> None:
        if isinstance(value, ast.Constant):
            if (isinstance(value.value, str)
                    and not self._NAME_PATTERN.match(value.value)):
                self.report(
                    module, value,
                    f"metric/span name {value.value!r} passed to "
                    f".{method}(...) is not dotted lowercase "
                    "([a-z0-9_] segments joined by '.'); series names "
                    "must be stable join keys across metrics, traces, "
                    "and the Prometheus exposition")
            return
        if isinstance(value, self._DYNAMIC):
            self.report(
                module, value,
                f"metric/span name passed to .{method}(...) is built "
                "dynamically at the call site; use a dotted-lowercase "
                "string literal, or resolve the name into a plain "
                "variable up front (see serve/cache.py) so series "
                "stay grep-able and stable")


@register
class SubprocessWithoutDrainRule(Rule):
    """Serving-layer code that spawns a child process owns its whole
    lifecycle.  A ``subprocess.Popen`` (or ``multiprocessing.Process``)
    whose handle is never waited on, terminated, or drained anywhere in
    the module leaks the child past shutdown: the fleet drains workers
    on SIGTERM precisely because an orphaned worker keeps its port and
    its model memory.  The handle (or an alias of it) must receive a
    shutdown call — ``wait``/``join``/``terminate``/``kill``, or a
    wrapper's ``drain``/``stop``/``close`` — somewhere in the same
    module.  Applies to ``repro.serve`` and ``repro.fleet``; handles
    that escape the module on purpose carry
    ``# repro: ignore[RPR111]``.
    """

    code = "RPR111"
    name = "subprocess-without-drain"
    summary = "Spawned process handles must be drained in the same module"
    example_bad = 'def start(self):\n    self._proc = subprocess.Popen(argv)'
    example_good = ('def start(self):\n'
                    '    self._proc = subprocess.Popen(argv)\n\n'
                    'def stop(self):\n'
                    '    self._proc.terminate()\n'
                    '    self._proc.wait()')

    #: Module prefixes the rule applies to (the serving layers).
    module_prefixes = ("repro.serve", "repro.fleet")
    #: ``module attribute`` spawn constructors, per import root.
    _SPAWNERS = {"subprocess": frozenset({"Popen"}),
                 "multiprocessing": frozenset({"Process"})}
    #: Methods that settle a child process (or its owning wrapper).
    _DRAINS = frozenset({"wait", "join", "terminate", "kill",
                         "communicate", "drain", "stop", "close"})

    @staticmethod
    def _covered(module_name: str, prefix: str) -> bool:
        return (module_name == prefix
                or module_name.startswith(prefix + "."))

    def begin_module(self, module: ModuleContext) -> None:
        """Prescan imports for spawn-constructor aliases."""
        self._applies = any(self._covered(module.module_name, prefix)
                            for prefix in self.module_prefixes)
        #: local alias -> spawning module root ("subprocess", ...).
        self._module_aliases: dict[str, str] = {}
        #: bare imported constructor name -> True ("Popen", "Process").
        self._spawn_names: set[str] = set()
        if not self._applies:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self._SPAWNERS:
                        local = alias.asname or alias.name
                        self._module_aliases[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                members = self._SPAWNERS.get(node.module or "")
                if members and node.level == 0:
                    for alias in node.names:
                        if alias.name in members:
                            self._spawn_names.add(alias.asname or alias.name)

    def finish_module(self, module: ModuleContext) -> None:
        """Match spawn bindings against drain calls, through aliases."""
        if not self._applies:
            return
        spawn_roots: dict[str, ast.Call] = {}
        loose_spawns: list[ast.Call] = []
        alias_edges: list[tuple[str, str]] = []
        bound_calls: set[int] = set()
        drained_keys: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                keys = [key for key in map(self._key, targets)
                        if key is not None]
                if isinstance(node.value, ast.Call) \
                        and self._is_spawn(node.value):
                    bound_calls.add(id(node.value))
                    for key in keys:
                        spawn_roots.setdefault(key, node.value)
                else:
                    source = self._key(node.value)
                    if source is not None:
                        alias_edges.extend((key, source) for key in keys)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self._DRAINS):
                    key = self._key(func.value)
                    if key is not None:
                        drained_keys.add(key)
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call) and self._is_spawn(node)
                    and id(node) not in bound_calls):
                loose_spawns.append(node)
        resolved = self._resolve_aliases(set(spawn_roots), alias_edges)
        for key, call in spawn_roots.items():
            drained = any(resolved.get(drain_key) == key
                          for drain_key in drained_keys)
            if not drained:
                self._report_spawn(module, call, key)
        for call in loose_spawns:
            self._report_spawn(module, call, None)

    def _report_spawn(self, module: ModuleContext, call: ast.Call,
                      key: str | None) -> None:
        where = (f"handle `{key}`" if key is not None
                 else "an unbound handle")
        self.report(
            module, call,
            f"spawned process with {where} is never waited on, "
            "terminated, or drained in this module; settle the child "
            "(.wait()/.join()/.terminate(), or a wrapper's "
            ".drain()/.stop()) so it cannot outlive shutdown, or add "
            "`# repro: ignore[RPR111]` if the handle escapes on purpose")

    def _is_spawn(self, node: ast.Call) -> bool:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            root = self._module_aliases.get(func.value.id)
            return (root is not None
                    and func.attr in self._SPAWNERS[root])
        return isinstance(func, ast.Name) and func.id in self._spawn_names

    @staticmethod
    def _key(node: ast.expr) -> str | None:
        """A trackable binding key: a local name or a ``self.`` attr."""
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return f"self.{node.attr}"
        return None

    @staticmethod
    def _resolve_aliases(roots: set[str],
                         edges: list[tuple[str, str]]) -> dict[str, str]:
        """Map every key to the spawn root it (transitively) aliases."""
        resolved = {root: root for root in roots}
        changed = True
        while changed:
            changed = False
            for target, source in edges:
                root = resolved.get(source)
                if root is not None and resolved.get(target) != root:
                    resolved[target] = root
                    changed = True
        return resolved
