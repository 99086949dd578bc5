"""Rule base class and the registry of stable rule codes.

Rules register themselves with :func:`register`; the engine instantiates
every registered rule once per run.  Codes are stable and banded:

* ``RPR1xx`` — correctness (bugs waiting to happen),
* ``RPR2xx`` — determinism (the paper's Equation-4 contract),
* ``RPR3xx`` — layering and API hygiene,
* ``RPR4xx`` — concurrency (races, deadlocks, and stalls in the
  threaded serving stack, driven by the CFG/dataflow pass).

Retired codes (``docs/lint_rules.md``) are never reused.  ``RPR001`` is
reserved by the engine for files that fail to parse.
"""

from __future__ import annotations

import inspect
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.config import LintConfig
    from repro.lint.engine import ModuleContext, ProjectContext

__all__ = ["Rule", "register", "all_rule_classes", "get_rule_class",
           "DOCS_URI", "PARSE_ERROR_CODE"]

#: Engine-reserved code for unparseable files (not a registered rule).
PARSE_ERROR_CODE = "RPR001"

#: Repo-relative documentation file the per-rule help links anchor into.
DOCS_URI = "docs/lint_rules.md"

_CODE_PATTERN = re.compile(r"^RPR[1-9]\d{2}$")

_REGISTRY: dict[str, type["Rule"]] = {}


class Rule:
    """Base class of all lint rules.

    Subclasses set the class attributes below and implement any of the
    optional hooks.  ``visit_<NodeType>`` methods (e.g. ``visit_Call``)
    are discovered by name and dispatched by the engine for every AST
    node of that type, in source order.

    Optional hooks:

    * ``begin_module(module)`` — called before the AST walk of a module
      (e.g. to prescan import aliases).
    * ``finish_module(module)`` — called after the walk of a module
      (for whole-module invariants such as ``__all__`` consistency).
    * ``finish_project(project)`` — called once after every module has
      been walked (for cross-module invariants such as the lock
      acquisition order).
    """

    #: Stable code, e.g. ``"RPR101"``.
    code: str = ""
    #: Short kebab-case identifier, e.g. ``"mutable-default-argument"``.
    name: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs table.
    summary: str = ""
    #: Minimal violating snippet, shown by ``repro lint --explain``.
    example_bad: str = ""
    #: Minimal compliant rewrite of :attr:`example_bad`.
    example_good: str = ""

    def __init__(self, config: "LintConfig") -> None:
        self.config = config

    def report(self, module: "ModuleContext", node, message: str) -> None:
        """Record a violation of this rule at ``node``."""
        module.report(self.code, node, message)

    @classmethod
    def rationale(cls) -> str:
        """Why the rule exists: the class docstring, dedented."""
        return inspect.cleandoc(cls.__doc__ or "")

    @classmethod
    def help_uri(cls) -> str:
        """Repo-relative documentation anchor for this rule."""
        return f"{DOCS_URI}#{cls.code.lower()}"


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``cls`` to the rule registry."""
    if not _CODE_PATTERN.match(cls.code):
        raise ValueError(
            f"rule {cls.__name__} has invalid code {cls.code!r} "
            "(expected RPRnnn with nnn in 100..999)")
    if not cls.name or not cls.summary:
        raise ValueError(f"rule {cls.__name__} needs a name and a summary")
    if not cls.example_bad or not cls.example_good:
        raise ValueError(
            f"rule {cls.__name__} needs example_bad and example_good "
            "snippets (shown by --explain)")
    existing = _REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule code {cls.code} already registered by "
            f"{existing.__name__}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rule_classes() -> tuple[type[Rule], ...]:
    """Every registered rule class, ordered by code."""
    # Importing the rules package populates the registry on first use.
    import repro.lint.rules  # noqa: F401  (registration side effect)
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule_class(code: str) -> type[Rule]:
    """Registered rule class for ``code`` (``KeyError`` if unknown)."""
    import repro.lint.rules  # noqa: F401  (registration side effect)
    return _REGISTRY[code]
