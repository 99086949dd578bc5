"""The visitor-driven rule engine.

One run goes through six stages in one process, each under its own
``repro.obs`` span so a traced run (and ``repro bench lint``) shows
where the time went:

* ``lint.parse`` — discover, read, and parse every target file, and
  collect its pragmas;
* ``lint.syntactic`` — walk each AST in source order, dispatching node
  events to every rule (``visit_Call``, ``visit_Compare``, ...) plus
  the module hooks;
* ``lint.facts`` — extract each module's semantic fact summary;
* ``lint.dataflow`` — build per-function CFGs and attach lock facts;
* ``lint.index`` — build the :class:`~repro.lint.semantic.index.
  ProjectIndex` from the fact summaries;
* ``lint.rules`` — run every rule's ``finish_project`` hook, the
  interprocedural pass.

Findings are collected centrally, pragma-suppressed, and sorted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro import obs
from repro.lint.config import LintConfig
from repro.lint.dataflow import attach_concurrency_facts
from repro.lint.findings import Finding
from repro.lint.pragmas import decorator_pragmas, is_suppressed, \
    parse_pragmas
from repro.lint.registry import PARSE_ERROR_CODE, Rule, all_rule_classes
from repro.lint.semantic.facts import extract_module_facts
from repro.lint.semantic.index import ProjectIndex

__all__ = ["ModuleContext", "ProjectContext", "LintResult",
           "discover_files", "module_name_for", "run", "lint_text"]


class ModuleContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, *, path: str, module_name: str, source: str,
                 tree: ast.Module, pragmas: dict[int, frozenset[str]]) -> None:
        #: Scan-root-relative posix path (what findings carry).
        self.path = path
        #: Dotted module name, e.g. ``"repro.featurize.base"``.
        self.module_name = module_name
        self.source = source
        self.tree = tree
        #: line -> suppressed codes (see :mod:`repro.lint.pragmas`).
        self.pragmas = pragmas
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []

    @property
    def is_package_init(self) -> bool:
        """Whether this file is a package ``__init__.py``."""
        return self.path.rsplit("/", 1)[-1] == "__init__.py"

    def report(self, code: str, node, message: str) -> None:
        """Record a finding at ``node``, honouring same-line pragmas."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        finding = Finding(path=self.path, line=line, col=col,
                          code=code, message=message)
        if is_suppressed(self.pragmas, line, code):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


class ProjectContext:
    """Cross-module state handed to ``finish_project`` hooks.

    Project rules see the whole program through :attr:`index` and report
    through :meth:`report`, which honours the pragma table of the file
    a finding lands in.
    """

    def __init__(self, index: ProjectIndex,
                 pragmas_by_path: Mapping[str, dict[int, frozenset[str]]]
                 ) -> None:
        #: The project index built for this run.
        self.index = index
        self._pragmas = pragmas_by_path
        #: Fresh project-level findings reported this run.
        self.findings: list[Finding] = []
        #: Pragma-suppressed project-level findings.
        self.suppressed: list[Finding] = []

    def report(self, code: str, path: str, line: int, col: int,
               message: str) -> None:
        """Record a project-level finding, honouring same-line pragmas."""
        finding = Finding(path=path, line=line, col=col, code=code,
                          message=message)
        if is_suppressed(self._pragmas.get(path, {}), line, code):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


@dataclass(frozen=True)
class LintResult:
    """Outcome of one engine run."""

    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...] = ()
    files_scanned: int = 0
    rules_run: tuple[str, ...] = field(default_factory=tuple)


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand ``paths`` (files or directories) into sorted ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py")
                         if not any(part.startswith(".")
                                    for part in p.parts))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, found by ascending package dirs.

    Walks up while an ``__init__.py`` sibling exists, so
    ``src/repro/featurize/base.py`` resolves to
    ``repro.featurize.base`` regardless of the scan root.
    """
    path = path.resolve()
    parts = [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _dispatch_table(rules: Sequence[Rule]) -> dict[str, list]:
    """Node-type name -> bound ``visit_*`` handlers, in rule-code order."""
    table: dict[str, list] = {}
    for rule in rules:
        for attr in dir(rule):
            if attr.startswith("visit_"):
                table.setdefault(attr[len("visit_"):], []).append(
                    getattr(rule, attr))
    return table


def _walk_module(module: ModuleContext, rules: Sequence[Rule],
                 table: dict[str, list]) -> None:
    for rule in rules:
        hook = getattr(rule, "begin_module", None)
        if hook is not None:
            hook(module)
    for node in ast.walk(module.tree):
        for handler in table.get(type(node).__name__, ()):
            handler(node, module)
    for rule in rules:
        hook = getattr(rule, "finish_module", None)
        if hook is not None:
            hook(module)


def _parse(source: str, *, path: str,
           module_name: str) -> ModuleContext | Finding:
    """Parse one source; an unparseable file becomes its RPR001 finding."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        message = (error.msg if isinstance(error, SyntaxError) else
                   str(error))
        return Finding(path=path, line=line, col=1, code=PARSE_ERROR_CODE,
                       message=f"file does not parse: {message}")
    pragmas = decorator_pragmas(tree, parse_pragmas(source))
    return ModuleContext(path=path, module_name=module_name,
                         source=source, tree=tree, pragmas=pragmas)


def _display_path(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def _analyze(parsed: Sequence[ModuleContext | Finding],
             config: LintConfig) -> LintResult:
    """Run every rule over the parsed files (all stages after parsing)."""
    rules = [cls(config) for cls in all_rule_classes()]
    modules = [m for m in parsed if isinstance(m, ModuleContext)]
    findings = [m for m in parsed if isinstance(m, Finding)]
    suppressed: list[Finding] = []
    with obs.span("lint.syntactic", n_modules=len(modules)):
        table = _dispatch_table(rules)
        for module in modules:
            _walk_module(module, rules, table)
            findings.extend(module.findings)
            suppressed.extend(module.suppressed)
    with obs.span("lint.facts", n_modules=len(modules)):
        facts = [extract_module_facts(m.tree, path=m.path,
                                      module_name=m.module_name)
                 for m in modules]
    with obs.span("lint.dataflow", n_modules=len(modules)):
        for module, module_facts in zip(modules, facts):
            attach_concurrency_facts(module_facts, module.tree)
    with obs.span("lint.index", n_modules=len(facts)):
        project = ProjectContext(ProjectIndex(facts),
                                 {m.path: m.pragmas for m in modules})
    project_rules = [rule for rule in rules
                     if getattr(rule, "finish_project", None) is not None]
    with obs.span("lint.rules", n_rules=len(project_rules)):
        for rule in project_rules:
            rule.finish_project(project)
    findings.extend(project.findings)
    suppressed.extend(project.suppressed)
    return LintResult(
        findings=tuple(sorted(findings)),
        suppressed=tuple(sorted(suppressed)),
        files_scanned=len(parsed),
        rules_run=tuple(rule.code for rule in rules),
    )


def run(paths: Sequence[Path],
        config: LintConfig | None = None) -> LintResult:
    """Lint every python file under ``paths`` with every rule."""
    if config is None:
        config = LintConfig()
    root = Path.cwd()
    with obs.span("lint.parse"):
        parsed = [_parse(file.read_text(encoding="utf-8"),
                         path=_display_path(file, root),
                         module_name=module_name_for(file))
                  for file in discover_files([Path(p) for p in paths])]
    return _analyze(parsed, config)


def lint_text(source: str, *, module_name: str = "snippet",
              path: str = "snippet.py",
              config: LintConfig | None = None) -> LintResult:
    """Lint a source string (the unit-test entry point)."""
    return _analyze([_parse(source, path=path, module_name=module_name)],
                    config if config is not None else LintConfig())
