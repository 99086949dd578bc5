"""Domain-specific static analysis for the repro codebase.

The paper's losslessness claim (Definition 3.1, Lemma 3.2) rests on
contracts python's type system cannot express: featurization must be a
deterministic function of the query (Equation 4), every stochastic
component must thread a seeded ``np.random.Generator``, the
featurize/sql/data substrates must stay independent of the model
stack, and the threaded serving stack must not race or deadlock.  This
package machine-checks the contracts no runtime check or test covers
as cheaply (the rest are runtime checks and tests; see
``docs/lint_rules.md``, "Retired codes"):

* :mod:`repro.lint.engine` — AST parsing, visitor dispatch, module and
  project hooks, one in-process run with a span per stage.
* :mod:`repro.lint.rules` — the built-in rules (``RPR1xx`` correctness,
  ``RPR2xx`` determinism, ``RPR3xx`` layering/API hygiene, ``RPR4xx``
  concurrency).
* :mod:`repro.lint.semantic` — the project index (symbol resolution,
  class ancestry, call graph, lock-order graph).
* :mod:`repro.lint.dataflow` — per-function CFGs and the lock lattice.
* :mod:`repro.lint.pragmas` — ``# repro: ignore[RPRnnn]`` suppression.
* :mod:`repro.lint.reporters` — text, JSON, and SARIF 2.1.0 output.
* :mod:`repro.lint.cli` — ``repro lint`` / ``python -m repro.lint``.

Run programmatically::

    from pathlib import Path
    from repro.lint import lint_paths

    result = lint_paths([Path("src")])
    assert not result.findings

The rule catalogue is documented in ``docs/lint_rules.md``.
"""

from pathlib import Path
from typing import Sequence

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_text, run
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rule_classes, register

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rule_classes",
    "register",
    "load_config",
    "lint_text",
    "run",
    "lint_paths",
]


def lint_paths(paths: Sequence[Path],
               config: LintConfig | None = None) -> LintResult:
    """Lint ``paths`` with the configuration discovered from the first.

    Convenience wrapper over :func:`repro.lint.engine.run` that loads
    ``[tool.repro.lint]`` the same way the CLI does.
    """
    if config is None:
        config = load_config(Path(paths[0]) if paths else None)
    return run(paths, config)
