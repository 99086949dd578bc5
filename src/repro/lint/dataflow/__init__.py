"""Per-function CFG + dataflow engine backing the RPR4xx band.

Layers, bottom up:

* :mod:`~repro.lint.dataflow.cfg` — control-flow graphs from the AST
  (branch/loop/try/with edges, ``with`` desugared to acquire/release);
* :mod:`~repro.lint.dataflow.solver` — the generic forward fixed-point
  solver;
* :mod:`~repro.lint.dataflow.locks` — the must-held lock-region
  lattice and the blocking-call catalogue;
* :mod:`~repro.lint.dataflow.extract` — the pass distilling per-
  function concurrency facts for the project-stage concurrency rules.
"""

from repro.lint.dataflow.cfg import CFG, Block, Op, build_cfg
from repro.lint.dataflow.extract import attach_concurrency_facts
from repro.lint.dataflow.locks import (
    LockModel,
    LockStateAnalysis,
    classify_blocking,
    held_tokens,
)
from repro.lint.dataflow.solver import (
    ForwardAnalysis,
    Solution,
    iter_op_states,
    solve,
)

__all__ = [
    "CFG",
    "Block",
    "Op",
    "build_cfg",
    "ForwardAnalysis",
    "Solution",
    "solve",
    "iter_op_states",
    "LockModel",
    "LockStateAnalysis",
    "classify_blocking",
    "held_tokens",
    "attach_concurrency_facts",
]
