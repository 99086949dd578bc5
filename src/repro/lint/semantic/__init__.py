"""Semantic (interprocedural) analysis layer of the linter.

The syntactic rules in :mod:`repro.lint.rules` see one file at a time,
so they cannot see a lock taken two modules away through a call.  This
package closes that gap for the concurrency rules (RPR401-403):

* :mod:`repro.lint.semantic.facts` — per-file extraction of a compact
  summary (imports, classes, functions, call sites) that the dataflow
  pass extends with lock facts.
* :mod:`repro.lint.semantic.index` — the project index built from those
  summaries: import/symbol resolution, class ancestry, an approximate
  call graph, and the lock-acquisition-order graph.
"""

from repro.lint.semantic.facts import ModuleFacts, extract_module_facts
from repro.lint.semantic.index import ProjectIndex

__all__ = ["ModuleFacts", "ProjectIndex", "extract_module_facts"]
