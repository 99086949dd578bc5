"""Concurrency rules (RPR4xx): races, deadlocks, and stalls.

The serving stack (``repro.serve``) is the first genuinely threaded
part of this codebase — batcher worker threads, a ThreadingHTTPServer,
shared handle/estimate caches — and single-threaded tests cannot catch
the bug classes these rules target.  All three run in the project stage
on the concurrency facts the dataflow pass attaches per function
(:mod:`repro.lint.dataflow`).  RPR402 reports every acquisition edge of
every cycle, wherever it sits: a lock-order cycle needs no import
relation between the modules that close it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.registry import Rule, register
from repro.lint.semantic.index import ProjectIndex

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import ProjectContext

__all__ = [
    "UnguardedSharedStateRule",
    "LockOrderCycleRule",
    "BlockingWhileLockedRule",
]


def _self_lock_names(held: tuple[str, ...]) -> set[str]:
    """Lock attribute names among held ``self.<name>`` tokens."""
    return {token.partition(".")[2] for token in held
            if token.startswith("self.") and token.count(".") == 1}


def _lock_owning_classes(index: ProjectIndex):
    """Classes that own at least one declared lock, with their guards."""
    for mf in index.modules.values():
        for cls in mf.classes:
            locks = index.class_lock_attrs(mf, cls)
            if locks:
                yield mf, cls, locks, index.guarded_attrs(mf, cls)


@register
class UnguardedSharedStateRule(Rule):
    """A class that owns a lock declares, by its own locked accesses,
    which attributes the lock protects; writing one of those attributes
    outside any region of that lock is a data race with every locked
    reader.  ``__init__`` is exempt — construction happens before the
    object is shared.
    """

    code = "RPR401"
    name = "unguarded-shared-state"
    summary = "Guarded attribute written outside its owning lock"
    example_bad = 'def close(self):\n    self._closed = True  # elsewhere guarded by self._lock'
    example_good = 'def close(self):\n    with self._lock:\n        self._closed = True'

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag unlocked writes to lock-guarded attributes."""
        for mf, cls, locks, guards in _lock_owning_classes(project.index):
            if not guards:
                continue
            for method in cls.methods:
                if method.name == "__init__":
                    continue
                for write in method.attr_writes:
                    owners = guards.get(write.attr)
                    if not owners:
                        continue
                    if _self_lock_names(write.held) & owners:
                        continue
                    lock = sorted(owners)[0]
                    project.report(
                        self.code, mf.path, write.lineno, write.col,
                        f"write to `self.{write.attr}` without holding "
                        f"`self.{lock}`: {cls.name} accesses this "
                        "attribute under that lock elsewhere, so this "
                        "write races them; wrap it in "
                        f"`with self.{lock}:`")


@register
class LockOrderCycleRule(Rule):
    """Two locks acquired in opposite orders on two code paths deadlock
    the moment two threads interleave.  The acquisition-order graph is
    built project-wide — ``A`` held while ``B`` is taken adds ``A → B``,
    including through calls (a call made under ``A`` into code that
    takes ``B``) — and any strongly connected component is a waiting
    cycle no timeout will untangle.
    """

    code = "RPR402"
    name = "lock-order-cycle"
    summary = "Cycle in the project lock-acquisition-order graph"
    example_bad = 'def transfer():\n    with LOCK_A:\n        with LOCK_B: ...\n\ndef refund():\n    with LOCK_B:\n        with LOCK_A: ...'
    example_good = '# one global acquisition order, everywhere\ndef refund():\n    with LOCK_A:\n        with LOCK_B: ...'

    def finish_project(self, project: "ProjectContext") -> None:
        """Report each acquisition edge participating in a cycle."""
        graph = project.index.lock_order_graph()
        for component in graph.cycles():
            if len(component) == 1:
                description = (f"non-reentrant lock `{component[0]}` is "
                               "re-acquired while already held "
                               "(guaranteed self-deadlock)")
            else:
                ring = " -> ".join([*component, component[0]])
                description = f"lock acquisition order cycle {ring}"
            for source, target in graph.cycle_edges(component):
                for path, lineno, col, via in \
                        graph.sites.get((source, target), ()):
                    via_note = f" through `{via}()`" if via else ""
                    project.report(
                        self.code, path, lineno, col,
                        f"{description}: `{target}` is acquired "
                        f"here{via_note} while `{source}` is held; "
                        "acquire locks in one global order (or merge "
                        "them)")


@register
class BlockingWhileLockedRule(Rule):
    """Sleeps, future/thread waits, queue gets, file and network I/O
    executed while holding a lock stall every thread contending for it
    — in a serving process that turns one slow disk read into a fleet-
    wide latency spike.  The blocking-call catalogue is narrow by
    design.
    """

    code = "RPR403"
    name = "blocking-while-locked"
    summary = "Known-blocking call inside a held-lock region"
    example_bad = 'with self._lock:\n    payload = request.urlopen(url).read()'
    example_good = 'payload = request.urlopen(url).read()\nwith self._lock:\n    self._cache[url] = payload'

    def finish_project(self, project: "ProjectContext") -> None:
        """Flag blocking calls recorded with a non-empty held set."""
        for mf, _, fn in project.index.function_sites():
            for call in fn.blocking_calls:
                held = ", ".join(f"`{token}`" for token in call.held)
                project.report(
                    self.code, mf.path, call.lineno, call.col,
                    f"blocking call `{call.callee}()` while holding "
                    f"{held}; every thread contending for the lock "
                    "stalls behind it — move the slow operation outside "
                    "the lock region")
