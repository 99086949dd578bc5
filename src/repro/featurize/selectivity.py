"""Closed-interval arithmetic for conjunctions of simple predicates.

All point and range predicates over one attribute can be folded into a
closed interval ``[lo, hi]`` plus a set of excluded values (Section 3.1):
``A = 5`` becomes ``[5, 5]``, ``A <= 5`` becomes ``[min(A), 5]``, and for
integer attributes ``A < 5`` becomes ``[min(A), 4]`` (a small step is used
for continuous attributes).  ``A <> 5`` records 5 as excluded.

This module provides that folding (MSCN's range-mode predicate rows use
it) and the strict-bound step the vectorized encode kernels share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.data.stats import ColumnStats
from repro.sql.ast import Op, SimplePredicate

__all__ = ["Interval", "fold_conjunction", "strict_step"]

#: Relative step used to close strict bounds on continuous domains.
_CONTINUOUS_STEP = 1e-9


def strict_step(stats: ColumnStats) -> float:
    """Step by which a strict bound tightens when folded closed.

    Integer domains step by one value; continuous domains by a span-
    relative epsilon.  Shared by the fold below and the encode kernels,
    so both tighten identically.
    """
    if stats.is_integral:
        return 1.0
    return max(abs(stats.max_value - stats.min_value), 1.0) * _CONTINUOUS_STEP


@dataclass
class Interval:
    """A closed interval with excluded points, over one attribute's domain."""

    lo: float
    hi: float
    excluded: set[float] = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        """True iff no value can satisfy the folded conjunction."""
        return self.lo > self.hi

    def __contains__(self, value: float) -> bool:
        return (self.lo <= value <= self.hi) and value not in self.excluded


def fold_conjunction(predicates: Iterable[SimplePredicate],
                     stats: ColumnStats) -> Interval:
    """Fold a conjunction of same-attribute predicates into an interval.

    The caller guarantees all predicates reference the same attribute,
    whose statistics are ``stats``.
    """
    step = strict_step(stats)
    interval = Interval(lo=stats.min_value, hi=stats.max_value)
    for predicate in predicates:
        value = float(predicate.value)
        op = predicate.op
        if op is Op.EQ:
            interval.lo = max(interval.lo, value)
            interval.hi = min(interval.hi, value)
        elif op is Op.GE:
            interval.lo = max(interval.lo, value)
        elif op is Op.GT:
            interval.lo = max(interval.lo, value + step)
        elif op is Op.LE:
            interval.hi = min(interval.hi, value)
        elif op is Op.LT:
            interval.hi = min(interval.hi, value - step)
        elif op is Op.NE:
            interval.excluded.add(value)
        else:  # pragma: no cover - Op is a closed enum
            raise ValueError(f"unhandled operator {op}")
    return interval
