"""Built-in rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Rules live in one module per code band.
"""

from repro.lint.rules.concurrency import (
    BlockingWhileLockedRule,
    LockOrderCycleRule,
    UnguardedSharedStateRule,
)
from repro.lint.rules.correctness import (
    AdHocTimingRule,
    BroadExceptRule,
    FloatEqualityRule,
    MutableDefaultRule,
)
from repro.lint.rules.determinism import (
    GlobalNumpyRandomRule,
    UnseededGeneratorRule,
)
from repro.lint.rules.layering import (
    DunderAllRule,
    ImportLayeringRule,
    PrintInLibraryRule,
)

__all__ = [
    "MutableDefaultRule",
    "FloatEqualityRule",
    "BroadExceptRule",
    "AdHocTimingRule",
    "GlobalNumpyRandomRule",
    "UnseededGeneratorRule",
    "ImportLayeringRule",
    "PrintInLibraryRule",
    "DunderAllRule",
    "UnguardedSharedStateRule",
    "LockOrderCycleRule",
    "BlockingWhileLockedRule",
]
