"""Built-in rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Rules live in one module per code band.
"""

from repro.lint.rules.concurrency import (
    BlockingWhileLockedRule,
    DaemonThreadDrainRule,
    LockOrderCycleRule,
    ThreadUnsafeLazyInitRule,
    UnguardedSharedStateRule,
)
from repro.lint.rules.correctness import (
    AdHocTimingRule,
    BroadExceptRule,
    FeaturizerSurfaceRule,
    FloatEqualityRule,
    MutableDefaultRule,
    SubprocessWithoutDrainRule,
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
from repro.lint.rules.numeric import (
    EmptyArrayReductionRule,
    FloatPrecisionDriftRule,
    ShapeContractViolationRule,
    SilentDtypeNarrowingRule,
    UnsafeIndexDtypeRule,
)
from repro.lint.semantic.rules import (
    FeatureDtypeDriftRule,
    FeatureShapeContractRule,
    GeneratorThreadingRule,
    UnorderedIterationRule,
)

__all__ = [
    "MutableDefaultRule",
    "FloatEqualityRule",
    "BroadExceptRule",
    "FeaturizerSurfaceRule",
    "SubprocessWithoutDrainRule",
    "AdHocTimingRule",
    "FeatureDtypeDriftRule",
    "FeatureShapeContractRule",
    "GlobalNumpyRandomRule",
    "UnseededGeneratorRule",
    "GeneratorThreadingRule",
    "UnorderedIterationRule",
    "ImportLayeringRule",
    "PrintInLibraryRule",
    "DunderAllRule",
    "UnguardedSharedStateRule",
    "LockOrderCycleRule",
    "BlockingWhileLockedRule",
    "ThreadUnsafeLazyInitRule",
    "DaemonThreadDrainRule",
    "SilentDtypeNarrowingRule",
    "FloatPrecisionDriftRule",
    "ShapeContractViolationRule",
    "UnsafeIndexDtypeRule",
    "EmptyArrayReductionRule",
]
