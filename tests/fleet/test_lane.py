"""The compute lane under a fleet: many router threads, LocalWorkers.

Each worker's service owns its own lane.  Eight threads mix single
estimates, batches and feedback re-estimates through the router; every
answer equals a sequential ``estimate_batch`` bitwise and every thread
finishes.
"""

from __future__ import annotations

from tests.serve.test_lane import (
    assert_sequential_equal,
    run_mixed_threads,
    statement_mix,
)


def test_threads_mixing_verbs_through_the_router(local_fleet,
                                                  fleet_estimator,
                                                  conjunctive_workload):
    _, router = local_fleet(workers=2)
    sqls = statement_mix(conjunctive_workload.queries[:24])
    answers = run_mixed_threads(
        lambda sql: router.estimate(sql)["estimate"],
        lambda chunk: router.estimate_batch(chunk)["estimates"],
        lambda sql: router.feedback(sql, 10.0)["estimate"],
        sqls)
    assert len(answers) >= len(sqls)
    assert_sequential_equal(fleet_estimator, answers)
