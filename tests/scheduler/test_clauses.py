"""The clauses of the drain loop, the recovery path and a settled
base's finality, each against the mutant that deletes it
(:mod:`tests.scheduler.mutants`): the test that pins a clause fails
under its mutant.  EXPERIMENTS.md tabulates the pairs, and the clauses
no test pinned are gone."""

import pytest

from repro.scheduler import DistributedScheduler
from tests.integration import test_generators
from tests.properties import test_chaos_properties
from tests.properties.test_monitor_equivalence import (
    test_recovered_monitor_matches_an_uncrashed_twin as monitor_twin,
)
from tests.scheduler import test_explore, test_recovery

from . import mutants
from .explorer import check_schedule, settled_residual

SETTLE_CLEAN = test_chaos_properties.TestChaosRegressions()
SWEPT_AGAIN = test_chaos_properties.TestChaosRawNetwork()
ONE_CRASH = test_explore.TestOneCrash()
RECOVERY = test_recovery.TestRecoveryMechanics()
PRUNING = test_explore.TestAnnouncePruning()

PINS = [
    (mutants.no_sweep_run, SETTLE_CLEAN.test_pinned_schedules_settle_clean),
    (
        mutants.escalate_before_sweep,
        SETTLE_CLEAN.test_pinned_schedules_settle_clean,
    ),
    (
        mutants.no_recovered_broadcast,
        lambda: ONE_CRASH.test_both_tasks_enter_after_any_one_crash("t2"),
    ),
    (
        mutants.no_reannounce,
        RECOVERY.test_a_settlement_lost_in_the_crash_is_announced_again,
    ),
    (
        mutants.no_round_abort,
        lambda: ONE_CRASH.test_both_tasks_enter_after_any_one_crash("t2"),
    ),
    (
        mutants.no_retry_at_restart,
        lambda: ONE_CRASH.test_both_tasks_enter_after_any_one_crash("t1"),
    ),
    (mutants.no_monitor_rebuild, monitor_twin),
    (
        mutants.no_stale_release,
        SWEPT_AGAIN.test_pinned_freezes_orphaned_again_are_swept,
    ),
    (
        mutants.release_holds_only,
        SWEPT_AGAIN.test_pinned_freezes_orphaned_again_are_swept,
    ),
    (
        mutants.deferred_certificates_dropped,
        lambda: test_generators.TestDiamond().test_fork_join(
            DistributedScheduler, 2
        ),
    ),
    (
        mutants.settled_assimilates,
        PRUNING.test_a_settled_role_holds_the_same_unpruned,
    ),
    (
        mutants.settled_residual_unrendered,
        lambda: check_schedule(settled_residual(), ()),
    ),
    (
        mutants.crossing_group_at_once,
        lambda: test_explore.test_exclusive_choice_default_schedule(5),
    ),
]


@pytest.mark.parametrize(
    "mutant, pin", PINS, ids=[mutant.__name__ for mutant, _pin in PINS]
)
def test_the_pinning_test_fails_under_the_mutant(mutant, pin):
    with mutant(), pytest.raises(AssertionError):
        pin()
