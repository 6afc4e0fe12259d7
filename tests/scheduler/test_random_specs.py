"""The random-spec lane (:mod:`tests.scheduler.random_specs`): 2 000
specs under both guard engines at the default schedule.  The CI lane
runs the module over more."""

import random

from repro.algebra.symbols import Event

from .explorer import _scenario
from .random_specs import (
    MAX_STUCK, MAX_UNSOUND, attainable, random_spec, run_lane,
)


def test_a_spec_is_small_and_attempts_every_base_it_mentions():
    rng = random.Random(0)
    for _ in range(200):
        scenario = random_spec(rng)
        workflow = scenario.workflow
        bases = {base for dep in workflow.dependencies for base in dep.bases()}
        attempts = [
            attempt for script in scenario.scripts
            for attempt in script.attempts
        ]
        assert 1 <= len(workflow.dependencies) <= 3
        assert 2 <= len(bases) and bases <= {Event(name) for name in "abcd"}
        assert sorted(a.event.base for a in attempts) == sorted(bases)
        assert {a.time for a in attempts} <= {0, 1, 5}


def test_engines_agree_and_every_unsound_run_broke_a_promise():
    """Engine agreement on every spec; the only unsound runs are those
    that broke a promise, and no more runs are unsound or stuck than
    the lane's ceilings allow."""
    counts = run_lane(2000, seed=1)
    assert counts.disagreements == [], counts.summary()
    assert counts.unsound_unbroken == [], counts.summary()
    assert counts.unsound <= MAX_UNSOUND, counts.summary()
    assert counts.stuck <= MAX_STUCK, counts.summary()


def test_unattainable_attempts_are_told_from_stuck_runs():
    """Only attempted events can occur: ``a + b`` with both refused
    admits no completion, while the same choice with both attempted
    (and their complements constrained too) does."""
    refused = _scenario("refused", ["a + b"], ["~a@0", "~b@0"])
    chosen = _scenario("chosen", ["a + b", "~a + ~b"], ["a@0", "b@0"])
    assert not attainable(refused)
    assert attainable(chosen)
