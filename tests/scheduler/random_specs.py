"""Random specs through both guard engines, at the default schedule.

:func:`random_spec` draws a small spec from a seeded generator: 2 to 4
bases and 1 to 3 dependencies, each one of Klein's shapes
(:mod:`repro.workflows.primitives`: the arrow ``~x + y`` and the order
``~x + ~y + x . y``), a disjunction of two literals of random polarity
(the halves of exclusive choice) or an order of three events
``~x + ~z + x . y . z``.  Every base a dependency mentions gets one
attempt, of random polarity, at a time drawn from 0, 0, 1 and 5.

:func:`run_lane` runs each spec under the production and the reference
engine (:func:`explorer.run_schedule`) and counts what it finds
(:class:`LaneCounts`).  Two properties hold on every spec: the engines
agree on :func:`explorer.observables`, and a run that ends ``maximal``
with a trace ``judge`` rejects also broke a promise -- a role granted
``<>self`` to a requester that occurred, and did not occur itself,
which is the one failure class known unsound.  Soundness and progress
are counted and held under a ratchet (:data:`MAX_UNSOUND`,
:data:`MAX_STUCK`), not yet asserted.  A run that does not end maximal
counts as *unattainable* when no completion of the spec occurs only
positively attempted events (:func:`attainable`: ``a + b`` with ``~a``
and ``~b`` attempted), and as *stuck* otherwise.

The tier-1 test runs 2 000 specs; run as a module, the lane takes more
and prints its counts, exiting 1 if either property fails or a count
exceeds its ceiling::

    PYTHONPATH=src python -W error -m tests.scheduler.random_specs \\
        --specs 60000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field

from repro.algebra.normal_form import joint_completion_exists
from repro.scheduler.oracle import judge
from repro.workloads.scenarios import Scenario

from .explorer import Run, _scenario, observables, run_schedule

#: the attempt times, with 0 drawn twice as often as the others
TIMES = (0, 0, 1, 5)

#: ceilings on the unsound and the stuck runs a lane may find, set at
#: the 60 000-spec lane at seed 1 (3 and 2).  They are a ratchet: a
#: change may lower them, and none may raise them
MAX_UNSOUND = 3
MAX_STUCK = 2


def _literal(rng: random.Random, base: str) -> str:
    return rng.choice(("", "~")) + base


def random_spec(rng: random.Random) -> Scenario:
    """One spec drawn from ``rng`` (see the module docstring)."""
    bases = "abcd"[: rng.randint(2, 4)]
    shapes = 4 if len(bases) > 2 else 3  # a 3-event order needs 3 bases
    dependencies = []
    for _ in range(rng.randint(1, 3)):
        shape = rng.randrange(shapes)
        if shape == 3:
            x, y, z = rng.sample(bases, 3)
            dependencies.append(f"~{x} + ~{z} + {x} . {y} . {z}")
            continue
        x, y = rng.sample(bases, 2)
        dependencies.append(
            (
                f"~{x} + {y}",
                f"~{x} + ~{y} + {x} . {y}",
                f"{_literal(rng, x)} + {_literal(rng, y)}",
            )[shape]
        )
    mentioned = sorted({c for dep in dependencies for c in dep if c in bases})
    attempts = [
        f"{_literal(rng, base)}@{rng.choice(TIMES)}" for base in mentioned
    ]
    return _scenario("random", dependencies, attempts)


def broke_a_promise(run: Run) -> bool:
    """Did a role of ``run`` grant ``<>self`` to a requester that
    occurred, and not occur itself?"""
    occurred = {entry.event for entry in run.result.entries}
    return any(
        requester in occurred
        for role in run.sched.roles()
        if role.event not in occurred
        for requester in role.granted_to
    )


def attainable(scenario: Scenario) -> bool:
    """Does some completion satisfy every dependency of ``scenario``
    while occurring only events its scripts attempt positively?  Every
    base can settle negatively; only an attempt makes one occur."""
    positive = frozenset(
        attempt.event
        for script in scenario.scripts
        for attempt in script.attempts
        if not attempt.event.negated
    )
    return joint_completion_exists(
        tuple(scenario.workflow.dependencies), allowed_positive=positive
    )


@dataclass
class LaneCounts:
    """What a lane found, by run; the two lists hold the specs that
    fail a property, as ``(dependencies, attempts)`` text."""

    specs: int = 0
    unsound: int = 0
    broken_promise: int = 0
    #: not maximal, and the attempts admit no satisfying completion
    unattainable: int = 0
    #: not maximal, though the attempts admit one
    stuck: int = 0
    disagreements: list = field(default_factory=list)
    unsound_unbroken: list = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.specs} specs: {len(self.disagreements)} engine "
            f"disagreements, {self.unsound} unsound "
            f"({len(self.unsound_unbroken)} without a broken promise), "
            f"{self.broken_promise} broke a promise, "
            f"{self.unattainable} unattainable, {self.stuck} stuck"
        )


def _text(scenario: Scenario) -> tuple:
    return (
        [str(dep) for dep in scenario.workflow.dependencies],
        [
            f"{attempt.event!r}@{attempt.time:g}"
            for script in scenario.scripts
            for attempt in script.attempts
        ],
    )


def run_lane(specs: int, seed: int) -> LaneCounts:
    """Run ``specs`` specs drawn from ``random.Random(seed)`` under both
    engines at the default schedule."""
    rng = random.Random(seed)
    counts = LaneCounts()
    for _ in range(specs):
        scenario = random_spec(rng)
        run = run_schedule(scenario)
        counts.specs += 1
        if observables(run) != observables(
            run_schedule(scenario, reference=True)
        ):
            counts.disagreements.append(_text(scenario))
        broken = broke_a_promise(run)
        counts.broken_promise += broken
        if run.result.terminal != "maximal":
            # every site is up: not maximal is stuck, or unattainable
            if attainable(scenario):
                counts.stuck += 1
            else:
                counts.unattainable += 1
        elif judge(run.result.trace, scenario.workflow.dependencies):
            counts.unsound += 1
            if not broken:
                counts.unsound_unbroken.append(_text(scenario))
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    counts = run_lane(args.specs, args.seed)
    print(
        f"seed {args.seed}: {counts.summary()}, "
        f"{time.perf_counter() - start:.1f} s"
    )
    for label, failed in (
        ("engines disagree", counts.disagreements),
        ("unsound without a broken promise", counts.unsound_unbroken),
    ):
        for dependencies, attempts in failed:
            print(f"{label}: {dependencies} {attempts}", file=sys.stderr)
    over = [
        f"{count} {label} runs exceed the ceiling of {ceiling}"
        for label, count, ceiling in (
            ("unsound", counts.unsound, MAX_UNSOUND),
            ("stuck", counts.stuck, MAX_STUCK),
        )
        if count > ceiling
    ]
    for line in over:
        print(line, file=sys.stderr)
    return 1 if counts.disagreements or counts.unsound_unbroken or over else 0


if __name__ == "__main__":
    sys.exit(main())
