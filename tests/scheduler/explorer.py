"""A stateless schedule explorer for the distributed scheduler.

A run is a deterministic function of the order in which the simulator
pops its callbacks.  :class:`ChoosingSimulator` pops, at each step, the
callback a *choice prefix* names among the enabled ones, and the
default, oldest-first one past the prefix.  The enabled callbacks are
the oldest pending delivery of each ``(src, dst)`` channel -- the raw
fabric is FIFO per pair (``Network._fifo_high_water``, a mark per
source and then destination), so no other delivery order can happen --
and every other callback: scripted attempts and timers.  It is
installed by patching the ``Simulator`` name that
:mod:`repro.scheduler.base` builds each run's simulator from, so the
scheduler under test is the production one, unchanged.

:func:`explore` re-runs a scenario from the start along each prefix,
depth first, over every schedule that deviates from the default pick at
most ``bound`` times (``None``: every schedule).  On each one it checks
what Theorem 6 and the protocol promise (:func:`check_schedule`):

* *soundness* -- a run that ends ``maximal`` satisfies every
  dependency (``judge``);
* *progress* -- a run whose every site is up at the end ends
  ``maximal``;
* *agreement* -- the production engine and the reference
  (:mod:`tests.scheduler.reference`: every guard re-evaluated on every
  announcement) take the same schedule to the same timeline, message
  counts, terminal state and final actor status, residual and
  knowledge.

A failure raises :class:`ScheduleFailure`, which names the property and
the choice prefix that reproduces it (:func:`run_schedule`).

With a crash planned, the crash timer is one more enabled callback at
every step, so one schedule per step crashes the site there, at that
step's time, and restarts it as long after as planned; the fault plan
brings the reliable sessions with it, whose acknowledgements and
retransmission timers are choices too.  A restart sooner than the
fabric's latency leaves messages in flight across it: the crashed
site's unacknowledged sends die with its sessions, and a straggler of
the old sessions is discarded as stale.  The crash is the one deviation
explored by default, and the site restarts, so progress still asks for
a ``maximal`` run.  The crash is offered until the planned timer would
fire, that is within the first ``sim.run()``: a fault plan's crashes
never land in the drain at quiescence.

Run as a module, it explores Example 13 (one cluster of two tasks) at
delay bound 2, one travel instance at delay bound 3 and the two
settled-role specs at delay bound 1, and a crash of each Example 13
and travel site at any step with three down times, under both
engines, which takes too long for the tier-1 suite::

    PYTHONPATH=src python -W error -m tests.scheduler.explorer
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from dataclasses import dataclass
from unittest import mock

import repro.scheduler.base
from repro.algebra.symbols import Event
from repro.scheduler import DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import ExecutionResult
from repro.scheduler.oracle import judge
from repro.sim.clock import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, SiteCrash
from repro.sim.network import Network
from repro.temporal.guards import workflow_bindings
from repro.workflows.spec import Workflow
from repro.workloads.scenarios import (
    Scenario,
    make_mutex_family,
    make_travel_booking,
)

from .reference import engine


def _is(fn, method) -> bool:
    """Whether the simulator entry's ``fn`` is ``method`` bound to some
    instance."""
    return getattr(fn, "__func__", None) is method


def _channel(fn, args: tuple) -> tuple[str, str] | None:
    """The ``(src, dst)`` channel a fabric delivery travels on: a
    ``Network._deliver`` entry's first two arguments; ``None`` for any
    other callback."""
    return args[:2] if _is(fn, Network._deliver) else None


class ScheduleMismatch(Exception):
    """A prefix named a choice the run did not offer (a replay on an
    engine that diverged earlier)."""


class ChoosingSimulator(Simulator):
    """A :class:`Simulator` whose every step pops the enabled callback
    ``prefix`` names (index into the enabled callbacks in ``(time,
    sequence)`` order; 0 is the plain simulator's pick).

    ``taken`` and ``widths`` record the choice made and the number
    offered at each step, and ``crashes`` the index a planned crash's
    timer has among them (``None`` once it fired).  The clock never runs
    backwards: a callback picked ahead of an earlier-due one fires at
    the current time, and a timer picked ahead of its time moves the
    clock to it -- except the crash timer, which fires at the current
    time and plans the restart as long after it as planned.
    """

    def __init__(self, prefix: tuple[int, ...] = ()) -> None:
        super().__init__()
        self.prefix = prefix
        self.taken: list[int] = []
        self.widths: list[int] = []
        self.crashes: list[int | None] = []
        #: handle -> the channel its delivery travels on (or ``None``)
        self._channels: dict[int, tuple[str, str] | None] = {}
        #: the handle of the planned crash's timer
        self._crash: int | None = None

    def schedule(self, delay, fn, *args) -> int:
        handle = super().schedule(delay, fn, *args)
        self._note(handle, fn, args)
        return handle

    def schedule_at(self, time, fn, *args) -> int:
        handle = super().schedule_at(time, fn, *args)
        self._note(handle, fn, args)
        return handle

    def _note(self, handle: int, fn, args: tuple) -> None:
        self._channels[handle] = _channel(fn, args)
        if _is(fn, FaultInjector._crash):
            self._crash = handle

    def enabled(self) -> list[tuple]:
        """The callbacks that may fire next, oldest first."""
        heads = set()
        enabled = []
        for entry in self.queued():
            channel = self._channels[entry[1]]
            if channel is not None:
                if channel in heads:
                    continue  # behind an older delivery on its channel
                heads.add(channel)
            enabled.append(entry)
        return enabled

    def step(self) -> bool:
        if self._head() is None:  # drops the dead entries ahead
            return False
        enabled = self.enabled()
        index = len(self.taken)
        choice = self.prefix[index] if index < len(self.prefix) else 0
        if choice >= len(enabled):
            raise ScheduleMismatch(
                f"step {index} offers {len(enabled)} choices, not {choice + 1}"
            )
        self.taken.append(choice)
        self.widths.append(len(enabled))
        crash = self._crash if self._crash in self._live else None
        self.crashes.append(
            None if crash is None
            else next(i for i, e in enumerate(enabled) if e[1] == crash)
        )
        when, seq, fn, *args = enabled[choice]
        # the entry stays queued, dead: ``queued`` skips it
        self._live.discard(seq)
        if seq == self._crash:
            # the crash happens at the step that picks it, and the site
            # stays down as long as planned: what is in flight then
            # lands after a short outage
            (planned,) = args
            args = (
                dataclasses.replace(
                    planned, at=self.now,
                    restart_at=self.now + planned.restart_at - planned.at,
                ),
            )
        else:
            self.now = max(self.now, when)
        for sampler in self._samplers:
            sampler.on_advance(self.now)
        self.processed += 1
        fn(*args)
        return True

    def run(
        self, until: float | None = None, max_events: int = 1_000_000
    ) -> None:
        """One :meth:`step` per choice until nothing is due, or the
        earliest due entry lies beyond ``until``: the plain simulator's
        loop fires a whole instant in one pass, which would bypass the
        choice."""
        budget = max_events
        while (time := self._head()) is not None:
            if until is not None and time > until:
                self.now = until
                return
            if not budget:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely livelock"
                )
            budget -= 1
            self.step()


@dataclass
class Run:
    """One scenario run along one schedule."""

    sched: DistributedScheduler
    result: ExecutionResult
    taken: list[int]
    widths: list[int]
    crashes: list[int | None]


@functools.lru_cache(maxsize=64)
def _guards(dependencies: tuple) -> dict:
    """A spec's guard table, synthesized once for all its runs."""
    return workflow_bindings(list(dependencies))


def run_schedule(
    scenario: Scenario,
    prefix: tuple[int, ...] = (),
    reference: bool = False,
    crash: SiteCrash | None = None,
) -> Run:
    """Run ``scenario`` along ``prefix``, then the default pick, under
    the production engine (or the reference): on the raw fabric, or
    with ``crash`` planned, on the reliable sessions a fault plan
    brings with it."""
    sims: list[ChoosingSimulator] = []

    def simulator() -> ChoosingSimulator:
        sims.append(ChoosingSimulator(prefix))
        return sims[-1]

    workflow = scenario.workflow
    with mock.patch.object(repro.scheduler.base, "Simulator", simulator):
        sched = engine(reference)(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            guards=_guards(tuple(workflow.dependencies)),
            fault_plan=None if crash is None else FaultPlan.of([crash]),
        )
    result = sched.run(scenario.scripts, verify=False)
    (sim,) = sims
    return Run(sched, result, sim.taken, sim.widths, sim.crashes)


def observables(run: Run) -> dict:
    """What engine agreement compares: the schedule itself, the
    timeline with times, messages by kind, the terminal state, and each
    role's final status, knowledge and residual."""
    result = run.result
    return {
        "schedule": (run.taken, run.widths),
        "timeline": [(repr(e.event), e.time) for e in result.entries],
        "messages": dict(sorted(result.messages_by_kind.items())),
        "terminal": result.terminal,
        "actors": {
            repr(role.event): (
                role.status.name,
                sorted((repr(b), m) for b, m in role.knowledge.items()),
                repr(role.guard),
            )
            for role in sorted(
                run.sched.roles(), key=lambda role: role.event.sort_key()
            )
        },
    }


def deviations(taken) -> dict[int, int]:
    """A schedule's non-default choices, ``{step: choice}``."""
    return {step: choice for step, choice in enumerate(taken) if choice}


def as_prefix(deviated: dict[int, int]) -> tuple[int, ...]:
    """The choice prefix that replays ``deviations(taken)``."""
    if not deviated:
        return ()
    prefix = [0] * (max(deviated) + 1)
    for step, choice in deviated.items():
        prefix[step] = choice
    return tuple(prefix)


class ScheduleFailure(AssertionError):
    """A property failed on an explored schedule.  ``prefix`` replays
    it: ``run_schedule(scenario, prefix)``."""

    def __init__(self, prop: str, taken, detail: str):
        self.property = prop
        self.prefix = as_prefix(deviations(taken))
        super().__init__(
            f"{prop} fails on the schedule with choice prefix "
            f"{list(self.prefix)}: {detail}"
        )


def check_schedule(
    scenario: Scenario,
    prefix: tuple[int, ...],
    agreement: bool = True,
    crash: SiteCrash | None = None,
) -> Run:
    """Run ``prefix`` (with ``crash`` planned) and check soundness,
    progress and (with ``agreement``) engine agreement on it; returns
    the production run."""
    run = run_schedule(scenario, prefix, crash=crash)
    result = run.result
    if result.terminal != "maximal":
        raise ScheduleFailure(
            "progress", run.taken,
            f"ended {result.terminal} with {result.unsettled} unsettled",
        )
    found = judge(result.trace, scenario.workflow.dependencies)
    if found:
        raise ScheduleFailure(
            "soundness", run.taken,
            f"maximal trace {result.trace!r}: {found[0].detail}",
        )
    if agreement:
        try:
            reference = observables(
                run_schedule(scenario, prefix, True, crash)
            )
        except ScheduleMismatch as exc:
            reference = {"schedule": str(exc)}
        production = observables(run)
        if production != reference:
            differ = sorted(
                key for key in production
                if production[key] != reference.get(key)
            )
            raise ScheduleFailure(
                "agreement", run.taken,
                f"the production engine differs from the reference in "
                f"{differ}",
            )
    return run


def explore(
    scenario: Scenario,
    bound: int | None = None,
    agreement: bool = True,
    crash: SiteCrash | None = None,
) -> int:
    """Check every schedule of ``scenario`` with at most ``bound``
    non-default choices (``None``: all of them), depth first; returns
    how many were explored.

    With ``crash`` planned (:func:`planned_crash`), its timer is
    enabled at every step until it fires, and each schedule that picks
    it at one step of the default schedule is explored too; that pick
    is not counted against ``bound``, and ``bound`` deviations may
    follow it."""
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    explored = 0
    while stack:
        prefix, used = stack.pop()
        run = check_schedule(scenario, prefix, agreement, crash)
        explored += 1
        if not prefix:
            for step, index in enumerate(run.crashes):
                if not index:
                    break  # the default schedule crashes here
                stack.append(((0,) * step + (index,), 0))
        if bound is not None and used >= bound:
            continue
        taken = tuple(run.taken)
        for step in range(len(taken) - 1, len(prefix) - 1, -1):
            for choice in range(run.widths[step] - 1, 0, -1):
                if choice != run.crashes[step]:
                    stack.append((taken[:step] + (choice,), used + 1))
    return explored


#: when an explored crash is planned, and how long its site stays down:
#: planned past the end of every spec's fault-free run, so the default
#: schedule crashes the site only once nothing else is pending, and down
#: for less than the fabric's latency (1), so what is in flight when the
#: crash is picked lands after the restart, and a straggler of the old
#: sessions is discarded as stale
CRASH_AT, DOWN_FOR = 100.0, 0.5

#: the down times the module's ``__main__`` explores: back before any
#: message in flight lands, after the first retransmission timeout (4),
#: and after several
DOWN_TIMES = (DOWN_FOR, 5.0, 40.0)


def planned_crash(site: str, down_for: float = DOWN_FOR) -> SiteCrash:
    """A crash of ``site`` for :func:`explore` to place at any step."""
    return SiteCrash(site, at=CRASH_AT, restart_at=CRASH_AT + down_for)


def sites(scenario: Scenario) -> list[str]:
    """The sites ``scenario``'s bases live on."""
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
    )
    return sorted({actor.site for actor in sched.actors.values()})


# ----------------------------------------------------------------------
# the specs: the paper's Examples 10, 11 and 13, one travel instance
# (Example 12), three random specs that pin engine agreement, the
# random lane's residuals, exclusive choice and Klein precedence fanned
# out k times


def _scenario(name: str, dependencies, attempts, **attributes) -> Scenario:
    """A workflow with one site per base (the scheduler's default) and
    one script per attempted event, at time 0 unless given."""
    workflow = Workflow(name)
    for dep in dependencies:
        workflow.add(dep)
    for event, attrs in attributes.items():
        workflow.set_attributes(Event(event), **attrs)
    scripts = []
    for attempt in attempts:
        event, _, at = attempt.partition("@")
        signed = ~Event(event[1:]) if event.startswith("~") else Event(event)
        scripts.append(
            AgentScript(
                f"site_{signed.base.name}",
                [ScriptedAttempt(float(at or 0.0), signed)],
            )
        )
    return Scenario(workflow=workflow, scripts=scripts, description=name)


def ex10() -> Scenario:
    """Example 10: ``f`` is attempted first and parks until ``~e``."""
    return _scenario("ex10", ["~e + ~f + e . f"], ["f", "~e@5"])


def ex11() -> Scenario:
    """Example 11: mutual eventuality, settled by a promise."""
    return _scenario("ex11", ["~e + f", "~f + e"], ["e", "f"])


def consensus3() -> Scenario:
    """Example 11's consensus closed over a 3-cycle of arrows."""
    return _scenario(
        "consensus3", ["~e + f", "~f + g", "~g + e"], ["e", "f", "g"]
    )


def ex13() -> Scenario:
    """Example 13: one cluster of two critical-section tasks, every
    scripted attempt made."""
    workflow, scripts = make_mutex_family(2, cluster=2).merged()
    return Scenario(workflow=workflow, scripts=scripts, description="ex13")


def travel() -> Scenario:
    """One Example 12 travel instance, on its success path."""
    return make_travel_booking("success")


def rerequest() -> Scenario:
    """A random spec on which the engines once disagreed: a refused
    promise request was sent again on a wake that only the reference
    engine took."""
    return _scenario(
        "rerequest",
        ["~b + ~a + b . d . a", "~c + b", "~a + c"],
        ["a@5", "~b@1", "c@5", "~d@0"],
    )


def settled_lag() -> Scenario:
    """A random spec on which the engines once disagreed: the dead role
    ``c`` went on learning after its base settled, and its residual
    followed that knowledge in the reference engine only."""
    return _scenario(
        "settled_lag",
        ["~a + ~c + a . d . c", "~b + ~d + b . c . d", "b + a"],
        ["a@0", "~b@0", "c@1", "~d@0"],
    )


def settled_residual() -> Scenario:
    """A random spec whose role ``~d`` fires on a grant it has not
    assimilated: its residual at settlement is read under its final
    knowledge, or the two engines render it differently."""
    return _scenario(
        "settled_residual",
        ["c + d", "~b + ~d + b . a . d", "~d + ~b + d . c . b"],
        ["~a@1", "~b@1", "c@0", "~d@0"],
    )


#: what the random lane (:mod:`tests.scheduler.random_specs`, 60 000
#: specs at seed 1) still finds, by spec index: three unsound runs as
#: drawn, each ending maximal with a broken promise, and two stuck runs
#: shrunk to the fewest attempts that keep them stuck
LANE_RESIDUALS = {
    "unsound450": (
        ["~a + ~b + b . d . a", "~c + ~d + d . b . c", "a + c"],
        ["a@0", "b@0", "c@5", "~d@0"],
    ),
    "unsound32513": (
        ["~c + ~d + d . a . c", "~a + ~b + a . d . b", "~a + c"],
        ["a@1", "b@0", "c@0", "d@0"],
    ),
    "unsound33837": (
        ["b + ~c", "~c + ~d + d . a . c", "~a + ~b + a . c . b"],
        ["a@0", "b@1", "~c@5", "d@5"],
    ),
    "stuck37771": (
        ["~a + ~b + b . d . a", "~b + c", "b + ~d"],
        ["a", "b", "d"],
    ),
    "stuck59839": (
        ["~a + ~b + a . d . b", "~b + ~c + c . a . b", "b + d"],
        ["a", "b", "c"],
    ),
}


def lane_residual(name: str) -> Scenario:
    """One of :data:`LANE_RESIDUALS`."""
    return _scenario(name, *LANE_RESIDUALS[name])


def xor(b_at: float = 5.0) -> Scenario:
    """Exclusive choice: exactly one of ``a`` and ``b`` occurs; ``a``
    is attempted at 0 and ``b`` at ``b_at``."""
    return _scenario("xor", ["a + b", "~a + ~b"], ["a", f"b@{b_at}"])


def precede(k: int) -> Scenario:
    """``e`` before each of ``f0 .. f{k-1}`` (``examples/precede.wf``),
    every event attempted at once."""
    return _scenario(
        f"precede{k}",
        [f"~e + ~f{i} + e . f{i}" for i in range(k)],
        ["e"] + [f"f{i}" for i in range(k)],
    )


def main() -> int:
    """Explore Example 13 at delay bound 2, travel at delay bound 3 and
    the two settled-role specs at delay bound 1, then one crash of each
    Example 13 and travel site at any step with each of
    :data:`DOWN_TIMES`, under both engines; print the failing choice
    prefix on failure."""
    runs = [
        (f"{name} at d={bound}", scenario, bound, None)
        for name, scenario, bound in (
            ("ex13", ex13, 2), ("travel", travel, 3),
            ("settled_lag", settled_lag, 1),
            ("settled_residual", settled_residual, 1),
        )
    ]
    runs += [
        (f"{name} crashing {site} for {down_for:g}", scenario, 0,
         planned_crash(site, down_for))
        for name, scenario in (("ex13", ex13), ("travel", travel))
        for site in sites(scenario())
        for down_for in DOWN_TIMES
    ]
    for label, scenario, bound, crash in runs:
        start = time.perf_counter()
        try:
            explored = explore(scenario(), bound=bound, crash=crash)
        except ScheduleFailure as failure:
            print(f"{label}: {failure}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        print(f"{label}: {explored} schedules hold, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
