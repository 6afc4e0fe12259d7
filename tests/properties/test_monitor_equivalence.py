"""The closure-walking requirement monitor equals the residuating one.

``RequirementMonitor`` keeps, per dependency, a state of the residual
closure its *shape* shares with guard synthesis plus this copy's
binding; the body it replaced re-residuated every dependency on every
occurrence and re-derived the accepting paths of every residual on
every evaluation.  That body is kept here as :class:`ReferenceMonitor`
(as ``ReferenceCursor`` is for the compiled guards) and the two are
driven in lock step: same triggers in the same order, same doomed
reports repetitions included, same trace records, the
*identical interned* residual after every step, the same snapshot.

The reference also checks, at every state it reaches, the argument
that lets the new monitor key its answer on the state alone: the
``settled_bases`` filter of ``required_events`` never removes a path.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import Atom, Choice, Seq
from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event, Variable
from repro.obs import Tracer
from repro.scheduler import DistributedScheduler, EventAttributes
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.monitors import RequirementMonitor, required_events
from repro.sim import FaultPlan, SiteCrash
from repro.temporal.cubes import TRUE_GUARD
from repro.temporal.guards import clear_synthesis_caches, synthesis_stats
from tests.conftest import run_stamped_travel

from .strategies import BASES, expressions, signed_events


@pytest.fixture(autouse=True, scope="module")
def memo_tables_of_this_intern_table():
    """``is`` below means *the* interned node.  Earlier tests drop the
    expression table but not the memo tables keyed on it, which then
    answer with nodes of the dropped table; start from empty ones."""
    residuate.cache_clear()
    to_normal_form.cache_clear()
    clear_synthesis_caches()


class ReferenceMonitor:
    """``RequirementMonitor`` as it stood before the shared closure:
    one ``residuate`` per dependency per occurrence, one
    ``required_events`` (an ``accepting_paths`` enumeration) per
    residual per evaluation."""

    def __init__(self, dependencies, triggerable, trigger, doomed=None,
                 site="monitor"):
        self._residuals = {dep: to_normal_form(dep) for dep in dependencies}
        self._triggerable = frozenset(b.base for b in triggerable)
        self._trigger = trigger
        self._doomed = doomed
        self._site = site
        self._settled = set()
        self._observed = []
        self._already_triggered = set()

    def observe(self, event):
        if event.base in self._settled:
            return
        self._settled.add(event.base)
        self._observed.append(event)
        for dep in list(self._residuals):
            self._residuals[dep] = residuate(self._residuals[dep], event)
        self.evaluate()

    def evaluate(self):
        settled = frozenset(self._settled)
        for dep, residual in self._residuals.items():
            required = required_events(residual, settled)
            # the dead-filter argument, checked rather than trusted
            assert required == required_events(residual, frozenset()), (
                residual, settled,
            )
            if required is None:
                if self._doomed is not None:
                    self._doomed(dep, residual)
                continue
            for ev in sorted(required, key=Event.sort_key):
                if ev.negated:
                    continue
                if ev.base in self._triggerable and ev not in self._already_triggered:
                    self._already_triggered.add(ev)
                    self._trigger(ev)

    def residual(self, dependency):
        return self._residuals[dependency]

    @property
    def residuals(self):
        return dict(self._residuals)

    def snapshot_state(self):
        return {
            "site": self._site,
            "settled": sorted(repr(e) for e in self._observed),
            "triggered": sorted(repr(e) for e in self._already_triggered),
            "residuals": {
                repr(dep): repr(res) for dep, res in self._residuals.items()
            },
        }


class Driven:
    """One monitor of either kind with everything it emits recorded."""

    def __init__(self, kind, dependencies, triggerable):
        self.triggers, self.doomed = [], []
        self.monitor = kind(
            dependencies, triggerable, self.triggers.append,
            doomed=lambda dep, residual: self.doomed.append((dep, residual)),
        )

    def emitted(self):
        return self.triggers, self.doomed, self.monitor.snapshot_state()


def assert_lock_step(dependencies, triggerable, occurrences):
    """Drive both monitors through ``evaluate`` and then every
    occurrence, comparing all they emit after each step."""
    new = Driven(RequirementMonitor, dependencies, triggerable)
    old = Driven(ReferenceMonitor, dependencies, triggerable)

    def compare():
        assert new.emitted() == old.emitted()
        assert list(new.monitor.residuals) == list(old.monitor.residuals)
        for dep in old.monitor.residuals:
            assert new.monitor.residual(dep) is old.monitor.residual(dep)

    for monitor in (new.monitor, old.monitor):
        monitor.evaluate()
    compare()
    for event in occurrences:
        for monitor in (new.monitor, old.monitor):
            monitor.observe(event)
        compare()
    # a monitor that is doomed stays doomed and says so every time
    for monitor in (new.monitor, old.monitor):
        monitor.evaluate()
    compare()


#: ``h`` is foreign to every generated dependency
OCCURRENCES = st.lists(signed_events(BASES + [Event("h")]), max_size=8)


@given(
    # a list of dependencies may hold the same one twice: the monitor
    # keys on the dependency, so duplicates collapse
    st.lists(expressions(), min_size=1, max_size=3).flatmap(
        lambda deps: st.sampled_from([deps, deps + deps[:1]])
    ),
    st.sets(st.sampled_from(BASES)),
    OCCURRENCES,
)
def test_monitor_matches_reference(dependencies, triggerable, occurrences):
    assert_lock_step(dependencies, frozenset(triggerable), occurrences)


X = Variable("x")
P1, P2, QX, Q3 = (
    Event("p", params=(1,)), Event("p", params=(2,)),
    Event("q", params=(X,)), Event("q", params=(3,)),
)


@pytest.mark.parametrize("occurrences", [
    [P1, QX, P2],
    [~P1, Q3, QX],
    [Q3, P1, P1, ~QX, P2],  # a token foreign to the type, a repeat
    [P2, P1, QX],           # p[2] before q[?x]: the sequence is dead
])
def test_parametrized_atoms(occurrences):
    """Event types keep their slots non-ground, tokens of another
    binding are foreign, order lives in the parameter reprs."""
    dependency = Choice.of([
        Atom(~P1), Seq.of([Atom(QX), Atom(P2)]),
    ])
    assert_lock_step(
        [dependency, Atom(QX)], frozenset({QX, P2}), occurrences
    )


A, B, C = Event("a"), Event("b"), Event("c")


def monitored_run(fault_plan=None, tracer=None):
    """``a`` at site x makes the monitor at site y trigger ``b``, which
    makes it trigger ``c``.  The guards are handed in unconstrained, so
    the monitor is the only thing that causes either."""
    sched = DistributedScheduler(
        [parse("~a + b"), parse("~b + c")],
        sites={A: "x", B: "y", C: "y"},
        attributes={
            B: EventAttributes(triggerable=True),
            C: EventAttributes(triggerable=True),
        },
        guards={e: TRUE_GUARD for base in (A, B, C) for e in (base, ~base)},
        rng=random.Random(0),
        reliable=True,
        fault_plan=fault_plan,
        tracer=tracer,
    )
    (built,) = sched._monitors
    result = sched.run([AgentScript("x", [ScriptedAttempt(0.0, A)])])
    assert result.ok, (result.violations, result.unsettled)
    (standing,) = sched._monitors
    return built, standing


def test_recovered_monitor_matches_an_uncrashed_twin():
    """A crashed site's monitor is rebuilt from its construction spec
    and resynced from the coordinators' settlement logs (here after
    everything settled, so the replay is the whole history): it walks
    its closures to where the monitor that never crashed stands, and
    triggers what that one triggered on the way."""
    built, survivor = monitored_run()
    assert survivor is built
    built, rebuilt = monitored_run(
        FaultPlan.of([SiteCrash("y", at=3.5, restart_at=6.0)])
    )
    assert rebuilt is not built
    assert list(rebuilt.residuals) == list(survivor.residuals)
    for dep, residual in survivor.residuals.items():
        assert rebuilt.residual(dep) is residual
    assert rebuilt.snapshot_state() == survivor.snapshot_state()
    assert rebuilt._already_triggered == survivor._already_triggered == {B, C}


def test_closure_count_depends_on_the_template_not_on_the_copies():
    """Monitors find the closures synthesis built for the template's
    shapes and add none of their own, however many copies run; they
    enter them from the bindings stamping composed, so no copy is
    normal-formed either."""
    closures, normal_forms, bound = [], [], []
    for copies in (1, 16):
        clear_synthesis_caches()
        to_normal_form.cache_clear()
        run_stamped_travel((["success", "failure"] * 8)[:copies])
        stats = synthesis_stats()
        closures.append(stats["closures"])
        normal_forms.append(to_normal_form.cache_info().misses)
        bound.append((stats["binding_misses"], stats["binding_hits"]))
    assert closures[0] == closures[1] > 0
    assert normal_forms[0] == normal_forms[1] > 0
    # only the template's own dependencies are bound; every copy's
    # binding is found where stamping put it
    assert bound[0][0] == bound[1][0] > 0
    assert bound[1][1] > bound[0][1]


def test_per_state_answers_die_with_their_closure():
    """``clear_synthesis_caches`` drops the closures and with them the
    per-state answers; a run after it rebuilds both and triggers the
    same events at the same times."""
    def triggers():
        tracer = Tracer()
        monitored_run(tracer=tracer)
        result, _ = run_stamped_travel(["failure", "success"], tracer=tracer)
        fired = [r for r in tracer.records if r["cat"] == "monitor"]
        assert [r["event"] for r in fired] == ["b", "c"]
        return fired, result.triggered

    before = triggers()
    clear_synthesis_caches()
    assert synthesis_stats()["closures"] == 0
    assert triggers() == before
    assert synthesis_stats()["closures"] > 0
