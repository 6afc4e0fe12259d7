"""The protocol's mechanisms, each against the mutant that deletes it,
and network failure injection.

Section 4.3's protocol runs in one configuration.  Each ablation class
below pairs a mechanism's test with a run of its mutant
(:mod:`tests.scheduler.mutants`) that shows what the mechanism buys:
under the mutant, the mechanism's test fails.
"""

import random

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import satisfies
from repro.scheduler import DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.messages import NotYetReply
from repro.sim import FaultPlan, SiteCrash
from repro.sim.clock import Simulator
from repro.sim.network import Network
from repro.temporal import minimize, workflow_guards
from repro.workloads.generators import chain_workflow, scripts_for
from repro.workloads.scenarios import make_travel_booking

from . import mutants

E, F = Event("e"), Event("f")


def run_scenario(scenario, **kwargs):
    w = scenario.workflow
    sched = DistributedScheduler(
        w.dependencies, sites=w.sites, attributes=w.attributes, **kwargs
    )
    return sched.run(scenario.scripts)


def minimized_guards(workflow):
    """The ``guards=`` recipe for prime-cover-minimized actors."""
    return {
        event: minimize(g)
        for event, g in workflow_guards(workflow.dependencies).items()
    }


class TestPromiseChainingAblation:
    @staticmethod
    def _dropped_chain():
        """The dropped-head chain: a 4-stage chain with half its
        attempts made (``scripts_for`` seed 3)."""
        w = chain_workflow(4)
        scripts = scripts_for(w, seed=3, participation=0.5)
        return DistributedScheduler(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run([AgentScript(s.site, list(s.attempts)) for s in scripts])

    def test_chaining_prevents_broken_promises_on_dropped_chain(self):
        """The dropped-head chain settles all-negative cleanly: no
        grantee promises before its own needs are secured."""
        result = self._dropped_chain()
        assert result.ok
        assert not result.unsettled

    def test_without_chaining_a_promise_breaks_on_dropped_chain(self):
        """Mutant: an optimistic grant lets the head fire on a promise
        that is later broken."""
        with mutants.no_chaining():
            result = self._dropped_chain()
        assert any(v.kind == "promise" for v in result.violations)

    def test_chaining_off_still_fine_on_simple_mutual(self):
        """Mutant: Example 11's 2-cycle is safe even optimistically --
        the consensus requirement is too strong here (Section 6)."""
        deps = [parse("~e + f"), parse("~f + e")]
        with mutants.no_chaining():
            result = DistributedScheduler(deps).run(
                [
                    AgentScript("se", [ScriptedAttempt(0.0, E)]),
                    AgentScript("sf", [ScriptedAttempt(0.0, F)]),
                ]
            )
        assert result.ok
        assert {en.event for en in result.entries} == {E, F}


class TestLazyTriggeringAblation:
    @staticmethod
    def _alternative_workflow():
        """``~e + a_comp + z_real``: e needs either the (triggerable)
        fallback ``a_comp`` or the real event ``z_real``, which a task
        attempts shortly after e.  Lazy triggering waits for the real
        event; eager triggering causes the fallback at once."""
        from repro.scheduler.events import EventAttributes

        a_comp, z_real = Event("a_comp"), Event("z_real")
        deps = [parse("~e + a_comp + z_real")]
        attributes = {a_comp: EventAttributes(triggerable=True)}
        scripts = [
            AgentScript(
                "s",
                [ScriptedAttempt(0.0, E), ScriptedAttempt(2.0, z_real)],
            )
        ]
        return deps, attributes, scripts, a_comp, z_real

    def test_lazy_triggering_prefers_the_real_event(self):
        deps, attributes, scripts, a_comp, z_real = self._alternative_workflow()
        result = DistributedScheduler(deps, attributes=attributes).run(
            [AgentScript(s.site, list(s.attempts)) for s in scripts]
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert z_real in occurred
        assert a_comp not in occurred  # the fallback never ran

    def test_eager_triggering_runs_the_fallback_needlessly(self):
        """Mutant: a plain request triggers the idle fallback at once."""
        deps, attributes, scripts, a_comp, z_real = self._alternative_workflow()
        with mutants.eager_triggering():
            result = DistributedScheduler(deps, attributes=attributes).run(
                [AgentScript(s.site, list(s.attempts)) for s in scripts]
            )
        assert result.ok  # still a valid trace...
        occurred = {en.event for en in result.entries}
        assert a_comp in occurred  # ...but the fallback fired eagerly

    def test_failure_path_unaffected(self):
        """Lazy triggering still compensates on the failure path."""
        result = run_scenario(make_travel_booking("failure"))
        assert result.ok
        assert any(
            en.event.name == "s_cancel" and not en.event.negated
            for en in result.entries
        )


class TestCertificateAblation:
    D = parse("~e + ~f + e . f")

    def _precedence(self):
        """D_< with e attempted at 0 and f at 1."""
        attempts = [ScriptedAttempt(0.0, E), ScriptedAttempt(1.0, F)]
        return DistributedScheduler([self.D]).run([AgentScript("s", attempts)])

    def test_certificates_let_e_fire_while_f_is_parked(self):
        """D_<: a not-yet round certifies ``!f``, so e fires while f is
        merely parked."""
        result = self._precedence()
        assert [en.event for en in result.entries] == [E, F]
        assert result.not_yet_rounds >= 1

    def test_without_certificates_precedence_serializes(self):
        """Mutant: e must wait for f's base to settle -- here that
        means the run degrades to the all-negative/partial outcome."""
        with mutants.no_certificates():
            result = self._precedence()
        # no certificate protocol: no rounds ran; trace stays valid
        assert result.not_yet_rounds == 0
        assert [en.event for en in result.entries] != [E, F]
        assert satisfies(result.trace, self.D)


class TestEscalationAblation:
    @staticmethod
    def _multi_alternative():
        """``~e + a + b`` with both alternatives triggerable and nobody
        attempting them: only quiescence escalation can cause one."""
        from repro.scheduler.events import EventAttributes

        a, b = Event("a"), Event("b")
        deps = [parse("~e + a + b")]
        attributes = {
            a: EventAttributes(triggerable=True),
            b: EventAttributes(triggerable=True),
        }
        return deps, attributes

    def test_escalation_resolves_parked_alternatives(self):
        deps, attributes = self._multi_alternative()
        result = DistributedScheduler(deps, attributes=attributes).run(
            [AgentScript("s", [ScriptedAttempt(0.0, E)])]
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert E in occurred
        assert result.triggered >= 1

    def test_without_escalation_everything_settles_negative(self):
        """Mutant: e parks on its alternatives until settlement turns
        it negative."""
        deps, attributes = self._multi_alternative()
        with mutants.no_escalation():
            result = DistributedScheduler(deps, attributes=attributes).run(
                [AgentScript("s", [ScriptedAttempt(0.0, E)])]
            )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert E not in occurred
        assert result.triggered == 0


class TestDuplicateCertificateAblation:
    @staticmethod
    def _duplicated():
        """``e`` before ``f`` and before ``g``, with ``g``'s site gone
        for good: ``e``'s round holds ``f``'s certificate and awaits
        ``g`` forever, when a second copy of the certificate arrives
        (the raw fabric may duplicate any message)."""
        G = Event("g")
        deps = [parse("~e + ~f + e . f"), parse("~e + ~g + e . g")]
        sched = DistributedScheduler(
            deps, fault_plan=FaultPlan.of([SiteCrash("site_g", at=0.0)])
        )
        sched.start([AgentScript("site_e", [ScriptedAttempt(1.0, E)])])
        sched.sim.run()
        role = sched.role(E)
        hold = (E, role.round_id)
        assert role.round_awaiting == {G} and role.round_holds == {F}
        assert sched.actors[F].frozen == {hold}
        duplicate = NotYetReply(
            target=F, requester=E, status="not_yet", round_id=role.round_id
        )
        sched.send_to_role(sched.actors[F], E, duplicate)
        sched.sim.run()
        return sched.actors[F].frozen, hold

    def test_a_duplicate_certificate_keeps_its_freeze(self):
        frozen, hold = self._duplicated()
        assert frozen == {hold}

    def test_taken_for_a_stale_one_it_releases_the_freeze(self):
        """Mutant: ``f`` is released while the round still counts on
        its certificate."""
        with mutants.duplicate_releases():
            frozen, _hold = self._duplicated()
        assert frozen == frozenset()


class TestFailureInjection:
    def test_network_validates_probabilities(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, drop_probability=1.5)
        with pytest.raises(ValueError):
            Network(sim, duplicate_probability=-0.1)

    def test_drops_are_counted_and_detected(self):
        """With heavy message loss the run may wedge -- but it must
        *report* that (unsettled bases / violations), never silently
        claim success with an invalid trace."""
        scenario = make_travel_booking("success")
        clean_traces = 0
        for seed in range(6):
            w = scenario.workflow
            sched = DistributedScheduler(
                w.dependencies,
                sites=w.sites,
                attributes=w.attributes,
                rng=random.Random(seed),
                drop_probability=0.3,
            )
            result = sched.run(scenario.scripts)
            if result.ok:
                clean_traces += 1
                # an ok run must really satisfy the dependencies
                for dep in w.dependencies:
                    assert satisfies(result.trace, dep)
            else:
                assert result.unsettled or result.violations
            assert sched.network.stats.dropped > 0

    def test_duplicates_are_harmless(self):
        """Announcements and grants are idempotent: duplication changes
        counts but never correctness."""
        scenario = make_travel_booking("success")
        w = scenario.workflow
        sched = DistributedScheduler(
            w.dependencies,
            sites=w.sites,
            attributes=w.attributes,
            rng=random.Random(7),
            duplicate_probability=0.3,
        )
        result = sched.run(scenario.scripts)
        assert result.ok, result.violations
        assert sched.network.stats.duplicated > 0
        occurred = {en.event for en in result.entries}
        assert scenario.expect_occur <= occurred

    def test_zero_probability_is_default_behaviour(self):
        scenario = make_travel_booking("failure")
        w = scenario.workflow
        sched = DistributedScheduler(
            w.dependencies, sites=w.sites, attributes=w.attributes
        )
        result = sched.run(scenario.scripts)
        assert sched.network.stats.dropped == 0
        assert sched.network.stats.duplicated == 0
        assert result.ok


class TestMinimizedGuards:
    """Running the actors on prime-cover-minimized guards preserves
    behaviour on every canonical scenario (the regions are equal; only
    the cube decomposition differs)."""

    @pytest.mark.parametrize("outcome", ["success", "failure"])
    def test_travel_scenarios(self, outcome):
        scenario = make_travel_booking(outcome)
        plain = run_scenario(scenario)
        minimized = run_scenario(
            scenario, guards=minimized_guards(scenario.workflow)
        )
        assert plain.ok and minimized.ok
        assert {en.event for en in plain.entries} == {
            en.event for en in minimized.entries
        }

    def test_mutex_scenario(self):
        from repro.workloads.scenarios import make_mutex_scenario

        scenario = make_mutex_scenario("t1")
        result = run_scenario(
            scenario, guards=minimized_guards(scenario.workflow)
        )
        assert result.ok
        order = [en.event.name for en in result.entries]
        b1, e1 = order.index("b1"), order.index("e1")
        b2, e2 = order.index("b2"), order.index("e2")
        assert e1 < b2 or e2 < b1

    def test_minimization_reduces_actor_state(self):
        from repro.scheduler import DistributedScheduler

        scenario = make_travel_booking("success")
        w = scenario.workflow
        plain = DistributedScheduler(
            w.dependencies, sites=w.sites, attributes=w.attributes
        )
        small = DistributedScheduler(
            w.dependencies, sites=w.sites, attributes=w.attributes,
            guards=minimized_guards(w),
        )
        plain_size = sum(r.guard.literal_count() for r in plain.roles())
        small_size = sum(r.guard.literal_count() for r in small.roles())
        assert small_size < plain_size
