"""The distributed event-centric scheduler (Sections 2 and 4.3)."""

import gc
import random

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import satisfies
from repro.scheduler import (
    CentralizedScheduler,
    DistributedScheduler,
    EventAttributes,
)
from repro.scheduler import actors
from repro.scheduler.actors import EMPTY, BaseActor, Fanout
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.messages import Announce, NotYetRequest, TriggerMsg
from repro.sim import FaultPlan, SiteCrash
from repro.sim.network import ConstantLatency
from repro.temporal.cubes import C_OCC, DIA_MASK, E_OCC, TRUE_GUARD, literal
from repro.temporal.guards import workflow_bindings
from repro.workflows import WorkflowTemplate
from repro.workloads.scenarios import (
    make_mutex_family,
    make_order_fulfillment,
    make_travel_booking,
)
from tests.conftest import count_calls

E, F, G = Event("e"), Event("f"), Event("g")
D_PREC = parse("~e + ~f + e . f")
D_ARROW = parse("~e + f")


def run_one(deps, attempts, attributes=None, sites=None):
    sched = DistributedScheduler(
        deps, attributes=attributes or {}, sites=sites or {}
    )
    scripts = {}
    for time, event in attempts:
        site = (sites or {}).get(event.base, f"site_{event.base.name}")
        scripts.setdefault(site, []).append(ScriptedAttempt(time, event))
    result = sched.run(
        [AgentScript(site, atts) for site, atts in scripts.items()]
    )
    return result


class TestExample10:
    """f attempted first is parked; ~e occurs; f is enabled."""

    def test_trace_and_parking(self):
        result = run_one([D_PREC], [(0.0, F), (5.0, ~E)])
        assert result.ok
        assert [en.event for en in result.entries] == [~E, F]
        assert result.parked_total >= 1
        # f's decision latency covers the wait for ~e
        f_entry = result.entries[-1]
        assert f_entry.decision_latency > 0


class TestExample11:
    """Mutual <> guards resolved by conditional promises."""

    def test_both_occur(self):
        deps = [D_ARROW, parse("~f + e")]
        result = run_one(deps, [(0.0, E), (0.0, F)])
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {E, F}
        assert result.promises_granted >= 1

    def test_one_sided_attempt_settles_negative(self):
        """Only e attempted: f never arrives, so neither may occur."""
        deps = [D_ARROW, parse("~f + e")]
        result = run_one(deps, [(0.0, E)])
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {~E, ~F}


class TestAnnouncements:
    """A settlement goes to each subscribing actor that may still
    decide: not to one whose base the publisher knows has settled."""

    def test_a_base_known_settled_hears_nothing_until_a_crash(self):
        sched = DistributedScheduler([D_ARROW, parse("~f + e")])
        publisher, peer = sched.actors[E], sched.actors[F]
        sent = []
        sched.channel.send = lambda src, dst, kind, message, target: (
            sent.append((target, message))
        )

        def announced():
            sent.clear()
            sched.publish(publisher, E)
            return sent

        assert announced() == [(peer, Announce(event=E))]
        # what a role of the publisher knows is enough: here ~e heard
        # that ~f occurred
        sched.role(~E).learn(F, C_OCC)
        assert announced() == []
        # a crash wipes that knowledge: the publisher announces again
        publisher.crash_reset()
        assert announced() == [(peer, Announce(event=E))]
        # a promise of f leaves f's not-yet world open
        sched.role(E).learn(F, DIA_MASK)
        assert announced() == [(peer, Announce(event=E))]


class TestSiteAddressedFabric:
    """A fact crosses to each remote site once and fans out there; a
    message between two actors of one site is a hand-off, not a
    transmission."""

    B1, B2, B3, C1 = (Event(name) for name in ("b1", "b2", "b3", "c1"))

    def _spied(self, monkeypatch, **kwargs):
        """A scheduler where ``e`` (site A) is heard by ``b1``, ``b2``,
        ``b3`` (site B) and ``c1`` (site C), subscribed in the order
        b1, c1, b2, b3; and the log of the actors handed ``e``."""
        table = {E: TRUE_GUARD}
        for base in (self.B1, self.C1, self.B2, self.B3):
            table[base] = literal("box", E)
        sites = {E: "A", self.C1: "C"}
        sites.update({b: "B" for b in (self.B1, self.B2, self.B3)})
        sched = DistributedScheduler(
            [], guards=table, sites=sites, latency=ConstantLatency(1.0),
            **kwargs,
        )
        heard = []
        on_announce = BaseActor.on_announce

        def logged(actor, msg):
            heard.append(actor.base)
            on_announce(actor, msg)

        # a fanout calls the method, a lone actor's __call__ its handler
        monkeypatch.setattr(BaseActor, "on_announce", logged)
        monkeypatch.setitem(actors.HANDLERS, Announce, logged)
        return sched, heard

    def test_one_announcement_per_remote_site(self, monkeypatch):
        sched, heard = self._spied(monkeypatch)
        sched.start([AgentScript("A", [ScriptedAttempt(0.0, E)])])
        sched.sim.run()
        stats = sched.network.stats
        assert stats.by_kind == {"announce": 2}
        assert [row[3] for row in sched.network.journal] == ["B", "C"]
        # each site's subscribers, in subscriber order
        assert heard == [self.B1, self.B2, self.B3, self.C1]
        for base in heard:
            assert sched.role(base).knowledge[E] == E_OCC

    def test_a_hand_off_is_a_step_of_the_instant(self, monkeypatch):
        sched, _heard = self._spied(monkeypatch)
        sender, target = sched.actors[self.B1], sched.actors[self.B2]
        landed = []
        monkeypatch.setitem(
            actors.HANDLERS, NotYetRequest,
            lambda actor, req: landed.append((actor, sched.sim.now)),
        )
        sched.sim.schedule_at(
            2.5, sched._send, sender, target,
            NotYetRequest(target=self.B2, requester=self.B1, round_id=1),
        )
        sched.sim.run()
        assert landed == [(target, 2.5)]
        stats, network = sched.network.stats, sched.network
        assert stats.intra_site == 1
        assert stats.messages == 0 and network.journal == []
        assert stats.by_kind == {} and stats.per_site_handled == {}

    def test_reliable_transmission_into_a_down_site(self, monkeypatch):
        """Lost at the down site, retransmitted, and handed to each
        subscriber there once after the restart."""
        sched, heard = self._spied(
            monkeypatch,
            fault_plan=FaultPlan.of([SiteCrash("B", at=0.5, restart_at=3.0)]),
        )
        sched.start([AgentScript("A", [ScriptedAttempt(0.0, E)])])
        sched.sim.run()
        stats = sched.network.stats
        assert stats.crash_lost >= 1 and stats.retransmits_by_kind[
            "announce"
        ] >= 1
        assert sorted(heard, key=Event.sort_key) == [
            self.B1, self.B2, self.B3, self.C1
        ]
        assert heard[:3] == [self.C1, self.B1, self.B2]
        for base in heard:
            assert sched.role(base).knowledge[E] == E_OCC


class TestOrderingEnforcement:
    def test_e_then_f_ordered(self):
        result = run_one([D_PREC], [(0.0, E), (1.0, F)])
        assert result.ok
        assert [en.event for en in result.entries] == [E, F]

    def test_f_attempted_first_still_ordered(self):
        result = run_one([D_PREC], [(0.0, F), (10.0, E)])
        assert result.ok
        assert [en.event for en in result.entries] == [E, F]

    def test_not_yet_round_used_for_notyet_guard(self):
        result = run_one([D_PREC], [(0.0, E), (1.0, F)])
        assert result.not_yet_rounds >= 1


class TestWideGuard:
    """``e`` ordered before a dozen others (``examples/precede.wf``):
    its guard is one cube of twelve not-yet literals, and the
    certificate round's transient verdict must not walk the ``4**12``
    world points of Section 4.3's evaluation rule."""

    def test_twelve_base_precedence_settles_within_a_call_budget(self):
        later = [Event(f"f{i}") for i in range(12)]
        deps = [parse(f"~e + ~{f!r} + e . {f!r}") for f in later]
        results = []
        calls = count_calls(
            lambda: results.append(run_one(deps, [(0.0, E)]))
        )
        (result,) = results
        assert result.ok
        settled = [en.event for en in result.entries]
        assert settled[0] == E
        assert {event.base for event in settled} == {E, *later}
        # the enumerating kernel needed 1.07 M calls at 8 bases and
        # four times more per further base; this run takes 25-40 k
        assert calls < 100_000


class TestRejectionAndSettlement:
    def test_unconditional_sequence_is_completed(self):
        # e . f is an obligation: both events must occur, in order.
        # Only f is attempted; it parks on []e.  e is triggerable, so
        # the scheduler causes it, after which f fires: the only
        # satisfying outcome.  (A refused ~e causes nothing: see
        # test_a_refused_complement_causes_nothing.)
        result = run_one(
            [parse("e . f")], [(0.0, F)],
            attributes={E: EventAttributes(triggerable=True)},
        )
        assert result.ok
        assert [en.event for en in result.entries] == [E, F]

    def test_unattempted_events_settle_negative(self):
        result = run_one([D_ARROW], [])
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {~E, ~F}

    def test_trace_is_maximal_after_settlement(self):
        result = run_one([D_PREC, D_ARROW], [(0.0, E)])
        assert not result.unsettled


class TestTriggering:
    def test_monitor_triggers_required_event(self):
        s_buy, s_book = Event("s_buy"), Event("s_book")
        result = run_one(
            [parse("~s_buy + s_book")],
            [(0.0, s_buy)],
            attributes={s_book: EventAttributes(triggerable=True)},
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {s_buy, s_book}
        assert result.triggered >= 1

    def test_untriggerable_required_event_blocks(self):
        s_buy, s_book = Event("s_buy"), Event("s_book")
        result = run_one([parse("~s_buy + s_book")], [(0.0, s_buy)])
        # s_book is not triggerable and never attempted: s_buy must not
        # occur (its guard needs <>s_book), so both settle negative
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {~s_buy, ~s_book}


class TestNonrejectable:
    def test_forced_event_recorded_as_violation(self):
        a = Event("a")
        result = run_one(
            [parse("~a")],  # a must never occur
            [(0.0, a)],
            attributes={a: EventAttributes(rejectable=False)},
        )
        assert any(v.kind == "forced" for v in result.violations)
        assert any(v.kind == "dependency" for v in result.violations)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def go():
            sched = DistributedScheduler(
                [D_PREC, D_ARROW],
                latency=ConstantLatency(1.0),
                rng=random.Random(42),
            )
            return sched.run(
                [AgentScript("s", [ScriptedAttempt(0.0, E), ScriptedAttempt(2.0, F)])]
            )

        r1, r2 = go(), go()
        assert [en.event for en in r1.entries] == [en.event for en in r2.entries]
        assert r1.messages == r2.messages
        assert r1.makespan == r2.makespan


class TestResultInvariants:
    @pytest.mark.parametrize(
        "deps,attempts",
        [
            ([D_PREC], [(0.0, E), (1.0, F)]),
            ([D_PREC], [(0.0, F), (1.0, E)]),
            ([D_ARROW, parse("~f + e")], [(0.0, E), (0.0, F)]),
            ([parse("e . f"), D_ARROW], [(0.0, F), (2.0, E)]),
        ],
    )
    def test_realized_trace_satisfies_dependencies(self, deps, attempts):
        result = run_one(deps, attempts)
        for dep in deps:
            assert satisfies(result.trace, dep)

    def test_unknown_event_attempt_raises(self):
        sched = DistributedScheduler([D_ARROW])
        with pytest.raises(KeyError):
            sched.attempt(Event("zzz"))


class TestMonitorDependencyIndex:
    def test_each_monitor_gets_the_dependencies_mentioning_its_bases(self):
        """``_build_monitors`` picks dependencies through a base index;
        the result must equal the plain filter, order included."""
        workflow = make_travel_booking("success").workflow
        merged, _guards = WorkflowTemplate(workflow).instantiate_merged(
            ["_i0", "_i1", "_i2"]
        )
        sched = DistributedScheduler(
            merged.dependencies,
            sites=merged.sites,
            attributes=merged.attributes,
        )
        assert sched._monitors
        subs: dict = {}
        for monitor in sched._monitors:
            assert monitor.dependencies == [
                d
                for d in sched.dependencies
                if any(b in d.bases() for b in monitor.triggerable)
            ]
            for dep in monitor.dependencies:
                for base in dep.bases():
                    subs.setdefault(base, set()).add(monitor.site)
        # each base reaches the monitor of each dependency mentioning
        # it, and no other
        heard = {
            base: {
                site
                for site, addressee in at.items()
                if getattr(addressee, "monitor", None) is not None
            }
            for base, at in sched._fanouts.items()
        }
        assert subs == {base: sites for base, sites in heard.items() if sites}


class TestOneGuardEngine:
    def test_no_engine_selectors_on_the_runtime_surface(self):
        """One production engine: nothing on the scheduler, the param
        runner, the shard task or the shard planner selects a
        guard-evaluation path (the tests' reference is a subclass that
        overrides ``cursor_factory``)."""
        import dataclasses
        import inspect

        from repro.params.distributed import DistributedParamRunner
        from repro.scale import (
            ShardOutcome, ShardTask, plan_shards, run_sharded,
        )

        retired = {
            "compiled_guards", "minimize_guards", "watch_mode",
            "retransmit_timeout", "max_retries",
            # the co-simulated shard group and its gateway channel
            "sim", "owned", "gateway", "cross_drop", "cross_dup",
            "cross_drop_probability", "cross_duplicate_probability",
            # the batching channel, work stealing and its hand layout
            "batch_announcements", "steal", "assignment", "chunk",
            # the protocol's ablation switches: one protocol runs
            "policy",
            # the reference engine is a test-side subclass
            "reference_engine",
        }
        names = {
            "DistributedScheduler": set(
                inspect.signature(DistributedScheduler.__init__).parameters
            ),
            "DistributedParamRunner": set(
                inspect.signature(DistributedParamRunner.__init__).parameters
            ),
            "ShardTask": {f.name for f in dataclasses.fields(ShardTask)},
            "ShardOutcome": {
                f.name for f in dataclasses.fields(ShardOutcome)
            },
            "plan_shards": set(inspect.signature(plan_shards).parameters),
            "run_sharded": set(inspect.signature(run_sharded).parameters),
        }
        assert names["run_sharded"] == {"tasks", "workers"}
        assert len(names["DistributedScheduler"] - {"self"}) == 12
        for owner, exposed in names.items():
            assert not exposed & retired, owner
        # a shard *task* carries its cross dependencies; the scheduler
        # just gets them as dependencies
        assert "cross_dependencies" not in names["DistributedScheduler"]
        with pytest.raises(TypeError):
            plan_shards(None, [], 1, cross_drop_probability=0.1)
        assert "reliable" not in names["ShardTask"] | names["plan_shards"]


def _travel():
    scenario = make_travel_booking("failure")
    return scenario.workflow, scenario.scripts


def _mutex():
    return make_mutex_family(2, cluster=2).merged()


class TestRunLifecycle:
    """``run`` is ``start`` -> ``sim.run`` -> ``drain`` -> ``finish``,
    and a driver that owns the clock gets the same run from the steps."""

    @staticmethod
    def _build(workload, scheduler=DistributedScheduler):
        workflow, scripts = workload()
        sched = scheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            rng=random.Random(3),
        )
        return sched, scripts

    @pytest.mark.parametrize("workload", [_travel, _mutex])
    def test_hand_driven_steps_reproduce_run(
        self, workload, scheduler=DistributedScheduler
    ):
        sched, scripts = self._build(workload, scheduler)
        whole = sched.run(scripts)
        sched, scripts = self._build(workload, scheduler)
        sched.start(scripts)
        sched.sim.run()
        sched.drain()
        stepped = sched.finish()
        assert whole.entries and stepped.entries == whole.entries
        assert stepped.messages == whole.messages
        assert stepped.messages_by_kind == whole.messages_by_kind
        assert stepped.violations == whole.violations == []
        assert stepped.unsettled == whole.unsettled == []
        assert stepped.terminal == whole.terminal == "maximal"

    @pytest.mark.parametrize("workload", [_travel, _mutex])
    def test_the_center_goes_through_the_same_steps(self, workload):
        self.test_hand_driven_steps_reproduce_run(
            workload, CentralizedScheduler
        )

    def test_settlement_runs_until_nothing_changes(self):
        # the failure scenario needs complement settlement over more
        # than one round; with no round budget it always finishes
        sched, scripts = self._build(_travel)
        result = sched.run(scripts)
        assert result.terminal == "maximal"
        assert result.violations == [] and result.unsettled == []


class TestTerminalState:
    """Every run ends in one named state: ``maximal`` when every base
    settled, ``down`` when an unsettled base lives on a site lost for
    good, ``stuck`` otherwise -- a state, never a violation."""

    @staticmethod
    def _run(scripts=None, settle=True, fault_plan=None):
        scenario = make_travel_booking("success")
        workflow = scenario.workflow
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            fault_plan=fault_plan,
        )
        return sched.run(
            scenario.scripts if scripts is None else scripts, settle=settle
        )

    def test_settled_run_is_maximal(self):
        result = self._run()
        assert result.terminal == "maximal"
        assert result.unsettled == [] and result.violations == []

    def test_parked_run_without_settlement_is_stuck(self):
        # c_buy alone parks on []c_book, and nothing settles the rest
        c_buy = Event("c_buy")
        result = self._run(
            [AgentScript("airline", [ScriptedAttempt(0.0, c_buy)])],
            settle=False,
        )
        assert result.terminal == "stuck"
        assert c_buy in result.unsettled

    def test_base_on_a_lost_site_is_down(self):
        result = self._run(
            fault_plan=FaultPlan.of([SiteCrash("car_rental", at=0.0)])
        )
        assert result.terminal == "down"
        assert Event("c_book") in result.unsettled


def _bookkeeping(role):
    """A role's six set- and queue-valued protocol fields."""
    return (
        role.round_awaiting, role.round_holds, role.granted_to,
        role._escalated_cubes, role.deferred_promise_reqs,
        role.pending_grant_reqs,
    )


def _fanin_table(pairs: int = 98, hubs: int = 3) -> dict:
    """A fan-in guard table of ``2 * pairs + hubs + 1`` plain guards
    (200 by default): each fan-in event waits on ``[]`` of every hub and
    of ``kill``, or on its own base."""
    kill = Event("kill")
    hub_events = [Event(f"hub{j}") for j in range(hubs)]
    dead = literal("box", kill)
    for hub in hub_events:
        dead = dead & literal("box", hub)
    table = {~kill: TRUE_GUARD, **{hub: TRUE_GUARD for hub in hub_events}}
    for k in range(pairs):
        base = Event(f"fb{k}")
        table[Event(f"fan{k}")] = dead | literal("box", base)
        table[base] = TRUE_GUARD
    return table


class TestIdleFootprint:
    """An idle role holds no container of its own and a message in
    flight is one flat simulator entry: the per-actor object budget."""

    def test_a_fresh_role_holds_the_shared_empties(self):
        sched = DistributedScheduler([D_PREC, D_ARROW])
        for role in sched.roles():
            assert all(
                field is EMPTY or field == () for field in _bookkeeping(role)
            )
            assert role.actor.frozen is EMPTY
            assert role.actor.deferred_notyet_reqs == ()

    def test_a_role_hears_a_map_its_entry_already_holds(self):
        """A binding's ``to_slot``, a plain guard's cached ``bases()``:
        no view or set per role."""
        bindings = workflow_bindings([D_PREC, D_ARROW])
        sched = DistributedScheduler([D_PREC, D_ARROW], guards=bindings)
        for event, binding in bindings.items():
            assert sched.role(event).subscribed is binding.to_slot
        table = _fanin_table(pairs=2)
        sched = DistributedScheduler([], guards=table)
        for event, guard in table.items():
            assert sched.role(event).subscribed is guard.bases()

    def test_the_shared_empties_stay_empty_through_a_run(self):
        """Rounds, grants, deferrals and escalations all write by
        rebinding, never into the shared empty."""
        scenario = make_travel_booking("failure")
        workflow = scenario.workflow
        sched = DistributedScheduler(
            workflow.dependencies, sites=workflow.sites,
            attributes=workflow.attributes,
        )
        result = sched.run(scenario.scripts)
        roles = sched.roles()
        assert result.not_yet_rounds and result.promises_granted
        assert any(role._escalated_cubes for role in roles)
        assert any(role.granted_to for role in roles)
        assert EMPTY == frozenset() and not EMPTY
        for role in roles:
            assert role.round_awaiting is EMPTY
            assert role.round_holds is EMPTY
            assert role.actor.frozen is EMPTY

    def test_a_built_actor_costs_at_most_six_tracked_objects(self):
        table = _fanin_table()
        assert len(table) == 200
        DistributedScheduler([], guards=table)  # interns the automaton
        gc.collect()
        before = len(gc.get_objects())
        sched = DistributedScheduler([], guards=table)
        gc.collect()
        created = len(gc.get_objects()) - before
        assert created <= 6 * len(sched.actors), created / len(sched.actors)

    def test_a_message_is_one_flat_heap_entry_holding_its_addressee(self):
        sched = DistributedScheduler([D_PREC])
        sender, target = sched.actors[E], sched.actors[F]
        sched._send(sender, target, Announce(event=E))
        (entry,) = sched.sim.queued()
        _time, _seq, deliver, src, dst, kind, payload, handler, stamp = entry
        assert deliver is sched.network._deliver
        assert (src, dst, kind) == (sender.site, target.site, "announce")
        assert payload == Announce(event=E)
        assert handler is target and stamp is None

    def test_monitor_messages_hold_a_handler_bound_once(self):
        """An announcement to a requirement monitor is handed to its
        site's fanout, built with the subscriptions and holding the
        monitor itself, and every trigger to one method bound at
        construction."""
        scenario = make_order_fulfillment()
        workflow = scenario.workflow
        sched = DistributedScheduler(
            workflow.dependencies, sites=workflow.sites,
            attributes=workflow.attributes,
        )
        handlers = []
        send = sched.channel.send

        def spy(src, dst, kind, payload, handler):
            handlers.append((payload, handler))
            send(src, dst, kind, payload, handler)

        sched.channel.send = spy
        result = sched.run(scenario.scripts)
        assert result.ok and result.triggered
        monitors = {id(monitor) for monitor in sched._monitors}
        to_monitors = [
            (p, h) for p, h in handlers if type(h) is Fanout and h.monitor
        ]
        triggers = [h for p, h in handlers if isinstance(p, TriggerMsg)]
        assert to_monitors and triggers
        for announce, fanout in to_monitors:
            assert id(fanout.monitor) in monitors
            assert fanout is sched._fanouts[announce.event.base][fanout.site]
        assert all(h is sched._on_trigger for h in triggers)
