"""Run-time workflow modification (Sections 1 and 6).

"Declarative primitives are useful ... because they facilitate
run-time modifications of workflows, e.g., in response to exception
conditions" and "cross-system dependencies can be removed".
"""

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import satisfies
from repro.scheduler import DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import EventAttributes

E, F, G = Event("e"), Event("f"), Event("g")
D_PREC = parse("~e + ~f + e . f")


class TestAddDependency:
    def test_added_dependency_is_enforced(self):
        """Start with no constraint between f and g; mid-run add
        f < g: the later attempts respect it."""
        sched = DistributedScheduler([D_PREC])
        sched.attempt(E)
        sched.sim.run()
        assert sched.add_dependency_runtime(parse("~f + ~g + f . g"))
        # the dependency mentions g, which had no actor: it is skipped
        # for actors but recorded, so final verification covers it
        sched.attempt(F)
        sched.sim.run()
        result = sched.run(settle=True)
        assert satisfies(result.trace, D_PREC)
        for dep in sched.dependencies:
            assert satisfies(result.trace, dep)

    def test_addition_respects_history(self):
        """Adding e < f *after* e already occurred still orders f."""
        sched = DistributedScheduler([parse("~e + f"), parse("~f + e")])
        sched.attempt(E)
        sched.attempt(F)
        sched.sim.run()
        trace_events = [en.event for en in sched.result.entries]
        assert E in trace_events and F in trace_events

    def test_retroactively_violated_dependency_refused(self):
        sched = DistributedScheduler([parse("~e + f"), parse("~f + e")])
        sched.attempt(F)
        sched.attempt(E)
        sched.sim.run()
        # history has f before e; adding e < f now is unenforceable
        order = [en.event for en in sched.result.entries]
        if order and order[0] == F:
            accepted = sched.add_dependency_runtime(D_PREC)
            assert not accepted
            assert any(v.kind == "retroactive" for v in sched.result.violations)

    def test_added_constraint_blocks_parked_event(self):
        """g is attempted and would fire, but a freshly added
        dependency forbids it until f occurs."""
        sched = DistributedScheduler([D_PREC, parse("~g + f . g")])
        # before anything runs, strengthen g further: g needs e too
        assert sched.add_dependency_runtime(parse("~g + e . g"))
        sched.attempt(G)
        sched.sim.run()
        occurred = {en.event for en in sched.result.entries}
        assert G not in occurred  # parked: needs e and f first
        sched.attempt(E)
        sched.attempt(F)
        result = sched.run(settle=True)
        order = [en.event for en in result.entries]
        assert order.index(G) > order.index(E)
        assert order.index(G) > order.index(F)
        for dep in sched.dependencies:
            assert satisfies(result.trace, dep)


class TestRemoveDependency:
    def test_removal_unblocks_parked_event(self):
        """f parked under e < f; removing the dependency frees it."""
        dep = parse("~f + e . f")  # f only after e
        sched = DistributedScheduler([dep])
        sched.attempt(F)
        sched.sim.run()
        assert not sched.result.entries  # f parked
        assert sched.remove_dependency_runtime(dep)
        sched.sim.run()
        occurred = {en.event for en in sched.result.entries}
        assert F in occurred

    def test_removing_unknown_dependency_is_noop(self):
        sched = DistributedScheduler([D_PREC])
        assert not sched.remove_dependency_runtime(parse("~g + e"))

    def test_removal_keeps_other_dependencies(self):
        extra = parse("~f + e . f")
        sched = DistributedScheduler([D_PREC, extra])
        sched.attempt(F)
        sched.sim.run()
        assert sched.remove_dependency_runtime(extra)
        sched.attempt(E)
        result = sched.run(settle=True)
        # D_PREC still enforced: if both occurred, e came first
        order = [en.event for en in result.entries]
        if E in [en.event for en in result.entries] and F in [
            en.event for en in result.entries
        ]:
            assert order.index(E) < order.index(F)
        assert satisfies(result.trace, D_PREC)

    def test_reconfiguration_messages_are_costed(self):
        dep = parse("~f + e . f")
        sched = DistributedScheduler([D_PREC, dep])
        before = sched.network.stats.messages
        sched.remove_dependency_runtime(dep)
        sched.sim.run()
        assert sched.network.stats.by_kind.get("reconfigure", 0) >= 1
        assert sched.network.stats.messages > before


class TestModificationWithTriggers:
    def test_added_compensation_rule_triggers(self):
        """Mid-run exception handling: after c_book occurred and the
        buy failed, an operator adds the compensation dependency; the
        monitors pick it up and trigger the cancellation."""
        s_cancel = Event("s_cancel")
        c_book, c_buy = Event("c_book"), Event("c_buy")
        sched = DistributedScheduler(
            [parse("~c_buy + c_book . c_buy"), parse("~c_book + c_buy + s_cancel")],
            attributes={s_cancel: EventAttributes(triggerable=True)},
        )
        sched.attempt(c_book)
        sched.sim.run()
        sched.attempt(~c_buy)
        result = sched.run(settle=True)
        occurred = {en.event for en in result.entries}
        assert s_cancel in occurred
        assert result.ok


class TestSettlementOrderCache:
    def test_sorted_bases_follow_runtime_dependency_changes(self):
        """The settlement scan reads a cached sorted base tuple; adding
        or removing a dependency mid-run must refresh it, or new bases
        would never be settled by complement."""
        extra = parse("~g + h")
        sched = DistributedScheduler([parse("~e + f")])
        assert sched._sorted_bases() == (E, F)
        assert sched._sorted_bases() is sched._sorted_bases()
        assert sched.add_dependency_runtime(extra)
        assert sched._sorted_bases() == (E, F, G, Event("h"))
        assert sched.remove_dependency_runtime(extra)
        assert sched._sorted_bases() == (E, F)

    def test_bases_added_after_a_settlement_round_still_settle(self):
        sched = DistributedScheduler([parse("~e + f")])
        sched.run(settle=True)  # warms the cache with {e, f}
        assert sched.add_dependency_runtime(parse("~g + h"))
        result = sched.run(settle=True)
        assert result.unsettled == []
        assert {en.event.base for en in result.entries} == {
            E, F, G, Event("h"),
        }
