"""Section 5: parametrized workflows, guards, and scheduling."""

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event, Variable
from repro.params.guards import FreshValue, ParametrizedGuard
from repro.params.scheduler import ParamScheduler
from repro.params.workflows import ParametrizedWorkflow
from repro.temporal.cubes import literal


def tok(name, *params):
    return Event(name, params=params)


class TestParametrizedWorkflow:
    """Example 12: the travel workflow keyed by customer id."""

    def build(self):
        t = ParametrizedWorkflow("travel")
        t.add("~s_buy[cid] + s_book[cid]")
        t.add("~c_buy[cid] + c_book[cid] . c_buy[cid]")
        t.add("~c_book[cid] + c_buy[cid] + s_cancel[cid]")
        t.set_attributes(Event("s_book", params=(Variable("cid"),)), triggerable=True)
        t.place(Event("s_buy", params=(Variable("cid"),)), "airline")
        return t

    def test_variables(self):
        assert self.build().variables() == frozenset({Variable("cid")})

    def test_instantiate_binds_everything(self):
        w = self.build().instantiate(cid="c42")
        assert w.dependencies[0] == parse("s_book['c42'] + ~s_buy['c42']")
        assert all(ev.is_ground for dep in w.dependencies for ev in dep.events())

    def test_instances_are_disjoint(self):
        t = self.build()
        w1 = t.instantiate(cid="c1")
        w2 = t.instantiate(cid="c2")
        assert not (w1.bases() & w2.bases())

    def test_attributes_and_sites_follow_binding(self):
        w = self.build().instantiate(cid="c9")
        booked = Event("s_book", params=("c9",))
        assert w.attributes[booked].triggerable
        assert w.sites[Event("s_buy", params=("c9",))] == "airline[c9]"

    def test_missing_binding_rejected(self):
        with pytest.raises(ValueError):
            self.build().instantiate()

    def test_instances_run_on_ordinary_scheduler(self):
        from repro.scheduler import DistributedScheduler
        from repro.scheduler.agents import AgentScript, ScriptedAttempt

        t = self.build()
        merged = t.instantiate(cid="c1").merged(t.instantiate(cid="c2"))
        sched = DistributedScheduler(
            merged.dependencies, sites=merged.sites, attributes=merged.attributes
        )
        scripts = []
        for cid in ("c1", "c2"):
            s_buy = Event("s_buy", params=(cid,))
            c_buy = Event("c_buy", params=(cid,))
            c_book = Event("c_book", params=(cid,))
            s_book = Event("s_book", params=(cid,))
            scripts.append(
                AgentScript(
                    f"airline[{cid}]",
                    [
                        ScriptedAttempt(0.0, s_buy),
                        ScriptedAttempt(5.0, c_buy, after=s_buy),
                    ],
                )
            )
            scripts.append(
                AgentScript(
                    f"car[{cid}]", [ScriptedAttempt(1.0, c_book, after=s_book)]
                )
            )
        result = sched.run(scripts)
        assert result.ok
        occurred = {en.event for en in result.entries}
        for cid in ("c1", "c2"):
            assert Event("c_buy", params=(cid,)) in occurred


class TestExample14:
    """Guard growth, shrinkage, and resurrection."""

    def build(self):
        y = Variable("y")
        template = literal("notyet", Event("f", params=(y,))) | literal(
            "box", Event("g", params=(y,))
        )
        return ParametrizedGuard(template)

    def test_initially_enabled(self):
        pg = self.build()
        assert pg.holds_now()
        assert pg.live_instances() == {}

    def test_occurrence_grows_and_blocks(self):
        pg = self.build()
        pg.observe(tok("f", "y1"))
        assert not pg.holds_now()
        instances = pg.live_instances()
        assert len(instances) == 1
        (residual,) = instances.values()
        assert residual == literal("box", tok("g", "y1"))

    def test_resurrection(self):
        pg = self.build()
        pg.observe(tok("f", "y1"))
        pg.observe(tok("g", "y1"))
        assert pg.holds_now()
        assert pg.live_instances() == {}
        kinds = [kind for kind, _ in pg.history]
        assert kinds == ["grow", "shrink"]

    def test_independent_bindings(self):
        pg = self.build()
        pg.observe(tok("f", "y1"))
        pg.observe(tok("f", "y2"))
        assert len(pg.live_instances()) == 2
        pg.observe(tok("g", "y1"))
        assert len(pg.live_instances()) == 1
        assert not pg.holds_now()
        pg.observe(tok("g", "y2"))
        assert pg.holds_now()

    def test_complement_occurrence_satisfies_notyet(self):
        pg = self.build()
        pg.observe(~tok("f", "y3"))
        # ~f[y3]: the !f[y3] disjunct is permanently true
        assert pg.holds_now()

    def test_fresh_value_is_unique(self):
        assert FreshValue() != FreshValue()


class TestExample13:
    """Mutual exclusion across looping tasks."""

    DEPS = [
        "b2[y] . b1[x] + ~e1[x] + ~b2[y] + e1[x] . b2[y]",
        "b1[x] . b2[y] + ~e2[y] + ~b1[x] + e2[y] . b1[x]",
        "~b1[x] + e1[x]",
        "~b2[y] + e2[y]",
        "~e1[x] + b1[x]",
        "~e2[y] + b2[y]",
        # entry precedes exit (an exit cannot lead its own entry)
        "~b1[x] + ~e1[x] + b1[x] . e1[x]",
        "~b2[y] + ~e2[y] + b2[y] . e2[y]",
    ]

    def test_mutual_exclusion_with_loops(self):
        sched = ParamScheduler(self.DEPS)
        assert sched.attempt(tok("b1", 0))
        assert not sched.attempt(tok("b2", 0))  # task1 in its CS
        assert sched.attempt(tok("e1", 0))
        assert sched.attempt(tok("b2", 0))  # now admitted
        assert not sched.attempt(tok("b1", 1))  # task2 in its CS (loop!)
        assert sched.attempt(tok("e2", 0))
        assert sched.attempt(tok("b1", 1))  # second iteration proceeds

    def test_many_iterations(self):
        sched = ParamScheduler(self.DEPS)
        for i in range(4):
            assert sched.attempt(tok("b1", i))
            assert not sched.attempt(tok("b2", i))
            assert sched.attempt(tok("e1", i))
            assert sched.attempt(tok("b2", i))
            assert sched.attempt(tok("e2", i))
        assert len(sched.trace) == 4 * 4

    def test_exit_requires_entry(self):
        sched = ParamScheduler(self.DEPS)
        assert not sched.attempt(tok("e1", 7))  # never entered

    def test_token_occurs_once(self):
        sched = ParamScheduler(self.DEPS)
        assert sched.attempt(tok("b1", 0))
        assert not sched.allowed(tok("b1", 0))
        with pytest.raises(ValueError):
            sched.occur(tok("b1", 0))

    def test_non_ground_attempt_rejected(self):
        sched = ParamScheduler(self.DEPS)
        with pytest.raises(ValueError):
            sched.allowed(Event("b1", params=(Variable("x"),)))

    def test_repeated_admission_tests_intern_nothing_new(self):
        from repro.algebra.expressions import intern_stats

        sched = ParamScheduler(self.DEPS[:2])
        sched.allowed(tok("b1", 0))
        before = intern_stats()
        for _ in range(5):
            assert sched.allowed(tok("b1", 0))
        after = intern_stats()
        assert after["exprs"]["size"] == before["exprs"]["size"]
        assert after["events"]["size"] == before["events"]["size"]

    def test_guard_template_synthesized_over_types(self):
        sched = ParamScheduler(self.DEPS)
        x = Variable("x")
        template = sched.guard_instance(Event("b1", params=(x,)))
        assert not template.is_true
        assert any(not b.is_ground for b in template.bases())
