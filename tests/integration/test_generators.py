"""Saga, diamond, and delayable-attribute integration tests."""

import pytest

from repro.algebra.symbols import Event
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import EventAttributes
from repro.workloads.generators import diamond_workflow, saga_workflow

SCHEDULERS = [DistributedScheduler, CentralizedScheduler]


def fresh_scripts(scripts):
    return [AgentScript(s.site, list(s.attempts)) for s in scripts]


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
class TestSaga:
    def test_all_stages_commit(self, scheduler_cls):
        w = saga_workflow(3)
        scripts = [
            AgentScript(f"site_c{i}", [ScriptedAttempt(float(i), Event(f"c{i}"))])
            for i in range(3)
        ]
        result = scheduler_cls(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run(scripts)
        assert result.ok
        positive = sorted(
            en.event.name for en in result.entries if not en.event.negated
        )
        assert positive == ["c0", "c1", "c2"]

    def test_failure_compensates_all_committed_stages(self, scheduler_cls):
        w = saga_workflow(4)
        scripts = [
            AgentScript(f"site_c{i}", [ScriptedAttempt(float(i), Event(f"c{i}"))])
            for i in range(3)
        ]
        scripts.append(
            AgentScript("site_c3", [ScriptedAttempt(3.0, ~Event("c3"))])
        )
        result = scheduler_cls(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run(scripts)
        assert result.ok
        positive = sorted(
            en.event.name for en in result.entries if not en.event.negated
        )
        assert positive == ["c0", "c1", "c2", "x0", "x1", "x2"]

    def test_stage_cannot_skip_predecessor(self, scheduler_cls):
        w = saga_workflow(3)
        # only stage 1 is ever attempted: it needs stage 0, so nothing
        # commits and nothing needs compensation
        scripts = [
            AgentScript("site_c1", [ScriptedAttempt(0.0, Event("c1"))])
        ]
        result = scheduler_cls(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run(scripts)
        assert result.ok
        assert not any(not en.event.negated for en in result.entries)


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
class TestDiamond:
    @pytest.mark.parametrize("width", [2, 4])
    def test_fork_join(self, scheduler_cls, width):
        w = diamond_workflow(width)
        result = scheduler_cls(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run([AgentScript("site_start", [ScriptedAttempt(0.0, Event("start"))])])
        assert result.ok, result.violations
        order = [en.event.name for en in result.entries if not en.event.negated]
        assert order[0] == "start"
        assert order[-1] == "join"
        assert len(order) == width + 2

    def test_no_start_no_join(self, scheduler_cls):
        w = diamond_workflow(3)
        result = scheduler_cls(
            w.dependencies, sites=w.sites, attributes=w.attributes
        ).run([])
        assert result.ok
        assert not any(not en.event.negated for en in result.entries)


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
class TestDelayableAttribute:
    def test_non_delayable_rejected_when_undetermined(self, scheduler_cls):
        """f must wait for e (e<f plus f->e); marked non-delayable it
        is rejected on the spot and ~f occurs."""
        from repro.algebra.parser import parse

        E, F = Event("e"), Event("f")
        deps = [parse("~e + ~f + e . f"), parse("~f + e")]
        result = scheduler_cls(
            deps, attributes={F: EventAttributes(delayable=False)}
        ).run(
            [AgentScript("s", [ScriptedAttempt(0.0, F), ScriptedAttempt(5.0, E)])]
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert ~F in occurred
        assert F not in occurred

    def test_delayable_default_still_parks(self, scheduler_cls):
        from repro.algebra.parser import parse

        E, F = Event("e"), Event("f")
        deps = [parse("~e + ~f + e . f"), parse("~f + e")]
        result = scheduler_cls(deps).run(
            [AgentScript("s", [ScriptedAttempt(0.0, F), ScriptedAttempt(5.0, E)])]
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert {E, F} <= occurred


class TestExplicitRng:
    """Generators must thread a caller-supplied ``random.Random`` so a
    shard can reproduce exactly its slice of a workload stream."""

    def test_random_workflow_rng_equals_seed(self):
        import random

        from repro.workloads.generators import random_workflow

        by_seed = random_workflow(8, 10, seed=7)
        by_rng = random_workflow(8, 10, rng=random.Random(7))
        assert [repr(d) for d in by_rng.dependencies] == [
            repr(d) for d in by_seed.dependencies
        ]
        assert by_rng.sites == by_seed.sites

    def test_scripts_for_rng_equals_seed(self):
        import random

        from repro.workloads.generators import random_workflow, scripts_for

        workflow = random_workflow(8, 10, seed=7)
        by_seed = scripts_for(workflow, seed=3, participation=0.5)
        by_rng = scripts_for(
            workflow, rng=random.Random(3), participation=0.5
        )
        assert [
            (s.site, [(a.time, a.event) for a in s.attempts]) for s in by_rng
        ] == [
            (s.site, [(a.time, a.event) for a in s.attempts]) for s in by_seed
        ]

    def test_module_global_random_untouched(self):
        import random

        from repro.workloads.generators import random_workflow, scripts_for

        random.seed(123)
        marker = random.random()
        random.seed(123)
        workflow = random_workflow(6, 8, rng=random.Random(0))
        scripts_for(workflow, rng=random.Random(1))
        assert random.random() == marker
