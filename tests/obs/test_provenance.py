"""Decision provenance: why is an event parked / fired / dead?"""

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.obs.provenance import (
    Fact,
    apply_facts,
    explain_records,
    explain_region,
    minimal_unblocking_sets,
)
from repro.obs import provenance
from repro.obs.tracer import Tracer
from repro.scheduler import EventAttributes
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    P_C,
    P_E,
    _subset_check,
    covers,
    reachable,
    verdict,
)
from repro.temporal.guards import explain_guard, workflow_guards
from repro.workloads.scenarios import make_mutex_scenario, make_travel_booking
from tests.conftest import count_calls


def travel_scheduler(**kwargs):
    scenario = make_travel_booking()
    workflow = scenario.workflow
    return scenario, DistributedScheduler(
        workflow.dependencies, attributes=workflow.attributes, **kwargs
    )


class TestRegionOps:
    """The cube-region rule over string-keyed regions."""

    BOX_CUBES = [[("c_book", E_OCC)]]  # []c_book

    def test_subsumes_needs_occurrence(self):
        assert covers(self.BOX_CUBES, {"c_book": E_OCC})
        assert not covers(self.BOX_CUBES, {})
        assert not covers(self.BOX_CUBES, {"c_book": C_OCC})

    def test_verdicts(self):
        assert verdict(self.BOX_CUBES, {"c_book": E_OCC}) == "fire"
        assert verdict(self.BOX_CUBES, {"c_book": C_OCC}) == "never"
        assert verdict(self.BOX_CUBES, {}) == "park"

    def test_apply_facts_contradiction_is_none(self):
        assert (
            apply_facts(
                {"e": E_OCC}, [Fact("announce", "~e")]
            )
            is None
        )


def enumerated_verdict(cubes, knowledge):
    """The fire/never/park rule with the enumerator in place of the
    cube kernel's cover check: every world point over the mentioned
    names."""
    cubes = [tuple(cube) for cube in cubes]
    names = sorted({name for cube in cubes for name, _mask in cube})
    if _subset_check(cubes, names, knowledge):
        return "fire"
    return "park" if reachable(cubes, knowledge) else "never"


def region_cases():
    """Every region this file explains (at most five names each), plus
    the travel workflow's whole guard table under a few knowledge maps."""
    cases = [
        (TestRegionOps.BOX_CUBES, {"c_book": E_OCC}),
        (TestRegionOps.BOX_CUBES, {}),
        (TestRegionOps.BOX_CUBES, {"c_book": C_OCC}),
        ([[("f", E_OCC | P_E)], [("g", E_OCC)]], {}),
        ([[("f", E_OCC), ("g", E_OCC)]], {}),
        ([[("f", E_OCC | P_E)], [("g", C_OCC)]], {"g": E_OCC}),
        ([[("f", C_OCC | P_E | P_C)]], {}),  # Example 9: !f
        ([[("f", C_OCC | P_E | P_C)]], {"f": P_E | P_C}),
    ]
    table = workflow_guards(make_travel_booking().workflow.dependencies)
    for guard in table.values():
        cubes = [[(repr(b), m) for b, m in cube] for cube in guard.cubes]
        for knowledge in (
            {},
            {"c_book": E_OCC},
            {"c_buy": P_E | P_C, "s_buy": E_OCC},
            {"c_book": C_OCC, "s_cancel": E_OCC | P_E},
            {"c_buy": 0},
        ):
            cases.append((cubes, knowledge))
    return cases


class TestRegionKernel:
    """``repro explain`` used to carry its own copy of the enumerator."""

    @pytest.mark.parametrize("cubes, knowledge", region_cases())
    def test_verdict_and_unblocking_match_the_enumerator(
        self, monkeypatch, cubes, knowledge
    ):
        report = explain_region(cubes, knowledge)
        monkeypatch.setattr(provenance, "verdict", enumerated_verdict)
        old = explain_region(cubes, knowledge)
        assert report["verdict"] == old["verdict"]
        assert report["unblocking"] == old["unblocking"]

    def test_fourteen_literal_cube_is_explained(self):
        # 4**14 world points for each of some 1 400 candidate fact sets
        cube = [(f"f{i:02d}", E_OCC) for i in range(14)]
        reports = []
        calls = count_calls(
            lambda: reports.append(explain_region([cube], {}))
        )
        (report,) = reports
        assert report["verdict"] == "park"
        assert report["unblocking"] == []  # fourteen facts, not three
        assert calls < 200_000
        # two announcements short of firing: exactly those are named
        known = {name: E_OCC for name, _mask in cube[2:]}
        assert explain_region([cube], known)["unblocking"] == [
            [Fact("announce", "f00"), Fact("announce", "f01")]
        ]


class TestMinimalUnblocking:
    def test_single_box_literal(self):
        sets = minimal_unblocking_sets([[("c_book", E_OCC)]], {})
        assert sets == [(Fact("announce", "c_book"),)]

    def test_satisfied_guard_has_no_unblocking(self):
        assert (
            minimal_unblocking_sets([[("c_book", E_OCC)]], {"c_book": E_OCC})
            == []
        )

    def test_dead_guard_has_no_unblocking(self):
        assert (
            minimal_unblocking_sets([[("c_book", E_OCC)]], {"c_book": C_OCC})
            == []
        )

    def test_prefers_announcements_and_small_sets(self):
        # <>f | []g: announcing g flips the verdict on its own
        cubes = [[("f", E_OCC | P_E)], [("g", E_OCC)]]
        sets = minimal_unblocking_sets(cubes, {})
        assert (Fact("announce", "g"),) in sets
        assert all(len(s) == 1 for s in sets)

    def test_two_literal_conjunction_needs_both(self):
        cubes = [[("f", E_OCC), ("g", E_OCC)]]
        sets = minimal_unblocking_sets(cubes, {})
        assert sets == [
            (Fact("announce", "f"), Fact("announce", "g"))
        ]


class TestExplainGuard:
    def test_example_9_guard_explained(self):
        # G(~e + ~f + e.f, e) = !f: parked until f's not-yet is known
        report = explain_guard(parse("~e + ~f + e . f"), Event("e"))
        assert report["verdict"] == "park"
        (cube,) = report["cubes"]
        assert cube["status"] == "open"
        assert cube["literals"][0]["base"] == "f"

    def test_knowledge_flips_verdict(self):
        report = explain_guard(
            parse("~e + ~f + e . f"), Event("e"), {Event("f"): P_E | P_C}
        )
        assert report["verdict"] == "fire"


class TestLiveExplain:
    """The acceptance scenario: a parked ``c_buy`` names its blockers,
    and delivering exactly the minimal unblocking set fires it."""

    def test_parked_event_names_blockers_and_unblocking_set(self):
        _scenario, sched = travel_scheduler(tracer=Tracer())
        c_buy = Event("c_buy")
        sched.attempt(c_buy)
        sched.sim.run()

        explanation = sched.explain(c_buy)
        assert explanation.status == "pending"
        assert explanation.verdict == "park"
        # the exact unsatisfied literal: []c_book
        assert explanation.unsatisfied_literals() == ["[]c_book"]
        # the minimal unblocking set is exactly {announce c_book}
        assert explanation.unblocking == [[Fact("announce", "c_book")]]

        # deliver precisely that announcement: the event must fire
        sched.role(c_buy).observe_occurrence(Event("c_book"))
        sched.sim.run()
        fired = sched.explain(c_buy)
        assert fired.status == "occurred"
        assert c_buy in {entry.event for entry in sched.result.entries}

    def test_fired_event_shows_justification(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        explanation = sched.explain(Event("c_buy"))
        assert explanation.status == "occurred"
        sources = {j["source"] for j in explanation.justifications}
        assert sources  # at least one learned fact is justified
        facts = {j["base"] for j in explanation.justifications}
        assert "c_book" in facts

    def test_dead_event_explained(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        explanation = sched.explain(Event("c_buy").complement)
        assert explanation.status == "dead"

    def test_unknown_event_raises_keyerror(self):
        _scenario, sched = travel_scheduler()
        with pytest.raises(KeyError):
            sched.explain(Event("nonesuch"))

    def test_explain_works_without_tracer_or_provenance(self):
        scenario, sched = travel_scheduler()  # NULL tracer
        sched.run(scenario.scripts)
        explanation = sched.explain(Event("c_buy"))
        assert explanation.status == "occurred"
        # justifications come from the settlement record
        assert explanation.justifications
        assert all(
            j["source"] == "settlement" and j["lc"] is None
            for j in explanation.justifications
        )

    def test_render_mentions_guard_and_enabler(self):
        _scenario, sched = travel_scheduler(tracer=Tracer())
        sched.attempt(Event("c_buy"))
        sched.sim.run()
        text = sched.explain(Event("c_buy")).render()
        assert "parked" in text
        assert "[]c_book" in text
        assert "to enable" in text


class TestOneAnswer:
    """Live ``explain`` reads the settlement record alone (the trace is
    the one record of when a fact arrived), so a traced run explains
    every role exactly as its untraced twin does."""

    @pytest.mark.parametrize(
        "make",
        [make_travel_booking, lambda: make_mutex_scenario("t1")],
        ids=["travel", "mutex"],
    )
    def test_traced_and_untraced_runs_explain_alike(self, make):
        answers = []
        for tracer in (None, Tracer()):
            scenario = make()
            workflow = scenario.workflow
            sched = DistributedScheduler(
                workflow.dependencies,
                sites=workflow.sites,
                attributes=workflow.attributes,
                tracer=tracer,
            )
            sched.run(scenario.scripts)
            answers.append({
                repr(role.event): sched.explain(role.event).to_dict()
                for role in sched.roles()
            })
        untraced, traced = answers
        assert any(a["justifications"] for a in untraced.values())
        assert traced == untraced


class TestOfflineExplain:
    def trace_records(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        tracer = sched.tracer
        sched.attempt(Event("c_buy"))
        sched.sim.run()
        return tracer.records

    def test_offline_matches_live_park(self):
        records = self.trace_records()
        explanation = explain_records(records, "c_buy")
        assert explanation.status == "pending"
        assert explanation.unblocking == [[Fact("announce", "c_book")]]

    def test_offline_full_run_fired(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        explanation = explain_records(sched.tracer.records, "c_buy")
        assert explanation.status == "occurred"

    def test_forced_fact_originates_at_its_occurrence(self):
        # a nonrejectable a is forced against ~a: its ``forced`` record
        # comes one record before its ``fired``, and the fired one is
        # the occurrence b's justification names
        a, b = Event("a"), Event("b")
        tracer = Tracer()
        sched = DistributedScheduler(
            [parse("~a"), parse("~b + a . b")],
            attributes={a: EventAttributes(rejectable=False)},
            sites={a: "x", b: "y"},
            tracer=tracer,
        )
        sched.run([
            AgentScript("x", [ScriptedAttempt(0.0, a)]),
            AgentScript("y", [ScriptedAttempt(5.0, b)]),
        ])
        (fired,) = [
            r for r in tracer.records
            if r["cat"] == "actor" and r["event"] == "a"
            and r["op"] == "fired"
        ]
        assert any(
            r["op"] == "forced" and r["lc"] < fired["lc"]
            for r in tracer.records if r["cat"] == "actor"
        )
        (fact,) = explain_records(tracer.records, "b").justifications
        assert (fact["origin"], fact["lc"]) == ("a", fired["lc"])

    def test_centralized_park_names_its_residuals(self):
        """The center has no guard: its record of a park names the
        residual dependencies that held the event back, and the
        distributed rendering of the same park is unchanged."""
        from repro.scheduler import CentralizedScheduler

        scenario = make_travel_booking()
        workflow = scenario.workflow
        tracer = Tracer()
        sched = CentralizedScheduler(
            workflow.dependencies, sites=workflow.sites,
            attributes=workflow.attributes, tracer=tracer,
        )
        sched.attempt(Event("c_buy"))
        sched.sim.run()
        (record,) = [r for r in tracer.records if r["cat"] == "guard"]
        assert (record["op"], record["verdict"]) == ("residuals", "park")
        assert record["residuals"] == ["~c_buy + c_book . c_buy"]
        explanation = explain_records(tracer.records, "c_buy")
        assert (explanation.status, explanation.verdict) == ("pending", "park")
        assert explanation.held_by == record["residuals"]
        text = explanation.render()
        assert "guard:    ?" not in text
        assert "verdict:  park" in text
        assert "held back by: ~c_buy + c_book . c_buy" in text
        distributed = explain_records(self.trace_records(), "c_buy").render()
        assert distributed.splitlines()[-1] == "  to enable: announce []c_book"
        assert "held back by" not in distributed

    def test_offline_unknown_event_raises(self):
        with pytest.raises(KeyError):
            explain_records(self.trace_records(), "nonesuch")

    def test_to_dict_round_trips_through_json(self):
        import json

        records = self.trace_records()
        payload = explain_records(records, "c_buy").to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestExplainRegionShape:
    def test_report_is_structured(self):
        report = explain_region(
            [[("f", E_OCC | P_E)], [("g", C_OCC)]], {"g": E_OCC}
        )
        assert report["verdict"] == "park"
        statuses = [cube["status"] for cube in report["cubes"]]
        assert "dead" in statuses  # the g-cube died (g occurred)
        assert "open" in statuses
