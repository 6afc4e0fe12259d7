"""The centralized residuation baseline and joint-completion logic."""

import pytest

from repro.algebra.expressions import TOP, ZERO
from repro.algebra.normal_form import expression_terms, joint_completion_exists
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler import CentralizedScheduler, EventAttributes
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.sim.network import ConstantLatency

E, F, G = Event("e"), Event("f"), Event("g")
D_PREC = parse("~e + ~f + e . f")
D_ARROW = parse("~e + f")


class TestExpressionTerms:
    def test_atom(self):
        assert list(expression_terms(parse("e"))) == [(frozenset({E}), ())]

    def test_sequence_edges(self):
        terms = list(expression_terms(parse("e . f . g")))
        assert terms == [(frozenset({E, F, G}), ((E, F), (F, G)))]

    def test_choice_yields_options(self):
        terms = list(expression_terms(parse("e + f")))
        assert (frozenset({E}), ()) in terms
        assert (frozenset({F}), ()) in terms

    def test_conj_merges(self):
        terms = list(expression_terms(parse("e | f . g")))
        assert terms == [(frozenset({E, F, G}), ((F, G),))]

    def test_inconsistent_conj_dropped(self):
        assert list(expression_terms(parse("e | ~e"))) == []

    def test_zero_yields_nothing(self):
        assert list(expression_terms(ZERO)) == []

    def test_top_yields_empty_term(self):
        assert list(expression_terms(TOP)) == [(frozenset(), ())]


class TestJointCompletion:
    def test_single_satisfiable(self):
        assert joint_completion_exists((D_PREC,))

    def test_zero_unsatisfiable(self):
        assert not joint_completion_exists((ZERO,))

    def test_sign_conflict_across_residuals(self):
        # one residual demands f, the other ~f
        assert not joint_completion_exists((parse("f"), parse("~f")))

    def test_order_conflict_across_residuals(self):
        # e before f and f before e cannot both hold
        assert not joint_completion_exists((parse("e . f"), parse("f . e")))

    def test_order_conflict_via_chain(self):
        assert not joint_completion_exists(
            (parse("e . f"), parse("f . g"), parse("g . e"))
        )

    def test_choice_rescues(self):
        # first residual can pick ~f instead of f
        assert joint_completion_exists((parse("~f + f"), parse("~f")))

    def test_require_event(self):
        assert joint_completion_exists((D_ARROW,), require=E)
        # requiring e under (~e | ...) impossible
        assert not joint_completion_exists((parse("~e"),), require=E)

    def test_require_foreign_event(self):
        assert joint_completion_exists((parse("f"),), require=G)

    def test_mutex_core(self):
        """After b1 and b2 (b1 first), exits must obey: e1 needed but
        mutex residual demands ~e1 -> joint failure."""
        from repro.algebra.residuation import residuate

        b1, e1, b2 = Event("b1"), Event("e1"), Event("b2")
        mutex = parse("b2 . b1 + ~e1 + ~b2 + e1 . b2")
        must_exit = parse("~b1 + e1")
        state = tuple(
            residuate(residuate(d, b1), b2) for d in (mutex, must_exit)
        )
        assert not joint_completion_exists(state)


class TestCentralizedRuns:
    def run_one(self, deps, attempts, **kw):
        sched = CentralizedScheduler(deps, **kw)
        scripts = {}
        for time, event in attempts:
            scripts.setdefault("site_a", []).append(ScriptedAttempt(time, event))
        return sched.run(
            [AgentScript(site, atts) for site, atts in scripts.items()]
        )

    def test_example_10_order(self):
        result = self.run_one([D_PREC], [(0.0, F), (5.0, ~E)])
        assert result.ok

    def test_precedence_enforced(self):
        result = self.run_one([D_PREC], [(0.0, E), (1.0, F)])
        assert result.ok
        assert [en.event for en in result.entries] == [E, F]

    def test_parked_event_accepted_later(self):
        result = self.run_one([parse("e . f")], [(0.0, F), (2.0, E)])
        assert result.ok
        assert [en.event for en in result.entries] == [E, F]
        assert result.parked_total >= 1

    def test_unrecoverable_parked_event_rejected(self):
        # f parked waiting on e; ~e occurs; f can never occur
        result = self.run_one([parse("~f + e . f")], [(0.0, F), (2.0, ~E)])
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert F not in occurred

    def test_trigger_required_events(self):
        s_buy, s_book = Event("s_buy"), Event("s_book")
        result = self.run_one(
            [parse("~s_buy + s_book")],
            [(0.0, s_buy)],
            attributes={s_book: EventAttributes(triggerable=True)},
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {s_buy, s_book}

    def test_trigger_only_what_every_completion_contains(self):
        # <f ~e> satisfies the dependency, so e is not required: neither
        # the center nor the distributed monitors trigger it up front
        sched = CentralizedScheduler(
            [parse("f . ~e + e")],
            attributes={E: EventAttributes(triggerable=True)},
        )
        sched.start([])
        sched.sim.run()
        assert sched.metrics.counter("triggered") == 0
        assert sched.result.entries == []

    def test_every_decision_is_a_round_trip(self):
        result = self.run_one([D_ARROW], [(0.0, E), (0.0, F)])
        kinds = result.messages_by_kind
        assert kinds.get("attempt", 0) >= 2
        assert kinds.get("decision", 0) >= 2

    def test_center_bottleneck_measured(self):
        sched = CentralizedScheduler(
            [D_ARROW, D_PREC],
            latency=ConstantLatency(1.0),
            decision_service_time=5.0,
        )
        result = sched.run(
            [AgentScript("s", [ScriptedAttempt(0.0, E), ScriptedAttempt(0.0, F)])]
        )
        assert result.central_queue_wait > 0
        assert result.max_site_load >= 2

    def test_nonrejectable_forced(self):
        a = Event("a")
        result = self.run_one(
            [parse("~a")],
            [(0.0, a)],
            attributes={a: EventAttributes(rejectable=False)},
        )
        assert any(v.kind == "forced" for v in result.violations)
