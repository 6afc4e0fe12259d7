"""Requirement monitoring: when triggerable events must be caused."""

from collections import Counter

from repro.algebra.expressions import TOP, ZERO
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.monitors import RequirementMonitor, required_events

E, F, G = Event("e"), Event("f"), Event("g")


class TestRequiredEvents:
    def test_nothing_required_initially_for_arrow(self):
        # ~e + f can be discharged by ~e alone: f is not required
        assert required_events(parse("~e + f"), frozenset()) == frozenset()

    def test_atom_is_required(self):
        assert required_events(parse("f"), frozenset()) == frozenset({F})

    def test_doomed_returns_none(self):
        assert required_events(ZERO, frozenset()) is None

    def test_top_requires_nothing(self):
        assert required_events(TOP, frozenset()) == frozenset()

    def test_settled_bases_limit_completions(self):
        # residual e + f, but f's base already settled: only e remains
        residual = parse("e + f")
        assert required_events(residual, frozenset({F})) == frozenset({E})

    def test_common_event_across_paths(self):
        # (e . f) + (g . f): every completion contains f
        residual = parse("e . f + g . f")
        assert F in required_events(residual, frozenset())


class TestRequirementMonitor:
    def test_triggers_after_enabling_event(self):
        """Example 4 dependency (1): s_book required once s_buy occurs."""
        s_buy, s_book = Event("s_buy"), Event("s_book")
        triggered = []
        monitor = RequirementMonitor(
            [parse("~s_buy + s_book")],
            frozenset({s_book}),
            trigger=triggered.append,
        )
        monitor.evaluate()
        assert triggered == []
        monitor.observe(s_buy)
        assert triggered == [s_book]

    def test_does_not_trigger_twice(self):
        s_buy, s_book = Event("s_buy"), Event("s_book")
        triggered = []
        monitor = RequirementMonitor(
            [parse("~s_buy + s_book")], frozenset({s_book}), triggered.append
        )
        monitor.observe(s_buy)
        monitor.evaluate()
        assert triggered == [s_book]

    def test_compensation_chain(self):
        """Example 4 dependency (3): cancel required only after c_book
        occurred and c_buy settled against."""
        c_book, c_buy, s_cancel = (
            Event("c_book"),
            Event("c_buy"),
            Event("s_cancel"),
        )
        triggered = []
        monitor = RequirementMonitor(
            [parse("~c_book + c_buy + s_cancel")],
            frozenset({s_cancel}),
            triggered.append,
        )
        monitor.observe(c_book)
        assert triggered == []
        monitor.observe(~c_buy)
        assert triggered == [s_cancel]

    def test_doomed_callback(self):
        doomed = []
        monitor = RequirementMonitor(
            [parse("e . f")],
            frozenset(),
            trigger=lambda ev: None,
            doomed=lambda dep, res: doomed.append(res),
        )
        monitor.observe(F)  # f before e kills e . f
        assert doomed and doomed[0] == ZERO

    def test_residual_accessor(self):
        dep = parse("~e + f")
        monitor = RequirementMonitor([dep], frozenset(), lambda ev: None)
        monitor.observe(E)
        assert monitor.residual(dep) == parse("f")

    def test_never_triggers_complements(self):
        dep = parse("~e")
        triggered = []
        monitor = RequirementMonitor([dep], frozenset({E}), triggered.append)
        monitor.evaluate()
        assert triggered == []

    def test_duplicate_observation_is_idempotent(self):
        """The session layer is at-least-once across a site restart, so
        the same announcement can arrive twice; residuating twice by
        the same event would corrupt the residual."""
        dep = parse("~e + f")
        monitor = RequirementMonitor([dep], frozenset(), lambda ev: None)
        monitor.observe(E)
        once = monitor.residual(dep)
        monitor.observe(E)
        assert monitor.residual(dep) == once == parse("f")

    def test_duplicate_does_not_retrigger(self):
        s_buy, s_book = Event("s_buy"), Event("s_book")
        triggered = []
        monitor = RequirementMonitor(
            [parse("~s_buy + s_book")], frozenset({s_book}), triggered.append
        )
        monitor.observe(s_buy)
        monitor.observe(s_buy)
        assert triggered == [s_book]


class TestTriggeringUnderDelay:
    """The distributed monitor is fed by cross-site announcements; with
    real message latency it must still trigger (just later), and doomed
    states must still surface as violations."""

    def _run(self, latency, deps, attempts, attributes, sites):
        from repro.scheduler import DistributedScheduler
        from repro.scheduler.agents import AgentScript, ScriptedAttempt
        from repro.sim.network import ConstantLatency

        sched = DistributedScheduler(
            deps,
            attributes=attributes,
            sites=sites,
            latency=ConstantLatency(latency),
        )
        scripts = {}
        for time, event in attempts:
            site = sites.get(event.base, f"site_{event.base.name}")
            scripts.setdefault(site, []).append(ScriptedAttempt(time, event))
        return sched.run(
            [AgentScript(site, atts) for site, atts in scripts.items()]
        )

    def test_trigger_fires_across_slow_links(self):
        from repro.scheduler import EventAttributes

        s_buy, s_book = Event("s_buy"), Event("s_book")
        sites = {s_buy: "shop", s_book: "supplier"}
        result = self._run(
            latency=3.0,
            deps=[parse("~s_buy + s_book")],
            attempts=[(0.0, s_buy)],
            attributes={s_book: EventAttributes(triggerable=True)},
            sites=sites,
        )
        assert result.ok
        occurred = {en.event for en in result.entries}
        assert occurred == {s_buy, s_book}
        assert result.triggered >= 1
        # cross-site coordination cannot beat the wire: nothing settles
        # before at least one 3.0-latency flight
        assert all(en.time >= 3.0 for en in result.entries)

    def test_delayed_monitor_still_detects_doomed(self):
        from repro.scheduler import EventAttributes

        a = Event("a")
        result = self._run(
            latency=2.5,
            deps=[parse("~a")],
            attempts=[(0.0, a)],
            attributes={a: EventAttributes(rejectable=False)},
            sites={a: "site_a"},
        )
        assert any(v.kind == "dependency" for v in result.violations)


class TestMonitorSubscriptions:
    """A site's monitor hears of each occurrence once, however many of
    its dependencies mention the base."""

    @staticmethod
    def _heard_by_monitors(sched):
        """Log the announcements a monitor hears (the ones addressed to
        a site's fanout that holds one) as they are sent."""
        heard = []
        send = sched.channel.send

        def logging_send(src, dst, kind, payload, deliver):
            if getattr(deliver, "monitor", None) is not None:
                assert kind == "announce"
                heard.append((dst, payload.event))
            send(src, dst, kind, payload, deliver)

        sched.channel.send = logging_send
        return heard

    def test_overlapping_dependencies_subscribe_once(self):
        from repro.scheduler import DistributedScheduler, EventAttributes
        from repro.scheduler.agents import AgentScript, ScriptedAttempt

        a, b, c = Event("a"), Event("b"), Event("c")
        sched = DistributedScheduler(
            [parse("~a + b"), parse("~a + ~c + b")],
            attributes={b: EventAttributes(triggerable=True)},
        )
        ((site, monitor),) = [(m.site, m) for m in sched._monitors]
        assert {
            base
            for base, at in sched._fanouts.items()
            if getattr(at.get(site), "monitor", None) is monitor
        } == {a, b, c}
        heard = self._heard_by_monitors(sched)
        result = sched.run(
            [AgentScript("site_a", [ScriptedAttempt(0.0, a)])]
        )
        assert result.ok
        # one announcement per (occurrence, monitor), none repeated
        assert sorted(heard, key=repr) == sorted(
            ((site, entry.event) for entry in result.entries), key=repr
        )
        assert {entry.event.base for entry in result.entries} == {a, b, c}

    def test_committed_example_sends_what_it_sent(self):
        """``examples/travel.wf`` has no such overlap: every monitor
        hears each occurrence once.  Its announcements cross once per
        destination site that may still decide, and no certificate is
        taken on a base whose complement is firing (releases counted
        with the hand-offs within a site)."""
        from pathlib import Path

        from repro.scheduler import DistributedScheduler
        from repro.scheduler.agents import AgentScript, ScriptedAttempt
        from repro.workflows.loader import load

        spec = Path(__file__).resolve().parents[2] / "examples" / "travel.wf"
        workflow = load(spec)
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
        )
        heard = self._heard_by_monitors(sched)
        kinds = Counter()
        send = sched.channel.send

        def counting_send(src, dst, kind, payload, deliver):
            kinds[kind] += 1
            send(src, dst, kind, payload, deliver)

        sched.channel.send = counting_send
        result = sched.run(
            [AgentScript("cli", [ScriptedAttempt(0.0, Event("s_buy"))])]
        )
        assert result.ok
        assert len(heard) == len(set(heard)) == len(result.entries)
        assert result.messages == 26
        assert sched.network.stats.intra_site == 10
        assert result.messages_by_kind["announce"] == 5
        assert kinds["release"] == 6
