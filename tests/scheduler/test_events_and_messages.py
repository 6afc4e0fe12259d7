"""Result types and message vocabulary."""

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import satisfies_by_definition
from repro.scheduler.events import (
    AttemptOutcome,
    EventAttributes,
    ExecutionResult,
    TraceEntry,
    Violation,
)
from repro.scheduler.messages import (
    Announce,
    NotYetReply,
    NotYetRequest,
    PromiseGrant,
    PromiseRequest,
    Release,
    TriggerMsg,
)

from tests.conftest import run_stamped_travel

E, F = Event("e"), Event("f")


class TestEventAttributes:
    def test_defaults(self):
        attrs = EventAttributes()
        assert not attrs.triggerable
        assert attrs.rejectable
        assert attrs.auto_complement
        assert not attrs.guaranteed
        assert attrs.delayable

    def test_frozen(self):
        attrs = EventAttributes()
        try:
            attrs.triggerable = True
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestTraceEntryAndResult:
    def test_decision_latency(self):
        entry = TraceEntry(E, time=7.0, attempted_at=2.0,
                           outcome=AttemptOutcome.ACCEPTED)
        assert entry.decision_latency == 5.0

    def test_trace_property(self):
        result = ExecutionResult()
        result.entries.append(
            TraceEntry(E, 1.0, 0.0, AttemptOutcome.ACCEPTED)
        )
        result.entries.append(
            TraceEntry(~F, 2.0, 2.0, AttemptOutcome.ACCEPTED)
        )
        assert repr(result.trace) == "<e ~f>"

    def test_ok_reflects_violations_and_unsettled(self):
        result = ExecutionResult()
        assert result.ok
        result.unsettled.append(E)
        assert not result.ok

    def test_mean_decision_latency(self):
        result = ExecutionResult()
        assert result.mean_decision_latency() == 0.0
        result.entries.append(TraceEntry(E, 4.0, 0.0, AttemptOutcome.ACCEPTED))
        result.entries.append(TraceEntry(F, 6.0, 4.0, AttemptOutcome.ACCEPTED))
        assert result.mean_decision_latency() == 3.0

    def test_verify_appends_violations(self):
        result = ExecutionResult()
        result.entries.append(TraceEntry(F, 1.0, 0.0, AttemptOutcome.ACCEPTED))
        result.entries.append(TraceEntry(E, 2.0, 0.0, AttemptOutcome.ACCEPTED))
        found = result.verify([parse("~e + ~f + e . f")])
        assert found and not result.ok

    def test_verify_reports_exactly_the_injected_violations(self):
        """Tamper with a clean travel run so one ``Seq`` dependency and
        one ``Choice`` dependency fail; ``verify`` must report what the
        by-definition reference reports, string for string."""
        result, deps = run_stamped_travel(
            ["success", "failure", "success", "failure"]
        )
        assert result.verify(deps) == []
        where = {entry.event: i for i, entry in enumerate(result.entries)}
        # instance 0 (success): buy before book breaks ``c_book . c_buy``
        book, buy = where[Event("c_book_i0")], where[Event("c_buy_i0")]
        entries = result.entries
        entries[book], entries[buy] = entries[buy], entries[book]
        # instance 1 (failure): no compensation breaks the three-way choice
        del entries[where[Event("s_cancel_i1")]]

        found = result.verify(deps)

        trace = result.trace
        expected = [
            Violation("dependency", f"trace {trace!r} violates {dep!r}")
            for dep in deps
            if not satisfies_by_definition(trace, dep)
        ]
        assert found == expected
        assert result.violations == expected
        assert [v.detail.split(" violates ")[1] for v in found] == [
            "~c_buy_i0 + c_book_i0 . c_buy_i0",
            "~c_book_i1 + c_buy_i1 + s_cancel_i1",
        ]

    def test_verify_without_dependencies_checks_nothing(self):
        result = ExecutionResult()
        result.entries.append(TraceEntry(E, 1.0, 0.0, AttemptOutcome.ACCEPTED))
        assert result.verify([]) == [] and result.ok


class TestMessages:
    def test_kinds_are_distinct(self):
        kinds = {
            Announce.kind,
            PromiseRequest.kind,
            PromiseGrant.kind,
            NotYetRequest.kind,
            NotYetReply.kind,
            Release.kind,
            TriggerMsg.kind,
        }
        assert len(kinds) == 7

    def test_messages_are_frozen_values(self):
        req = PromiseRequest(target=F, requester=E, chain=(E,))
        assert req == PromiseRequest(target=F, requester=E, chain=(E,))
        assert not req.demand

    def test_not_yet_reply_statuses(self):
        for status in ("not_yet", "occurred", "comp_occurred"):
            reply = NotYetReply(target=F, requester=E, status=status)
            assert reply.status == status
