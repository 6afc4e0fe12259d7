"""Seeded protocol mutants: Section 4.3's protocol with one mechanism,
or one clause of the drain loop, the recovery path or a settled
base's finality, deleted.

Each factory returns a patch (a context manager); every
``DistributedScheduler`` run under it runs the mutant, with either
engine.  A mechanism or a clause earns its place by a named check its
mutant fails: the mechanism tests in ``test_policy_and_failures.py``,
the explorer properties in ``test_explore.py`` and the clause pins in
``test_clauses.py`` (EXPERIMENTS.md tabulates the kills).  One mutant
runs the other way: :func:`announce_to_settled` puts back the
announcements the protocol prunes, and ``test_explore.py`` checks that
it decides exactly what the protocol decides, with more messages.
"""

import contextlib
import dataclasses
import inspect
import textwrap
from unittest import mock

from repro.scheduler import DistributedScheduler, actors
from repro.scheduler.actors import ActorStatus, BaseActor, Role
from repro.scheduler.messages import NotYetReply, PromiseRequest, Release
from repro.temporal import compiled


def no_chaining():
    """A promise is granted whenever the grantee's guard is still
    possible, without securing the grantee's own eventuality needs:
    the grant rule both engines ask chains nothing."""
    rule = compiled.grant_decision

    def grant_when_possible(guard, assumed):
        possible, _secured, _targets = rule(guard, assumed)
        return possible, True, ()

    return mock.patch.object(compiled, "grant_decision", grant_when_possible)


def eager_triggering():
    """Any promise request reaching an idle triggerable event causes it,
    as if every request were demanded.  The handlers are bound at
    import, so the mutant patches the dispatch table."""
    handle = actors.HANDLERS[PromiseRequest]

    def eager(actor, req):
        if actor.status is ActorStatus.IDLE:
            req = dataclasses.replace(req, demand=True)
        handle(actor, req)

    return mock.patch.dict(actors.HANDLERS, {PromiseRequest: eager})


def duplicate_releases():
    """A second copy of a certificate the current round holds is taken
    for a stale one: the freeze it carries is released."""
    handle = actors.HANDLERS[NotYetReply]

    def release(role, reply):
        if (
            reply.status == "not_yet"
            and role.round_active
            and reply.round_id == role.round_id
            and reply.target in role.round_holds
        ):
            role.sched.send_to_actor(
                role, reply.target,
                Release(
                    target=reply.target, requester=role.event,
                    round_id=reply.round_id,
                ),
            )
            return
        handle(role, reply)

    return mock.patch.dict(actors.HANDLERS, {NotYetReply: release})


def no_escalation():
    """Parked actors demand nothing at quiescence: settlement follows
    the sweep directly."""
    return mock.patch.object(
        DistributedScheduler, "_escalation_rounds", lambda self: None
    )


def _resolutions_without(dropped):
    return mock.patch.object(
        compiled, "_RESOLUTIONS",
        tuple(row for row in compiled._RESOLUTIONS if not dropped(*row)),
    )


def no_certificates():
    """No not-yet certificates: an uncertain literal is resolved by a
    promise or not at all."""
    return _resolutions_without(lambda facts, target, certify: certify)


def no_combined_resolutions():
    """A literal is resolved by a not-yet certificate or by a promise,
    never by both for one base."""
    return _resolutions_without(
        lambda facts, target, certify: certify and target is not None
    )


# ----------------------------------------------------------------------
# the drain loop and the recovery path, clause by clause


def no_sweep_run():
    """A quiescence sweep's releases are not delivered before the
    escalation rounds."""
    return without(DistributedScheduler, "drain", "if swept:")


def escalate_before_sweep():
    """Each drain round escalates before it sweeps orphan freezes."""

    def drain(self):
        while True:
            self._escalation_rounds()
            swept = self._sweep_orphan_freezes()
            if swept:
                self.sim.run()
            batch = self._uncrossed(self._settlement_candidates())
            if not self._settle_round(batch) and not swept:
                return

    return mock.patch.object(DistributedScheduler, "drain", drain)


def crossing_group_at_once():
    """A settlement round settles every candidate, however many of one
    crossing group."""
    return replacing(
        DistributedScheduler, "drain",
        "batch = self._uncrossed(self._settlement_candidates())",
        "batch = self._settlement_candidates()",
    )


def no_sync_round():
    """A restarted role asks for no settled fact: its knowledge stays
    empty."""
    return without(
        Role, "recover",
        "for base in sorted(self._durable_guard.bases(), key=Event.sort_key):",
    )


def no_recovered_broadcast():
    """A restarted site does not tell its subscribers."""
    return without(
        DistributedScheduler, "_recover_site_body",
        "self._send(actor, dst, Recovered(base=actor.base))",
    )


def no_reannounce():
    """A restarted site does not announce its settled bases again."""
    return without(
        DistributedScheduler, "_recover_site_body",
        "if actor.settled is not None:",
    )


def no_round_abort():
    """A round awaiting a restarted base waits on."""
    return without(
        Role, "on_recovered",
        "if self.round_active and msg.base in self.round_awaiting:",
    )


def no_retry_at_restart():
    """An attempt on a down site is lost, even if the site comes back."""
    return without(DistributedScheduler, "attempt", "if restart is not None:")


def no_monitor_rebuild():
    """A restarted site's requirement monitors keep their pre-crash
    state and are not resynced."""
    return without(
        DistributedScheduler, "_recover_site_body",
        "self._recover_monitors(site)",
    )


def no_stale_release():
    """A certificate of no current round keeps the freeze it carries."""
    return without(
        Role, "on_not_yet_reply", 'if reply.status == "not_yet" and not (',
    )


def release_holds_only():
    """A finished round releases the bases it holds, not those whose
    certificate is still on its way."""
    return replacing(
        Role, "_finish_round",
        "to_release = self.round_holds | self.round_awaiting",
        "to_release = self.round_holds",
    )


def deferred_certificates_dropped():
    """A certificate request the priority rule deferred is never
    served."""
    return without(BaseActor, "round_finished", "for req in deferred:")


def announce_to_settled():
    """A settlement is announced to every subscribing actor, also to
    one whose base the publisher knows has settled."""
    return replacing(
        DistributedScheduler, "publish",
        "known = [role.knowledge for role in actor.roles.values()]",
        "known = []",
    )


# ----------------------------------------------------------------------
# a settled base is final


@contextlib.contextmanager
def settled_assimilates():
    """A settled base goes on assimilating: its actor hands late
    announcements to its roles, and they learn late grants and
    replies."""
    with without(
        BaseActor, "on_announce", "if self.settled is not None:"
    ), without(Role, "learn", "if self.actor.settled is not None:"):
        yield


def settled_residual_unrendered():
    """A settled role's residual is read as the cursor last left it,
    not under its final knowledge."""
    return without(Role, "guard", "if self.actor.settled is not None:")


def without(owner, name: str, *statements: str):
    """``owner.name`` with each of ``statements`` deleted.  A statement
    is named by its first source line (stripped) and goes with the
    lines after it that are more indented or close a bracket -- its
    continuation or its block -- leaving a ``pass`` behind."""
    return _rewritten(owner, name, dict.fromkeys(statements))


def replacing(owner, name: str, line: str, replacement: str):
    """``owner.name`` with the one-line statement ``line`` (stripped)
    replaced by ``replacement``."""
    return _rewritten(owner, name, {line: replacement})


@contextlib.contextmanager
def _rewritten(owner, name: str, edits: dict):
    """Patch ``owner.name`` with its own source, edited: each key of
    ``edits`` names a statement, deleted for ``None`` and replaced by
    the value otherwise.  A statement that is not in the source is an
    error, so a mutant cannot outlive its clause.  A message handler is
    replaced in ``actors.HANDLERS`` too."""
    original = getattr(owner, name)
    source = getattr(original, "fget", original)  # a property's getter
    lines, missing = [], set(edits)
    depth = None  # indentation of the statement being deleted
    for line in textwrap.dedent(inspect.getsource(source)).splitlines():
        indent = len(line) - len(line.lstrip())
        if depth is not None and (
            not line.strip() or indent > depth or line.lstrip()[0] in ")]}"
        ):
            continue
        depth = None
        if line.strip() in edits:
            missing.discard(line.strip())
            replacement = edits[line.strip()]
            if replacement is None:
                depth, replacement = indent, "pass"
            line = " " * indent + replacement
        lines.append(line)
    if missing:
        raise ValueError(f"{owner.__name__}.{name} has no {sorted(missing)}")
    namespace: dict = {}
    exec(
        compile("\n".join(lines), inspect.getsourcefile(source), "exec"),
        source.__globals__, namespace,
    )
    mutant = namespace[name]
    handlers = {
        kind: mutant
        for kind, handler in actors.HANDLERS.items()
        if handler is original
    }
    with mock.patch.object(owner, name, mutant), mock.patch.dict(
        actors.HANDLERS, handlers
    ):
        yield
