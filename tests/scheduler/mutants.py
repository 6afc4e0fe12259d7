"""Seeded protocol mutants: Section 4.3's protocol with one mechanism
deleted.

Each factory returns a ``unittest.mock`` patch; every
``DistributedScheduler`` run under it runs the mutant, with either
engine.  A mechanism earns its place by a named check its mutant fails:
the mechanism tests in ``test_policy_and_failures.py`` and the
explorer properties in ``test_explore.py`` (EXPERIMENTS.md tabulates
the kills).
"""

import dataclasses
from unittest import mock

from repro.scheduler import DistributedScheduler, guard_scheduler
from repro.scheduler.actors import ActorStatus, Role
from repro.scheduler.messages import PromiseRequest
from repro.temporal import compiled


def no_chaining():
    """A promise is granted whenever the grantee's guard is still
    possible, without securing the grantee's own eventuality needs."""
    return mock.patch.object(
        Role, "_secured_cube", lambda self, assumed: True
    )


def eager_triggering():
    """Any promise request reaching an idle triggerable event causes it,
    as if every request were demanded.  The handlers are bound at
    import, so the mutant patches the dispatch table."""
    handle = guard_scheduler._HANDLERS[PromiseRequest]

    def eager(actor, req):
        if actor.status is ActorStatus.IDLE:
            req = dataclasses.replace(req, demand=True)
        handle(actor, req)

    return mock.patch.dict(guard_scheduler._HANDLERS, {PromiseRequest: eager})


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
