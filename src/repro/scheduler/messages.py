"""Message vocabulary of the distributed event-centric scheduler.

Section 4.3: when an event happens, ``[]e`` announcements flow to the
actors of dependent events; ``<>e`` may be sent as a *promise*; and
``!f`` subexpressions require a short certificate exchange so that
the two events agree on whether ``f`` has happened yet.  Each message
below is one leg of those protocols; the ``kind`` strings are what the
network statistics aggregate by.

A promise request is answered by a grant or not at all: a role that
cannot promise stays silent.  The requester's guard mentions the
target's base, so it subscribes to it and hears the base settle
either way.  The recovery messages (sync, ``Recovered``) exist for the
fault model of :mod:`repro.sim.faults` only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.symbols import Event


@dataclass(frozen=True)
class Announce:
    """``[]e``: the event has occurred (sent once per subscribing base
    that may still decide: not to one the publisher knows has settled)."""

    event: Event

    kind = "announce"


@dataclass(frozen=True)
class PromiseRequest:
    """Ask ``target``'s role for a ``<>target`` promise.

    Carries the requester so the grantee may evaluate its own guard
    under the assumption that the requester will occur (the mutual
    ``<>`` consensus of Example 11).  ``demand`` marks an escalated
    request issued at quiescence: an idle *triggerable* target is then
    triggered to satisfy it (lazy triggering -- the scheduler causes
    events only once nothing else can make progress).

    ``chain`` records the requesters up the request chain: a grantee
    whose own guard needs further eventualities re-requests with
    itself appended, and a request whose chain loops back closes the
    consensus cycle (all chain members occur together).
    """

    target: Event
    requester: Event
    demand: bool = False
    chain: tuple = ()

    kind = "promise_request"


@dataclass(frozen=True)
class PromiseGrant:
    """``<>target``: the target event is guaranteed to occur."""

    target: Event
    requester: Event

    kind = "promise_grant"


@dataclass(frozen=True)
class NotYetRequest:
    """Ask ``target``'s actor to certify ``target`` has not occurred.

    ``round_id`` identifies the requester's certificate round; replies
    echo it so a reply from an earlier round (retransmitted, delayed,
    or predating a crash) is recognized as stale and its certificate
    released instead of being consumed.
    """

    target: Event
    requester: Event
    round_id: int = 0

    kind = "not_yet_request"


@dataclass(frozen=True)
class NotYetReply:
    """Reply to a :class:`NotYetRequest`.

    ``status`` is one of ``"not_yet"`` (certified, and the target's actor
    froze its base until released), ``"occurred"``, or
    ``"comp_occurred"``.
    """

    target: Event
    requester: Event
    status: str
    round_id: int = 0

    kind = "not_yet_reply"


@dataclass(frozen=True)
class Release:
    """Release a freeze taken on behalf of ``requester``'s round."""

    target: Event
    requester: Event
    round_id: int = 0

    kind = "release"


@dataclass(frozen=True)
class SyncRequest:
    """Recovery: ask ``base``'s actor whether the base settled.

    Sent by a restarted role (or on behalf of a restarted monitor)
    for every base its guard mentions.
    """

    base: Event
    requester: Event

    kind = "sync_request"


@dataclass(frozen=True)
class SyncReply:
    """Recovery reply: the base's durable settlement status.

    ``status`` is ``"occurred"``, ``"comp_occurred"``, or
    ``"unsettled"`` -- unlike a not-yet certificate this carries no
    freeze, only the (stable) occurrence facts, which is all a
    restarted role needs to rebuild its knowledge masks.
    """

    base: Event
    requester: Event
    status: str

    kind = "sync_reply"


@dataclass(frozen=True)
class Recovered:
    """Recovery broadcast: ``base``'s actor restarted and its roles
    lost their volatile protocol state.

    Sent once per subscribing base (the roles that may have rounds
    outstanding against it).  A receiving role aborts a certificate
    round awaiting the base; the role retries it on its next
    solicitation, or by escalation at quiescence."""

    base: Event

    kind = "recovered"


@dataclass(frozen=True)
class TriggerMsg:
    """The scheduler causes a triggerable event in its task agent."""

    event: Event

    kind = "trigger"
