"""Base actors: the distributed unit of scheduling (Sections 2, 4.3).

One actor per base holds both polarity guards; facts are announced
once per destination site where a base may still decide, a
:class:`Fanout` hands them to that site's subscribers, and the receiver
enforces it: a base's settlement is the last fact its actor
assimilates.  A base and its complement are one decision.  Each
polarity is a :class:`Role` with its own guard (as a cube region,
:mod:`repro.temporal.cubes`), its own *knowledge* about other bases (a
world mask per base, tightened monotonically as messages arrive) and
its own protocol bookkeeping, since a grant is conditional on its
requester.  The :class:`BaseActor` keeps what they share --
settlement, freezes and deferred certificate requests -- and hands
each announcement to the roles that subscribe.  Actors and roles are
their own message handlers: the fabric delivers a message to the
addressee itself, whose ``__call__`` looks its type up in
:data:`HANDLERS`.
Each role runs the two consensus subprotocols the paper calls out:

* **promises** -- a guard needing ``<>f`` can be discharged by a
  conditional promise from ``f``'s role before ``f`` actually occurs
  (Example 11's mutual-``<>`` consensus).  A role that cannot promise
  does not answer: the requester subscribes to ``f``'s base and hears
  it settle either way;
* **not-yet certificates** -- a guard containing ``!f`` requires the
  two events to agree that ``f`` has not happened yet; the certifying
  actor freezes its base until the requester decides, so the
  agreement cannot be invalidated in flight.

Deadlock freedom of the not-yet protocol comes from a priority rule:
an actor with an outstanding round of either role defers certificate
requests from *larger*-keyed bases until its round completes, so the
wait-for relation among active rounds is acyclic.

Decision rule on an attempt (Section 4.3's "evaluation"):

* knowledge region inside the guard region -> **fire**;
* guard unreachable under knowledge closure -> **reject permanently**
  (for a positive event the actor then attempts the complement);
* otherwise -> **park**, and solicit exactly the facts (promises /
  certificates) that could complete some cube of the guard.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping

from repro.algebra.symbols import Event
from repro.scheduler.messages import (
    Announce,
    NotYetReply,
    NotYetRequest,
    PromiseGrant,
    PromiseRequest,
    Recovered,
    Release,
    SyncReply,
    SyncRequest,
)
from repro.temporal.compiled import NOT_YET_MASK
from repro.temporal.cubes import (
    C_OCC,
    DIA_COMP_MASK,
    DIA_MASK,
    E_OCC,
    FULL,
    GuardExpr,
)
from repro.temporal.guards import Binding, as_guard

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.guard_scheduler import DistributedScheduler


class ActorStatus(enum.Enum):
    IDLE = "idle"          # never attempted
    PENDING = "pending"    # attempted, decision outstanding (parked)
    OCCURRED = "occurred"  # the event happened
    DEAD = "dead"          # the complement happened; can never occur
    REJECTED = "rejected"  # permanently refused; complement may follow


#: the empty set every role's and actor's set-valued bookkeeping starts
#: from and returns to: an idle role holds no container of its own, and
#: a write rebinds (``|=``) rather than mutating a shared empty
EMPTY: frozenset = frozenset()


class Role:
    """One polarity of a :class:`BaseActor`: the guard of one signed
    event, and what the role knows and has asked for.  Every attribute
    is set here, so all roles share one layout; the bookkeeping sets and
    queues start as :data:`EMPTY` and ``()``."""

    __slots__ = (
        "event", "_durable_guard", "actor", "subscribed", "site", "sched",
        "status", "attempted_at", "knowledge", "cursor", "round_active",
        "round_id", "round_awaiting", "round_holds",
        "_knowledge_dirty", "promise_requested", "granted_to",
        "deferred_promise_reqs", "pending_grant_reqs", "_escalated_cubes",
    )

    def __init__(
        self, event: Event, guard: Binding | GuardExpr, actor: "BaseActor"
    ):
        self.event = event
        #: the durable (logged) guard-table entry: the compiled artifact
        #: (a binding as synthesis or a template hands it over, or a
        #: plain guard) plus any run-time reconfigurations, *without* the
        #: volatile ``simplify_under`` compressions -- this is what a
        #: crash re-enters and recovery re-simplifies as facts return
        self._durable_guard = guard
        #: the base actor this role belongs to
        self.actor = actor
        #: the bases whose announcements this role hears (its guard's,
        #: as the scheduler subscribed them)
        self.subscribed = ()
        self.site = actor.site
        self.sched = scheduler = actor.sched
        self.status = ActorStatus.IDLE
        self.attempted_at: float | None = None
        self.knowledge: dict[Event, int] = {}
        #: guard-evaluation state: one pointer into the scheduler's
        #: interned automaton, moved in step with ``(guard, knowledge)``
        #: (it reads this live knowledge map when it binds)
        self.cursor = scheduler.new_cursor(guard, self.knowledge)
        # -- own not-yet round --
        self.round_active = False
        self.round_id = 0  # scheduler-issued; replies echo it
        self.round_awaiting: frozenset[Event] | set[Event] = EMPTY
        # certified: frozen for us
        self.round_holds: frozenset[Event] | set[Event] = EMPTY
        self._knowledge_dirty = True  # new facts since last round?
        # -- promise bookkeeping --
        # (target, chain) -> demand level already sent; a request with
        # a new chain carries new assumption context and must go out
        # even if the bare target was asked before
        self.promise_requested: dict[tuple, int] = {}
        self.granted_to: frozenset[Event] = EMPTY  # promised <>self to these
        self.deferred_promise_reqs: tuple[PromiseRequest, ...] = ()
        self.pending_grant_reqs: tuple[PromiseRequest, ...] = ()
        # -- escalation bookkeeping --
        self._escalated_cubes: frozenset = EMPTY

    def __call__(self, message) -> None:
        """The fabric's handler for every message addressed to this
        role: the role itself, so a message carries no bound method."""
        HANDLERS[type(message)](self, message)

    @property
    def guard(self) -> GuardExpr:
        """The residual guard on the real names (the cursor renders it);
        a settled role's is assimilated to its final knowledge on read."""
        if self.actor.settled is not None:
            self.cursor.assimilate()
        return self.cursor.guard

    @property
    def durable_guard(self) -> GuardExpr:
        """The durable guard on the real names."""
        return as_guard(self._durable_guard)

    # ------------------------------------------------------------------
    # knowledge

    def learn(self, base: Event, mask: int) -> None:
        """Tighten the knowledge mask for ``base``.  A settled role
        learns nothing more."""
        if self.actor.settled is not None:
            return
        current = self.knowledge.get(base, FULL)
        updated = current & mask
        if updated != current:
            self.knowledge[base] = updated
            self._knowledge_dirty = True
            self.cursor.learn(base, updated)

    def observe_occurrence(self, event: Event) -> None:
        """Assimilate a ``[]`` announcement (the Section 4.3 proof rules)."""
        self.learn(event.base, C_OCC if event.negated else E_OCC)
        profiler = self.sched.profiler  # per announcement: no call unprofiled
        if profiler is not None:
            profiler.push("cube_ops", site=self.site, event=repr(self.event))
        try:
            # a pointer hop on the compiled automaton (the node caches
            # the very ``simplify_under`` result it replaces)
            self.cursor.assimilate()
        finally:
            if profiler is not None:
                profiler.pop()
        self.try_fire()
        self._process_pending_grants()

    def note_occurrence(self, event: Event) -> None:
        """The skip path: record the announced fact without
        re-evaluating the guard.

        Identical ``learn`` call to :meth:`observe_occurrence`, so
        knowledge stays equal to the reference engine's.  The scheduler
        routes here when the announced base is outside the residual's
        support (the wake rule, :mod:`repro.temporal.compiled`): the
        fact cannot move the residual, so the skipped pass would not
        change the verdict.  It is not quite a no-op: ``learn`` marks
        the knowledge dirty, so a parked role's next solicitation may
        start a certificate round that the reference engine, which
        re-evaluates here, starts at once."""
        self.learn(event.base, C_OCC if event.negated else E_OCC)

    def strengthen_guard(self, extra: GuardExpr) -> None:
        """Conjoin a contribution from a dependency added at run time.

        The new constraint is assimilated against everything already
        known; a pending attempt is re-examined (it may now be
        impossible) and the escalation bookkeeping reset, since the
        cube structure changed.
        """
        self._durable_guard = self.durable_guard & extra
        # incremental recompile: re-enter the automaton at the
        # strengthened guard, then assimilate everything already known
        self.cursor.reset(self.guard & extra, self.knowledge)
        self.cursor.assimilate()
        self._escalated_cubes = EMPTY
        self._knowledge_dirty = True
        self.try_fire()

    def replace_guard(self, new_guard: GuardExpr) -> None:
        """Install a recomputed guard (dependency removed at run time).

        The guard can only have weakened, so a parked attempt may now
        fire; a previously rejected attempt may be retried by its
        agent (rejection is not retracted here -- the complement may
        already be in flight).
        """
        self._durable_guard = new_guard
        self.cursor.reset(new_guard, self.knowledge)
        self.cursor.assimilate()
        self._escalated_cubes = EMPTY
        self._knowledge_dirty = True
        self.try_fire()

    # ------------------------------------------------------------------
    # attempts and decisions

    def attempt(self, attempted_at: float) -> None:
        if self.status in (ActorStatus.OCCURRED, ActorStatus.DEAD):
            return
        if self.status is ActorStatus.IDLE or self.status is ActorStatus.REJECTED:
            self.status = ActorStatus.PENDING
            self.attempted_at = attempted_at
            self.sched.note_attempted(self.site, self.event)
        # answer promise requests that waited for us to become pending
        deferred, self.deferred_promise_reqs = self.deferred_promise_reqs, ()
        for req in deferred:
            self.on_promise_request(req)
        self.try_fire()

    def try_fire(self) -> None:
        if self.status is not ActorStatus.PENDING:
            return
        if self.actor.is_frozen(self.event):
            return  # some requester holds a certificate on our base
        verdict = self._evaluate_guard()
        if verdict == "fire":
            self.actor.occur(self)
            return
        if verdict == "never":
            self._reject()
            return
        if not self.sched.attributes(self.event.base).delayable:
            # non-delayable (Section 2): an undetermined guard at
            # attempt time means rejection, not parking
            self._reject()
            return
        self.sched.note_parked(self.site, self.event, self.attempted_at)
        self._solicit()

    def _evaluate_guard(self) -> str:
        """Decide fire/park/never for the residual guard under current
        knowledge (Section 4.3's evaluation rule).  Per evaluation: an
        untraced, unprofiled one makes no call beyond its counter."""
        sched = self.sched
        sched.metrics.inc("guard_evals", site=self.site)
        profiler = sched.profiler
        if profiler is not None:
            profiler.push("guard_eval", site=self.site, event=repr(self.event))
        try:
            verdict = self.cursor.verdict()
        finally:
            if profiler is not None:
                profiler.pop()
        if sched.tracer.active:
            self._trace_eval(verdict, self.knowledge)
        return verdict

    def _trace_eval(self, verdict: str, knowledge: dict[Event, int]) -> None:
        """The ``guard/eval`` record, with the durable guard's cubes as
        JSON-ready ``[[base, mask]]`` lists (string base names) and the
        knowledge it was decided under, for offline provenance replay.
        Called in a traced run only."""
        sched = self.sched
        durable = self.durable_guard
        sched.tracer.guard_eval(
            sched.sim.now, self.site, self.event,
            guard=durable, residual=self.guard,
            verdict=verdict,
            cubes=[
                sorted([repr(base), mask] for base, mask in cube)
                for cube in durable.sorted_cubes()
            ],
            knowledge=self._structured_knowledge(knowledge),
        )

    @staticmethod
    def _structured_knowledge(knowledge: dict[Event, int]) -> dict[str, int]:
        return {
            repr(base): mask
            for base, mask in sorted(
                knowledge.items(), key=lambda item: item[0].sort_key()
            )
        }

    def _reject(self) -> None:
        if not self.sched.attributes(self.event.base).rejectable:
            # Nonrejectable events happen no matter what (Section 3.3);
            # record the forced acceptance as a violation source.
            self.sched.note_forced(self.site, self.event)
            self.actor.occur(self)
            return
        self._finish_round()
        self.status = ActorStatus.REJECTED
        self.actor.rejected(self)

    # ------------------------------------------------------------------
    # solicitation: figure out which facts could complete a cube

    def _solicit_plan(self) -> tuple[list[Event], bool, tuple[Event, ...]]:
        """What soliciting would do now, without doing it.

        Returns ``(requests, demand, certificates)`` for the first
        requestable cube: the promise targets not yet requested at the
        required demand level, that level, and the bases a not-yet
        round would certify.  One requestable cube at a time keeps
        traffic low.

        The cube's needs depend only on ``(guard, knowledge)`` -- the
        cursor's node -- so they are computed once per guard shape; what
        is per role (its own base, its request record) applies here.
        """
        demand, promises, certificates = self.cursor.plan()
        level = 1 if demand else 0
        own, chain = self.event.base, (self.event,)
        requests = [
            target
            for target in promises
            if target.base is not own
            and self.promise_requested.get((target, chain), -1) < level
        ] if promises else []
        return requests, demand, certificates

    def _solicit(self) -> None:
        requests, demand, certificates = self._solicit_plan()
        for target in requests:
            self._send_promise_request(target, demand, (self.event,))
        if certificates and not self.round_active and self._knowledge_dirty:
            self._start_round(certificates)

    # ------------------------------------------------------------------
    # promise protocol

    def _request_promise(
        self, target: Event, demand: bool = False, chain: tuple = ()
    ) -> bool:
        if target.base == self.event.base or target in chain:
            return False
        chain = chain or (self.event,)
        level = 1 if demand else 0
        key = (target, chain)
        if self.promise_requested.get(key, -1) >= level:
            return False
        self._send_promise_request(target, demand, chain)
        return True

    def _send_promise_request(
        self, target: Event, demand: bool, chain: tuple
    ) -> None:
        """Record the request at its demand level and send it (the
        caller has established it is not a repeat)."""
        self.promise_requested[(target, chain)] = 1 if demand else 0
        self.sched.send_to_role(
            self,
            target,
            PromiseRequest(
                target=target,
                requester=self.event,
                demand=demand,
                chain=chain,
            ),
        )

    def escalate(self) -> bool:
        """Quiescence escalation: demand the facts for ONE further cube.

        Called by the scheduler when the simulation has drained and
        this role is still parked -- nothing else will arrive on its
        own.  Demanding cube-by-cube keeps triggering lazy: an
        alternative that resolves cheaply (a pending event promising)
        is tried before one that would cause a triggerable event.
        Returns True when a new demand was issued."""
        if self.status is not ActorStatus.PENDING:
            return False
        for cube, promises, certificates in self.cursor.escalation_plans():
            if cube in self._escalated_cubes:
                continue
            self._escalated_cubes |= {cube}
            issued = False
            for target in promises:
                if self._request_promise(target, demand=True):
                    issued = True
            if certificates and not self.round_active:
                self._start_round(certificates)
                issued = True
            if issued:
                return True
            # nothing new went out for this cube; try the next one
        return False

    def on_promise_request(self, req: PromiseRequest) -> None:
        requester = req.requester
        if self.status is ActorStatus.OCCURRED:
            self.sched.send_to_role(
                self, requester,
                PromiseGrant(target=self.event, requester=requester),
            )
            return
        if self.status is ActorStatus.DEAD:
            return  # the requester hears the complement's announcement
        guaranteed_idle = (
            self.status is ActorStatus.IDLE
            and not self.event.negated
            and self.sched.attributes(self.event.base).guaranteed
        )
        if self.status is ActorStatus.IDLE and not guaranteed_idle:
            attrs = self.sched.attributes(self.event.base)
            if req.demand and attrs.triggerable and not self.event.negated:
                # Escalated request at quiescence: cause the event now.
                self.deferred_promise_reqs += (req,)
                self.sched.request_trigger(self)
                return
            # Remember it: re-processed when we get attempted.
            self.deferred_promise_reqs += (req,)
            return
        # PENDING (or IDLE but guaranteed by its agent): the grant is a
        # commitment to occur, so it is issued only once this role's
        # own eventuality needs are *secured* -- already known, assumed
        # via the request chain (a chain looping back is Example 11's
        # consensus cycle: all members occur together), or acquired by
        # chaining a further promise request.  Requests that cannot be
        # decided yet are parked in ``pending_grant_reqs`` and
        # re-evaluated as knowledge arrives.
        grantable = self.status is ActorStatus.PENDING or guaranteed_idle
        if not grantable:
            self.deferred_promise_reqs += (req,)
            return
        self._decide_grant(req)

    def _decide_grant(self, req: PromiseRequest) -> None:
        """Grant, chain or hold ``req`` by the node's grant decision
        (:func:`repro.temporal.compiled.grant_decision`) under the
        eventualities of the requester chain."""
        requester = req.requester
        possible, secured, targets = self.cursor.grant([
            (member.base, DIA_COMP_MASK if member.negated else DIA_MASK)
            for member in (requester, *req.chain)
        ])
        if not possible:
            return  # no promise; the outcome is announced either way
        if secured:
            self.granted_to |= {requester}
            self.sched.note_promise()
            self.sched.send_to_role(
                self, requester,
                PromiseGrant(target=self.event, requester=requester),
            )
            return
        # Not yet securable: chain further promise requests for the
        # unsecured directional needs and hold the decision.  A
        # demanded request keeps its urgency down the chain, so
        # quiescence escalation pushes whole chains through.
        chain = tuple(req.chain) + (self.event,)
        for target in targets:
            self._request_promise(target, demand=req.demand, chain=chain)
        self.pending_grant_reqs += (req,)

    def _process_pending_grants(self) -> None:
        pending, self.pending_grant_reqs = self.pending_grant_reqs, ()
        for req in pending:
            if self.status is ActorStatus.OCCURRED:
                self.sched.send_to_role(
                    self, req.requester,
                    PromiseGrant(target=self.event, requester=req.requester),
                )
            elif self.status is not ActorStatus.DEAD:
                self._decide_grant(req)

    def on_promise_grant(self, grant: PromiseGrant) -> None:
        mask = DIA_COMP_MASK if grant.target.negated else DIA_MASK
        self.learn(grant.target.base, mask)
        self.try_fire()
        if self.status is ActorStatus.PENDING:
            self._solicit()
        self._process_pending_grants()

    # ------------------------------------------------------------------
    # not-yet certificate protocol (requester side)

    def _start_round(self, bases: list[Event]) -> None:
        targets = [b for b in bases if b.base != self.event.base]
        if not targets:
            return
        self.round_active = True
        self.round_id = self.sched.next_round_id()
        self._knowledge_dirty = False
        self.round_awaiting = {b.base for b in targets}
        self.round_holds = set()
        awaited = sorted(self.round_awaiting, key=Event.sort_key)
        self.sched.note_round(self, awaited)
        for base in awaited:
            self.sched.send_to_actor(
                self,
                base,
                NotYetRequest(
                    target=base, requester=self.event, round_id=self.round_id
                ),
            )

    def on_not_yet_reply(self, reply: NotYetReply) -> None:
        current = self.round_active and reply.round_id == self.round_id
        if not current or reply.target not in self.round_awaiting:
            if reply.status == "not_yet" and not (
                current and reply.target in self.round_holds
            ):
                # stale certificate (aborted round, or a pre-crash
                # straggler): release the freeze it carries.  A
                # duplicate of a *current* hold is simply ignored.
                self.sched.send_to_actor(
                    self,
                    reply.target,
                    Release(
                        target=reply.target,
                        requester=self.event,
                        round_id=reply.round_id,
                    ),
                )
            return
        self.round_awaiting.discard(reply.target)
        if reply.status == "not_yet":
            self.round_holds.add(reply.target)
        elif reply.status == "occurred":
            self.learn(reply.target, E_OCC)
        elif reply.status == "comp_occurred":
            self.learn(reply.target, C_OCC)
        if not self.round_awaiting:
            self._conclude_round()

    def _conclude_round(self) -> None:
        if (
            self.status is ActorStatus.PENDING
            and not self.actor.is_frozen(self.event)
            and self._subsumed_under_transient()
        ):
            # the certificate-backed evaluation justifying this
            # firing: the transient facts exist only in this instant
            self.sched.metrics.inc("certificate_evals", site=self.site)
            if self.sched.tracer.active:
                transient = dict(self.knowledge)
                for base in self.round_holds:
                    transient[base] = transient.get(base, FULL) & NOT_YET_MASK
                self._trace_eval("fire", transient)
            # occur finishes the round itself, *after* settling the
            # base, so deferred certificate requests served during the
            # release see the occurrence.
            self.actor.occur(self)
            return
        self._finish_round()
        self.try_fire()

    def _subsumed_under_transient(self) -> bool:
        """Does the residual fire under knowledge plus this round's
        certificate facts?  The cursor descends along refinement edges
        without moving -- the transient facts exist only for this
        evaluation and are never committed."""
        return self.cursor.transient_verdict(
            (base, NOT_YET_MASK)
            for base in sorted(self.round_holds, key=Event.sort_key)
        ) == "fire"

    def _finish_round(self) -> None:
        if not self.round_active:
            return
        rid = self.round_id
        self.sched.tracer.round_event(
            self.sched.sim.now, self.site, self.event,
            "abort" if self.round_awaiting else "conclude", rid,
            certified=len(self.round_holds),
        )
        # Release still-awaited bases too, not only confirmed holds: an
        # aborted round may have a certificate -- and its freeze -- in
        # flight, or lost outright with a crashed coordinator session.
        # The freeze itself is durable, so without this the lock would
        # be orphaned; releasing a freeze never taken is a no-op, and
        # session FIFO keeps the release behind its own request.
        to_release = self.round_holds | self.round_awaiting
        self.round_holds = EMPTY
        self.round_active = False
        self.round_awaiting = EMPTY
        for base in sorted(to_release, key=Event.sort_key):
            self.sched.send_to_actor(
                self,
                base,
                Release(target=base, requester=self.event, round_id=rid),
            )
        self.actor.round_finished()

    # ------------------------------------------------------------------
    # crash recovery (fail-stop model, see repro.sim.faults)

    def crash_reset(self) -> None:
        """Wipe volatile state at a crash instant.

        Durable (logged) facts survive: the settlement status, the
        attempt timestamp, the durable guard, and the promise
        obligations in ``granted_to`` (a grant is logged before it is
        sent).  Everything else -- knowledge masks, in-flight rounds,
        request dedup, deferred queues, escalation marks -- was heap
        memory and is gone.
        """
        self.knowledge = {}
        # resurrection re-enters the automaton at the durable entry's
        # root -- the same interned node every fresh instance of this
        # guard's shape starts from, and a binding with no rename
        self.cursor.reset(self._durable_guard, self.knowledge)
        self.round_active = False
        self.round_id = 0
        self.round_awaiting = EMPTY
        self.round_holds = EMPTY
        self._knowledge_dirty = True
        self.promise_requested = {}
        self.deferred_promise_reqs = ()
        self.pending_grant_reqs = ()
        self._escalated_cubes = EMPTY

    def recover(self) -> None:
        """Rebuild knowledge after a restart (solicitation round).

        An unsettled role asks the actor of every base its durable guard
        mentions for the settled facts (:class:`SyncRequest`); a settled
        one reads no knowledge again.  Transient state (certificates,
        promises) is *not* reconstructed -- the normal solicitation
        machinery re-acquires whatever is still needed once the settled
        facts are back.
        """
        self.sched.tracer.actor(
            self.sched.sim.now, self.site, self.event, "recovered",
            status=self.status.value,
        )
        if self.actor.settled is not None:
            return
        for base in sorted(self._durable_guard.bases(), key=Event.sort_key):
            if base == self.event.base:
                continue
            self.sched.send_sync(self, base)
        self.cursor.assimilate()
        self.try_fire()

    def on_sync_reply(self, reply: SyncReply) -> None:
        if reply.status == "occurred":
            self.learn(reply.base, E_OCC)
        elif reply.status == "comp_occurred":
            self.learn(reply.base, C_OCC)
        self.cursor.assimilate()
        self.try_fire()
        self.sched.note_sync_reply(self.event)

    def on_recovered(self, msg: Recovered) -> None:
        """A peer this role may be awaiting restarted: a certificate
        round awaiting its base is aborted.  It is retried on the role's
        next solicitation, or by escalation at quiescence.
        """
        if self.round_active and msg.base in self.round_awaiting:
            self._knowledge_dirty = True  # the next solicitation may retry
            self._finish_round()

    # ------------------------------------------------------------------
    # observability (repro.obs.snapshot)

    def snapshot_state(self) -> dict:
        """JSON-ready copy of this role's state for a global snapshot.

        Everything a debugger needs to see the role mid-protocol: the
        lifecycle status, the assimilated knowledge masks, the residual
        guard, and the in-flight round/promise bookkeeping.  A settled
        role holds the knowledge it had at settlement (none after a crash
        of its site: knowledge is volatile and a settled role re-learns
        nothing); its residual is its guard under that knowledge."""
        state = {
            "status": self.status.value,
            "site": self.site,
            "attempted_at": self.attempted_at,
            "residual": repr(self.guard),
            "knowledge": self._structured_knowledge(self.knowledge),
        }
        if self.round_active:
            state["round"] = {
                "active": self.round_active,
                "id": self.round_id,
                "awaiting": sorted(
                    repr(b) for b in self.round_awaiting
                ),
                "holds": sorted(repr(b) for b in self.round_holds),
            }
        if self.granted_to:
            state["granted_to"] = sorted(
                repr(e) for e in self.granted_to
            )
        return state


class BaseActor:
    """The actor of one base event: its polarity roles and the state
    they share -- settlement, freezes and deferred certificate
    requests.  It is the base's coordinator: certificate, release and
    sync requests about the base are addressed to it."""

    __slots__ = (
        "base", "site", "sched", "roles", "settled", "frozen",
        "deferred_notyet_reqs",
    )

    def __init__(
        self,
        base: Event,
        site: str,
        scheduler: "DistributedScheduler",
        guards: Mapping[Event, Binding | GuardExpr],
    ):
        self.base = base
        self.site = site
        self.sched = scheduler
        #: signed event -> its role, positive first, one per polarity
        #: ``guards`` (signed event -> guard-table entry, say the
        #: scheduler's whole table) holds; a polarity without an entry
        #: has no role
        self.roles: dict[Event, Role] = {}
        for event in (base, base.complement):
            if event in guards:
                self.roles[event] = Role(event, guards[event], self)
        #: the signed event that occurred (durable, like the run's
        #: settlement log)
        self.settled: Event | None = None
        #: freeze holders, ``(requester, round_id)``, so a stale release
        #: (from an aborted round) cannot void a newer freeze; durable
        self.frozen: frozenset[tuple[Event, int]] = EMPTY
        #: certificate requests deferred by the priority rule
        self.deferred_notyet_reqs: tuple[NotYetRequest, ...] = ()

    def __call__(self, message) -> None:
        """The fabric's handler for every message addressed to this
        actor: the actor itself, so a message carries no bound method."""
        HANDLERS[type(message)](self, message)

    def on_announce(self, msg: Announce) -> None:
        """Hand an occurrence to each subscribing role, by the wake
        rule (:mod:`repro.temporal.compiled`): wake iff the base is in
        the residual's support; an unbound (or reference) cursor has no
        node and wakes on everything.  A settled base takes nothing."""
        if self.settled is not None:
            return
        event = msg.event
        base = event.base
        sched = self.sched
        watch = sched.watch
        profiler = sched.profiler  # per announcement: no call unprofiled
        for role in self.roles.values():
            if base not in role.subscribed:
                continue
            cursor = role.cursor
            if cursor.node is not None and not cursor.wakes_on(base):
                # the skip: record the fact, touch nothing else --
                # re-evaluation would be a no-op
                watch.skips += 1
                role.note_occurrence(event)
                continue
            watch.wakes += 1
            if profiler is not None:
                profiler.push(
                    "watch_wake", site=role.site, event=repr(role.event)
                )
            try:
                role.observe_occurrence(event)
            finally:
                if profiler is not None:
                    profiler.pop()

    def add_role(self, event: Event, guard: Binding | GuardExpr) -> Role:
        """``event``'s new role, added at run time, kept positive
        first."""
        role = Role(event, guard, self)
        if event.negated:
            self.roles[event] = role
        else:
            self.roles = {event: role, **self.roles}
        return role

    # ------------------------------------------------------------------
    # settlement

    def occur(self, role: Role) -> None:
        """``role``'s event fires: the base settles, the other role
        dies, and the occurrence is published."""
        # Settlement first: finishing a round serves certificate
        # requests deferred by the priority rule, and they must see the
        # occurrence -- certifying "not yet" in the same instant the
        # base settles would hand the requester a false transient fact.
        self.settled = event = role.event
        role.status = ActorStatus.OCCURRED
        role._finish_round()  # abandon any round; we are done
        role._process_pending_grants()
        sched, attempted_at = self.sched, role.attempted_at
        sched.note_settled(
            self.site, event,
            sched.sim.now if attempted_at is None else attempted_at,
        )
        other = self.roles.get(event.complement)
        if other is not None:
            # it can never occur now: release what it held
            other.status = ActorStatus.DEAD
            sched.note_dead(self.site, other.event)
            other._finish_round()
            other._process_pending_grants()
        sched.publish(self, event)

    def rejected(self, role: Role) -> None:
        """``role``'s event is refused for good; the actor attempts the
        complement if ``RunBase.complements_refusal`` says so."""
        event = role.event
        sched = self.sched
        sched.note_rejected(self.site, event)
        if not sched.complements_refusal(event):
            return
        other = self.roles.get(event.complement)
        if other is not None and other.status is ActorStatus.IDLE:
            sched.attempt(other.event)

    def _settled_status(self) -> str | None:
        settled = self.settled
        if settled is None:
            return None
        return "comp_occurred" if settled.negated else "occurred"

    # ------------------------------------------------------------------
    # freezes and the not-yet certificate protocol (coordinator side)

    def is_frozen(self, exclude: Event) -> bool:
        """Does a requester other than ``exclude`` hold a freeze?"""
        for requester, _round_id in self.frozen:
            if requester != exclude:
                return True
        return False

    def release_holds(self, predicate) -> None:
        """Void the freezes ``predicate`` picks; once none is left, the
        roles re-try their parked attempts."""
        victims = {h for h in self.frozen if predicate(h)}
        if not victims:
            return
        self.frozen -= victims
        if not self.frozen:
            self.frozen = EMPTY
            for role in self.roles.values():
                role.try_fire()

    def has_active_round(self) -> bool:
        for role in self.roles.values():
            if role.round_active:
                return True
        return False

    def round_finished(self) -> None:
        """A role's round ended: once no role has one outstanding,
        serve the requests the priority rule deferred."""
        if self.has_active_round():
            return
        deferred, self.deferred_notyet_reqs = self.deferred_notyet_reqs, ()
        for req in deferred:
            self.on_not_yet_request(req)

    def on_not_yet_request(self, req: NotYetRequest) -> None:
        requester = req.requester
        status = self._settled_status()
        if status is None:
            if (
                self.has_active_round()
                and self.base.sort_key() < requester.base.sort_key()
            ):
                # priority rule: defer larger-keyed requesters while a
                # round of our own is outstanding (keeps the wait-for
                # graph acyclic)
                self.deferred_notyet_reqs += (req,)
                return
            self.frozen |= {(requester, req.round_id)}
            status = "not_yet"
        reply = NotYetReply(
            target=self.base, requester=requester, status=status,
            round_id=req.round_id,
        )
        self.sched.send_to_role(self, requester, reply)

    def on_release(self, release: Release) -> None:
        holder = (release.requester, release.round_id)
        self.release_holds(lambda h: h == holder)

    # ------------------------------------------------------------------
    # crash recovery (fail-stop model, see repro.sim.faults)

    def on_sync_request(self, req: SyncRequest) -> None:
        """Report the base's durable settlement."""
        requester = req.requester
        status = self._settled_status() or "unsettled"
        reply = SyncReply(base=self.base, requester=requester, status=status)
        self.sched.send_to_role(self, requester, reply)

    def on_recovered(self, msg: Recovered) -> None:
        for role in self.roles.values():
            if msg.base in role.subscribed:
                role.on_recovered(msg)

    def crash_reset(self) -> None:
        """Wipe volatile state at a crash instant: the roles' and the
        deferred requests.  The settlement and the freezes are durable."""
        self.deferred_notyet_reqs = ()
        for role in self.roles.values():
            role.crash_reset()

    def recover(self) -> None:
        for role in self.roles.values():
            role.recover()


class Fanout(list):
    """The addressee of a base's announcement at a site where more than
    one party hears it: the site's actors subscribing to the base (the
    list itself), in subscription order, then the site's requirement
    monitor if it watches the base.  A site where one actor alone hears
    the base has none: the actor is its own addressee.  The scheduler
    builds them with the subscriptions (:func:`join`), so a fact crosses
    to each site once and a publish groups nothing; a monitor rebuilt
    after a crash gets a fresh fanout, so an announcement sent before
    the restart still reaches the monitor it was sent to.  A fanout is
    one object, its actors' list, and compares by identity."""

    __slots__ = "site", "monitor"

    def __init__(self, site: str, actors: list[BaseActor], monitor=None):
        super().__init__(actors)
        self.site = site
        self.monitor = monitor

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __call__(self, msg: Announce) -> None:
        for actor in self:
            actor.on_announce(msg)
        if self.monitor is not None:
            self.monitor.observe(msg.event)


def join(addressees: dict, site: str, actor: BaseActor) -> None:
    """``actor`` hears a base at ``site``: ``addressees`` maps the
    base's sites to their addressee, the lone actor or a
    :class:`Fanout`."""
    held = addressees.get(site)
    if held is None:
        addressees[site] = actor
    elif type(held) is Fanout:
        held.append(actor)
    else:
        addressees[site] = Fanout(site, (held, actor))


def members(addressee) -> list[BaseActor]:
    """The actors an addressee of :func:`join` hands an announcement
    to."""
    return addressee if type(addressee) is Fanout else [addressee]


#: the handler of each message type, by the class of its addressee:
#: an ``Announce`` goes to a base's actor, which hands it to its roles
HANDLERS = {
    Announce: BaseActor.on_announce,
    PromiseRequest: Role.on_promise_request,
    PromiseGrant: Role.on_promise_grant,
    NotYetRequest: BaseActor.on_not_yet_request,
    NotYetReply: Role.on_not_yet_reply,
    Release: BaseActor.on_release,
    SyncRequest: BaseActor.on_sync_request,
    SyncReply: Role.on_sync_reply,
    Recovered: BaseActor.on_recovered,
}
