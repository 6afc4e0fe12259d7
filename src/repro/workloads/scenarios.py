"""Canonical scenarios: the paper's running examples, executable.

Each builder returns a :class:`Scenario`: a workflow plus the agent
scripts of one concrete run, so that tests and benches can execute the
same situation on every scheduler and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.guards import (
    RowPlan,
    dependency_binding,
    in_order,
)
from repro.workflows.primitives import klein_precedes, mutex
from repro.workflows.spec import Workflow


@dataclass
class Scenario:
    """A workflow together with one concrete run's agent scripts."""

    workflow: Workflow
    scripts: list[AgentScript] = field(default_factory=list)
    expect_occur: frozenset[Event] = frozenset()
    expect_absent: frozenset[Event] = frozenset()
    description: str = ""


def make_travel_booking(outcome: str = "success", suffix: str = "") -> Scenario:
    """Example 4: buy an airline ticket and book a car, atomically-ish.

    Dependencies (paper numbering):

    1. ``~s_buy + s_book`` -- initiate ``book`` if ``buy`` is started
       (``s_book`` is triggerable: the scheduler causes it);
    2. ``~c_buy + c_book . c_buy`` -- if ``buy`` commits, it commits
       after ``book`` (``buy`` is non-compensatable, so its commit
       commits the whole workflow);
    3. ``~c_book + c_buy + s_cancel`` -- compensate ``book`` by
       ``cancel`` if ``buy`` fails to commit (``s_cancel``
       triggerable).

    ``outcome`` selects the run: ``"success"`` (buy commits) or
    ``"failure"`` (buy aborts; the booking is compensated).
    ``suffix`` renames all events, so many instances can share one
    scheduler (the propositional stand-in for Example 12's ``cid``).
    """
    if outcome not in ("success", "failure"):
        raise ValueError(f"unknown outcome: {outcome!r}")
    s_buy = Event(f"s_buy{suffix}")
    c_buy = Event(f"c_buy{suffix}")
    s_book = Event(f"s_book{suffix}")
    c_book = Event(f"c_book{suffix}")
    s_cancel = Event(f"s_cancel{suffix}")

    w = Workflow(f"travel{suffix}")
    w.add(f"~s_buy{suffix} + s_book{suffix}")
    w.add(f"~c_buy{suffix} + c_book{suffix} . c_buy{suffix}")
    w.add(f"~c_book{suffix} + c_buy{suffix} + s_cancel{suffix}")
    w.set_attributes(s_book, triggerable=True)
    w.set_attributes(s_cancel, triggerable=True)
    w.place_task(f"airline{suffix}", s_buy, c_buy)
    w.place_task(f"car_rental{suffix}", s_book, c_book, s_cancel)

    buy_attempts = [ScriptedAttempt(0.0, s_buy)]
    if outcome == "success":
        buy_attempts.append(ScriptedAttempt(5.0, c_buy, after=s_buy))
        expect = {s_buy, s_book, c_book, c_buy}
        absent = {s_cancel}
    else:
        # the buy task aborts: its commit will never happen
        buy_attempts.append(ScriptedAttempt(5.0, ~c_buy, after=s_buy))
        expect = {s_buy, s_book, c_book, s_cancel}
        absent = {c_buy}
    agent_buy = AgentScript(f"airline{suffix}", buy_attempts)
    # book always commits (Example 4's simplifying assumption)
    agent_book = AgentScript(
        f"car_rental{suffix}",
        [ScriptedAttempt(1.0, c_book, after=s_book)],
    )
    return Scenario(
        workflow=w,
        scripts=[agent_buy, agent_book],
        expect_occur=frozenset(expect),
        expect_absent=frozenset(absent),
        description=f"Example 4 travel booking, {outcome} path",
    )


def make_order_fulfillment(pay_clears: bool = True, suffix: str = "") -> Scenario:
    """An order-processing workflow in the style of the paper's intro.

    Three tasks: payment (RDA transaction), inventory reservation
    (compensatable by release), shipping (only after both commit).

    Dependencies:

    * reservation starts when payment starts;
    * payment commits only after the reservation commits;
    * if the reservation committed but payment did not, release it;
    * shipping starts only if payment commits, and after it.
    """
    s_pay = Event(f"s_pay{suffix}")
    c_pay = Event(f"c_pay{suffix}")
    s_res = Event(f"s_res{suffix}")
    c_res = Event(f"c_res{suffix}")
    s_rel = Event(f"s_rel{suffix}")
    s_ship = Event(f"s_ship{suffix}")

    w = Workflow(f"order{suffix}")
    w.add(f"~s_pay{suffix} + s_res{suffix}")
    w.add(f"~c_pay{suffix} + c_res{suffix} . c_pay{suffix}")
    w.add(f"~c_res{suffix} + c_pay{suffix} + s_rel{suffix}")
    w.add(f"~s_ship{suffix} + c_pay{suffix}")  # ship only if paid
    w.add(f"~c_pay{suffix} + s_ship{suffix}")  # paid orders do ship
    w.add(klein_precedes(c_pay, s_ship))
    w.set_attributes(s_res, triggerable=True)
    w.set_attributes(s_rel, triggerable=True)
    w.set_attributes(s_ship, triggerable=True)
    w.place_task(f"payments{suffix}", s_pay, c_pay)
    w.place_task(f"warehouse{suffix}", s_res, c_res, s_rel)
    w.place_task(f"shipping{suffix}", s_ship)

    pay_attempts = [ScriptedAttempt(0.0, s_pay)]
    if pay_clears:
        pay_attempts.append(ScriptedAttempt(4.0, c_pay, after=s_pay))
        expect = {s_pay, s_res, c_res, c_pay, s_ship}
        absent = {s_rel}
    else:
        pay_attempts.append(ScriptedAttempt(4.0, ~c_pay, after=s_pay))
        expect = {s_pay, s_res, c_res, s_rel}
        absent = {c_pay, s_ship}
    agent_pay = AgentScript(f"payments{suffix}", pay_attempts)
    agent_res = AgentScript(
        f"warehouse{suffix}",
        [ScriptedAttempt(1.0, c_res, after=s_res)],
    )
    return Scenario(
        workflow=w,
        scripts=[agent_pay, agent_res],
        expect_occur=frozenset(expect),
        expect_absent=frozenset(absent),
        description=f"order fulfilment, payment {'clears' if pay_clears else 'fails'}",
    )


@dataclass
class MutexFamily:
    """Example 13 generalized to ``N`` contending tasks (SC7).

    Each *instance* is one critical-section task (enter ``b``, exit
    ``e``); mutual exclusion is not a per-instance dependency but a
    *cross-instance* one, chaining consecutive instances within each
    cluster of ``cluster`` tasks that contend for one resource.  The
    template/instances/cross split matches what
    :func:`repro.scale.plan_shards` consumes: the template ships
    un-suffixed, instances carry their suffixed scripts, and the cross
    dependencies are the coupling the constraint-aware partitioner
    places around.
    """

    template: Workflow
    #: ``(suffix, scripts)`` per instance, ready for ``instance_spec``
    instances: list[tuple[str, list[AgentScript]]]
    #: suffixed cross-instance mutex dependencies
    cross_dependencies: list
    #: instance indices contending for one resource
    clusters: list[tuple[int, ...]]

    def suffixes(self) -> list[str]:
        return [suffix for suffix, _scripts in self.instances]

    def merged(self) -> tuple[Workflow, list[AgentScript]]:
        """One big workflow (all instances + cross deps) for the
        single-scheduler baseline, with the same scripts.  Its
        scheduler synthesizes the guard table, so none is stamped."""
        from repro.workflows.template import WorkflowTemplate

        template = WorkflowTemplate(self.template)
        workflow = template.merged_workflow(self.suffixes())
        for dep in self.cross_dependencies:
            workflow.add(dep)
        scripts = [s for _suffix, ss in self.instances for s in ss]
        return workflow, scripts


def make_mutex_family(
    count: int,
    cluster: int = 2,
    enter_gap: float = 0.5,
    exit_after: float = 3.0,
) -> MutexFamily:
    """``count`` Example-13 critical-section tasks in contention clusters.

    Instance ``k`` (suffix ``_i{k}``) enters at ``(k % cluster) *
    enter_gap`` and exits ``exit_after`` later (gated on its own
    entry).  Within each cluster of ``cluster`` consecutive instances,
    adjacent instances are coupled by the symmetric pair of Example-13
    mutex dependencies, so a later task's entry waits on its
    predecessor's exit -- which is why a cluster must share a scheduler.
    The pairs are stamped copies of one canonical pair
    (:meth:`~repro.temporal.guards.RowPlan.stamp`): the very nodes
    :func:`~repro.workflows.primitives.mutex` builds, already bound.
    """
    if count < 1:
        raise ValueError(f"need at least one instance, got {count}")
    if cluster < 1:
        raise ValueError(f"cluster size must be positive, got {cluster}")
    b, e = Event("b"), Event("e")
    template = Workflow("mutex_cs")
    template.add(klein_precedes(b, e))
    template.add("~b + e")  # a task that enters is guaranteed to leave
    template.set_attributes(e, guaranteed=True)
    template.place_task("cs", b, e)

    instances: list[tuple[str, list[AgentScript]]] = []
    for k in range(count):
        suffix = f"_i{k}"
        enter = (k % cluster) * enter_gap
        script = AgentScript(
            f"cs{suffix}",
            [
                ScriptedAttempt(enter, Event(f"b{suffix}")),
                ScriptedAttempt(
                    enter + exit_after,
                    Event(f"e{suffix}"),
                    after=Event(f"b{suffix}"),
                ),
            ],
        )
        instances.append((suffix, [script]))

    # one pair, stamped onto a row per coupled pair of instances: the
    # row lists the images of ``b0 < b1 < e0 < e1``, in that order, so
    # each copy is bound with no normal form of its own
    b0, e0, b1, e1 = Event("b0"), Event("e0"), Event("b1"), Event("e1")
    pair = [mutex(b0, e0, b1, e1), mutex(b1, e1, b0, e0)]
    canonical = (b0, b1, e0, e1)
    plan = RowPlan(map(dependency_binding, pair), canonical, pair)
    cross = []
    clusters: list[tuple[int, ...]] = []
    for start in range(0, count, cluster):
        members = tuple(range(start, min(start + cluster, count)))
        clusters.append(members)
        for j, k in zip(members, members[1:]):
            bj, ej = Event(f"b_i{j}"), Event(f"e_i{j}")
            bk, ek = Event(f"b_i{k}"), Event(f"e_i{k}")
            # ``mutex(bj, ej, bk, ek)`` then ``mutex(bk, ek, bj, ej)``,
            # from whichever pair of slots keeps their order (``_i9``
            # sorts after ``_i10``)
            row, order = (bj, bk, ej, ek), 1
            if not in_order(row):
                row, order = (bk, bj, ek, ej), -1
            copies, _ = plan.stamp(row)
            cross.extend(copies[::order])
    return MutexFamily(
        template=template,
        instances=instances,
        cross_dependencies=cross,
        clusters=clusters,
    )


def make_mutex_scenario(first: str = "t1") -> Scenario:
    """Example 13's mutual exclusion, propositional instance.

    Two tasks enter and exit critical sections; if task 1 enters
    before task 2, it must exit before task 2 enters.  Both tasks
    attempt to enter concurrently; ``first`` breaks the tie by
    attempting earlier.
    """
    b1, e1 = Event("b1"), Event("e1")
    b2, e2 = Event("b2"), Event("e2")
    w = Workflow("mutex")
    w.add(mutex(b1, e1, b2, e2))
    w.add(mutex(b2, e2, b1, e1))
    w.add(klein_precedes(b1, e1))
    w.add(klein_precedes(b2, e2))
    # a task that enters its critical section is guaranteed to leave it
    w.add(f"~b1 + e1")
    w.add(f"~b2 + e2")
    w.set_attributes(e1, guaranteed=True)
    w.set_attributes(e2, guaranteed=True)
    w.place_task("task1", b1, e1)
    w.place_task("task2", b2, e2)
    t1_first = first == "t1"
    s1 = AgentScript(
        "task1",
        [
            ScriptedAttempt(0.0 if t1_first else 0.5, b1),
            ScriptedAttempt(3.0, e1, after=b1),
        ],
    )
    s2 = AgentScript(
        "task2",
        [
            ScriptedAttempt(0.5 if t1_first else 0.0, b2),
            ScriptedAttempt(3.0, e2, after=b2),
        ],
    )
    return Scenario(
        workflow=w,
        scripts=[s1, s2],
        expect_occur=frozenset({b1, e1, b2, e2}),
        description=f"Example 13 mutual exclusion, {first} first",
    )
