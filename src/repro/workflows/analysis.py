"""Static analysis of workflow specifications.

The paper's Section 6 notes that "the compilation phase can detect
these conditions and add messages to ensure that there are no
problems".  This module is that compilation-time toolbox:

* :func:`satisfiable` / :func:`vacuous` -- is the workflow's
  dependency set jointly satisfiable at all, and is it satisfied by
  the all-negative run (nothing happens)?
* :func:`mandatory_events` -- events every satisfying run contains
  (they must be attempted, triggerable, or guaranteed, or the spec
  wedges).
* :func:`forbidden_events` -- events no satisfying run contains.
* :func:`redundant_dependencies` -- dependencies implied by the rest
  (removable without changing the admitted traces; the paper:
  "declarative specifications enable modification of the workflows
  ... so that cross-system dependencies can be removed").
* :func:`dependency_conflicts` -- minimal-ish pairs of dependencies
  that are individually satisfiable but jointly not.
* :func:`analyze` -- one report combining all of the above with the
  compiler's consensus findings.

Every question above is one call of
:func:`repro.algebra.normal_form.joint_completion_exists`, the DNF term
backtracker the centralized schedulers decide with: a joint
completion, one containing a given event, one relying on no positive
event, or (for :func:`implies`) one that breaks every term of the
candidate.  Only :func:`implies` is budgeted, on backtracking steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expressions import Expr
from repro.algebra.normal_form import StepBudget, joint_completion_exists
from repro.algebra.symbols import Event
from repro.algebra.traces import maximal_universe, universe_size, unsatisfied
from repro.temporal.compiled import table_stats
from repro.temporal.guards import shape_lookups
from repro.workflows.compiler import compile_workflow
from repro.workflows.spec import Workflow


def satisfiable(dependencies: list[Expr]) -> bool:
    """Does any trace satisfy every dependency?"""
    return joint_completion_exists(tuple(dependencies))


def vacuous(dependencies: list[Expr]) -> bool:
    """Is the spec satisfied when nothing positive ever happens?

    A vacuous workflow admits the all-complement run; a non-vacuous
    one *forces* work (e.g. a bare ``e . f`` obligation).
    """
    return joint_completion_exists(
        tuple(dependencies), allowed_positive=frozenset()
    )


def _never_in_a_satisfying_run(
    dependencies: list[Expr], sign
) -> frozenset[Event]:
    """The positive events ``ev`` the dependencies mention such that no
    satisfying run contains ``sign(ev)`` anywhere (none when no run
    satisfies them)."""
    deps = tuple(dependencies)
    if not joint_completion_exists(deps):
        return frozenset()
    positive = {ev for dep in deps for ev in dep.alphabet() if not ev.negated}
    return frozenset(
        ev for ev in positive
        if not joint_completion_exists(deps, require=sign(ev))
    )


def mandatory_events(dependencies: list[Expr]) -> frozenset[Event]:
    """Positive events occurring in every satisfying run: no satisfying
    run contains the complement."""
    return _never_in_a_satisfying_run(dependencies, lambda ev: ev.complement)


def forbidden_events(dependencies: list[Expr]) -> frozenset[Event]:
    """Positive events occurring in no satisfying run."""
    return _never_in_a_satisfying_run(dependencies, lambda ev: ev)


#: the most backtracking steps one :func:`implies` search may take,
#: about a second of search; past it the search raises instead of
#: running on
IMPLIES_STEP_BUDGET = 100_000


def _entailment(dependencies: list[Expr], candidate: Expr) -> tuple[bool, int]:
    """Do the dependencies jointly entail the candidate, and how many
    backtracking steps deciding it took.

    They do iff no completion satisfies every dependency and breaks
    every DNF term of the candidate.
    """
    budget = StepBudget(IMPLIES_STEP_BUDGET)
    refuted = joint_completion_exists(
        tuple(dependencies), breaking=candidate, budget=budget
    )
    return not refuted, budget.taken


def implies(dependencies: list[Expr], candidate: Expr) -> bool:
    """Do the dependencies jointly entail ``candidate``?

    Exact, and a :class:`ValueError` naming the count (instead of not
    returning) once the search passes :data:`IMPLIES_STEP_BUDGET`
    steps.
    """
    return _entailment(dependencies, candidate)[0]


def _redundancy_checks(dependencies: list[Expr]):
    """``(dependency, implied by the others, search steps taken)`` for
    every dependency that has others."""
    for i, dep in enumerate(dependencies):
        rest = dependencies[:i] + dependencies[i + 1:]
        if rest:
            yield (dep, *_entailment(rest, dep))


def redundant_dependencies(dependencies: list[Expr]) -> list[Expr]:
    """Dependencies already implied by the others (:func:`implies`,
    so a search over its step budget raises :class:`ValueError`)."""
    return [
        dep for dep, implied, _ in _redundancy_checks(dependencies) if implied
    ]


def dependency_conflicts(dependencies: list[Expr]) -> list[tuple[Expr, Expr]]:
    """Pairs that are individually satisfiable but jointly not."""
    conflicts = []
    for i, a in enumerate(dependencies):
        if not satisfiable([a]):
            continue
        for b in dependencies[i + 1:]:
            if not satisfiable([b]):
                continue
            if not satisfiable([a, b]):
                conflicts.append((a, b))
    return conflicts


@dataclass
class AnalysisReport:
    """The combined compile-time report for a workflow."""

    workflow_name: str
    satisfiable: bool
    vacuous: bool
    mandatory: frozenset[Event] = frozenset()
    forbidden: frozenset[Event] = frozenset()
    unsupported_mandatory: frozenset[Event] = frozenset()
    redundant: list[Expr] = field(default_factory=list)
    #: why the (advisory) redundancy check was skipped; empty = it ran
    redundancy_skipped: str = ""
    #: the most backtracking steps any one redundancy check took (each
    #: check may take :data:`IMPLIES_STEP_BUDGET`)
    search_steps: int = 0
    conflicts: list[tuple[Expr, Expr]] = field(default_factory=list)
    promise_pairs: frozenset[frozenset[Event]] = frozenset()
    notyet_needs: dict[Event, frozenset[Event]] = field(default_factory=dict)
    #: compiled guard-table statistics (:func:`repro.temporal.compiled.
    #: table_stats`): shape/sharing counts plus the constant guards --
    #: an event in ``constant_false`` compiles to the constant-false
    #: terminal and is dead at run time
    compiled: dict = field(default_factory=dict)
    #: shape-table lookups compiling the guard table made: one per
    #: signed event, ``shape_misses`` of them synthesized (in a fresh
    #: process, the number of distinct shapes the workflow has) and
    #: ``shape_hits`` served by renaming an earlier copy
    synthesis: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No blocking findings (advisories like redundancy aside)."""
        return (
            self.satisfiable
            and not self.conflicts
            and not self.unsupported_mandatory
        )

    def as_dict(self) -> dict:
        """JSON-ready form of the report (``repro analyze --json``)."""
        return {
            "workflow": self.workflow_name,
            "ok": self.ok,
            "satisfiable": self.satisfiable,
            "vacuous": self.vacuous,
            "mandatory": sorted(repr(e) for e in self.mandatory),
            "forbidden": sorted(repr(e) for e in self.forbidden),
            "unsupported_mandatory": sorted(
                repr(e) for e in self.unsupported_mandatory
            ),
            "redundant": sorted(repr(d) for d in self.redundant),
            "redundancy_checked": not self.redundancy_skipped,
            "search_steps": self.search_steps,
            "search_step_budget": IMPLIES_STEP_BUDGET,
            "conflicts": sorted(
                [repr(a), repr(b)] for a, b in self.conflicts
            ),
            "promise_pairs": sorted(
                sorted(repr(e) for e in pair) for pair in self.promise_pairs
            ),
            "notyet_needs": {
                repr(event): sorted(repr(b) for b in bases)
                for event, bases in self.notyet_needs.items()
            },
            "compiled": dict(self.compiled),
            "synthesis": dict(self.synthesis),
        }

    def summary(self) -> str:
        lines = [f"analysis of workflow {self.workflow_name}:"]
        lines.append(f"  satisfiable: {self.satisfiable}")
        lines.append(f"  vacuously satisfiable (all-negative run): {self.vacuous}")
        if self.mandatory:
            names = ", ".join(repr(e) for e in sorted(self.mandatory, key=Event.sort_key))
            lines.append(f"  mandatory events: {names}")
        if self.unsupported_mandatory:
            names = ", ".join(repr(e) for e in sorted(self.unsupported_mandatory, key=Event.sort_key))
            lines.append(
                f"  WARNING mandatory but neither triggerable nor guaranteed: {names}"
            )
        if self.forbidden:
            names = ", ".join(repr(e) for e in sorted(self.forbidden, key=Event.sort_key))
            lines.append(f"  forbidden events: {names}")
        for a, b in self.conflicts:
            lines.append(f"  CONFLICT: {a!r}  vs  {b!r}")
        for dep in self.redundant:
            lines.append(f"  redundant (implied by the rest): {dep!r}")
        if self.redundancy_skipped:
            lines.append(
                f"  redundancy not checked: {self.redundancy_skipped}"
            )
        elif self.search_steps:
            lines.append(
                f"  redundancy checked: at most {self.search_steps} "
                f"search steps per check (budget {IMPLIES_STEP_BUDGET})"
            )
        if self.promise_pairs:
            pairs = "; ".join(
                " <-> ".join(repr(e) for e in sorted(p, key=Event.sort_key))
                for p in sorted(self.promise_pairs, key=repr)
            )
            lines.append(f"  consensus (promise) pairs: {pairs}")
        for event, bases in sorted(self.notyet_needs.items(), key=lambda kv: repr(kv[0])):
            names = ", ".join(repr(b) for b in sorted(bases, key=Event.sort_key))
            lines.append(f"  {event!r} needs not-yet agreement on: {names}")
        if self.compiled:
            lines.append(
                "  compiled guard table: "
                f"{self.compiled['guards']} guards -> "
                f"{self.compiled['shapes']} automata "
                f"(sharing {self.compiled['sharing_ratio']:.0%}), "
                f"{self.compiled['cubes']} cubes / "
                f"{self.compiled['literals']} literals"
            )
            if self.compiled["constant_false"]:
                names = ", ".join(self.compiled["constant_false"])
                lines.append(
                    "  WARNING constant-false guards (dead events, every "
                    f"attempt rejects): {names}"
                )
        if self.synthesis:
            lines.append(
                "  guard synthesis: "
                f"{self.synthesis['shape_misses']} shapes synthesized, "
                f"{self.synthesis['shape_hits']} guards renamed from them"
            )
        return "\n".join(lines)


def analyze(workflow: Workflow) -> AnalysisReport:
    """Run the full compile-time analysis on a workflow."""
    deps = list(workflow.dependencies)
    before = shape_lookups()
    compiled = compile_workflow(workflow)
    after = shape_lookups()
    mandatory = mandatory_events(deps)
    unsupported = frozenset(
        ev
        for ev in mandatory
        if not (
            workflow.attributes.get(ev.base)
            and (
                workflow.attributes[ev.base].triggerable
                or workflow.attributes[ev.base].guaranteed
            )
        )
    )
    checks, redundancy_skipped = [], ""
    try:
        checks = list(_redundancy_checks(deps))
    except ValueError as exc:
        redundancy_skipped = str(exc)
    return AnalysisReport(
        workflow_name=workflow.name,
        satisfiable=satisfiable(deps),
        vacuous=vacuous(deps),
        mandatory=mandatory,
        forbidden=forbidden_events(deps),
        unsupported_mandatory=unsupported,
        redundant=[dep for dep, implied, _ in checks if implied],
        redundancy_skipped=redundancy_skipped,
        search_steps=max((taken for *_, taken in checks), default=0),
        conflicts=dependency_conflicts(deps),
        promise_pairs=compiled.promise_pairs,
        notyet_needs=compiled.notyet_needs,
        compiled=table_stats(compiled.guards),
        synthesis={key: after[key] - before[key] for key in after},
    )


def admissible_traces(dependencies: list[Expr]):
    """Enumerate every maximal trace satisfying all dependencies.

    Exact and exponential in the base count (it filters the maximal
    universe), so intended for specification-sized inputs.  Useful as
    a "how constrained is this workflow" measure: the travel workflow
    admits a small fraction of the 2^n * n! candidate schedules.
    """
    for trace in maximal_universe(_bases(dependencies)):
        if next(unsatisfied(trace, dependencies), None) is None:
            yield trace


def admitted_fraction(dependencies: list[Expr]) -> tuple[int, int]:
    """(admitted, total) maximal traces -- the spec's selectivity."""
    admitted = sum(1 for _ in admissible_traces(dependencies))
    total = universe_size(len(_bases(dependencies)), include_partial=False)
    return admitted, total


def _bases(dependencies: list[Expr]) -> frozenset[Event]:
    return frozenset().union(*(dep.bases() for dep in dependencies))
