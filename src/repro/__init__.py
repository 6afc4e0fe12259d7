"""repro -- reproduction of Singh (ICDE 1996).

"Synthesizing Distributed Constrained Events from Transactional
Workflow Specifications": declarative workflow dependencies in an
event algebra, compiled into per-event temporal guards that are
enforced by distributed actors without a centralized scheduler.

Public API quick tour
---------------------

>>> from repro import parse, residuate, guard, Event
>>> d_prec = parse("~e + ~f + e . f")       # Klein's  e < f
>>> residuate(d_prec, Event("e"))           # scheduler state after e
f + ~f
>>> guard(d_prec, Event("f"))               # guard on f (Example 9)
([]e + <>~e)

Subpackages
-----------

* :mod:`repro.algebra` -- the event algebra ``E`` (Section 3).
* :mod:`repro.temporal` -- the temporal language ``T`` and guard
  synthesis (Section 4).
* :mod:`repro.sim` -- deterministic discrete-event simulation substrate.
* :mod:`repro.scheduler` -- task agents, event actors, and the two
  schedulers (distributed guard-based; centralized residuation-based,
  which also stands for the automata baseline).
* :mod:`repro.workflows` -- the workflow specification API, dependency
  primitives, and the compiler to per-event guards.
* :mod:`repro.params` -- parametrized events and guards (Section 5).
* :mod:`repro.workloads` -- workload generators and canonical scenarios.
"""

from repro.algebra import (
    Atom,
    Choice,
    Conj,
    Event,
    Expr,
    Seq,
    TOP,
    Trace,
    Variable,
    ZERO,
    denotation,
    equivalent,
    maximal_universe,
    parse,
    residuate,
    residuate_trace,
    satisfies,
    to_normal_form,
    universe,
)
from repro.temporal import (
    GuardExpr,
    accepting_paths,
    guard,
    guard_formula,
    holds,
    t_equivalent,
    workflow_guards,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Choice",
    "Conj",
    "Event",
    "Expr",
    "GuardExpr",
    "Seq",
    "TOP",
    "Trace",
    "Variable",
    "ZERO",
    "accepting_paths",
    "denotation",
    "equivalent",
    "guard",
    "guard_formula",
    "holds",
    "maximal_universe",
    "parse",
    "residuate",
    "residuate_trace",
    "satisfies",
    "t_equivalent",
    "to_normal_form",
    "universe",
    "workflow_guards",
]
