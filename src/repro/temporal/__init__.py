"""The temporal language ``T`` and guard synthesis (paper Section 4).

* :mod:`repro.temporal.formulas` -- the AST of ``T`` (Syntax 5-6):
  event-algebra expressions embedded as formulas, plus ``[] E``
  (always), ``<> E`` (eventually), and ``! E`` (not yet).
* :mod:`repro.temporal.semantics` -- the exact point semantics
  ``u |=_i F`` over maximal traces (Semantics 7-14); ground truth.
* :mod:`repro.temporal.cubes` -- the production guard representation:
  a union of cubes over the four-world domain each base event ranges
  over on a maximal trace (Figure 3's table is this domain).
* :mod:`repro.temporal.guards` -- guard synthesis ``G(D, e)``
  (Definition 2), the residual automaton it is computed over (Figure
  2), accepting paths ``Pi(D)`` (Definition 3), and the workflow-level
  guard conjunction, as bindings of shared slot-space shapes.
"""

from repro.temporal.formulas import (
    Always,
    Eventually,
    NotYet,
    TAtom,
    TChoice,
    TConj,
    TFormula,
    TSeq,
    T_TOP,
    T_ZERO,
    embed,
)
from repro.temporal.semantics import holds, t_equivalent
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    FULL,
    GuardExpr,
    P_C,
    P_E,
    TRUE_GUARD,
    FALSE_GUARD,
    guard_and,
    guard_or,
    literal,
)
from repro.temporal.guards import (
    Binding,
    ResidualAutomaton,
    ResidualCursor,
    accepting_paths,
    guard,
    guard_formula,
    workflow_bindings,
    workflow_guards,
)
from repro.temporal.simplify import guard_size, minimize

__all__ = [
    "Always",
    "Binding",
    "C_OCC",
    "E_OCC",
    "Eventually",
    "FALSE_GUARD",
    "FULL",
    "GuardExpr",
    "NotYet",
    "P_C",
    "P_E",
    "ResidualAutomaton",
    "ResidualCursor",
    "TAtom",
    "TChoice",
    "TConj",
    "TFormula",
    "TSeq",
    "TRUE_GUARD",
    "T_TOP",
    "T_ZERO",
    "accepting_paths",
    "embed",
    "guard",
    "guard_and",
    "guard_formula",
    "guard_or",
    "guard_size",
    "minimize",
    "holds",
    "literal",
    "t_equivalent",
    "workflow_bindings",
    "workflow_guards",
]
