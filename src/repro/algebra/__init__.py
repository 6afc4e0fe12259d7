"""Event algebra ``E`` of Singh (ICDE 1996), Section 3.

This subpackage implements the specification language for intertask
dependencies:

* :mod:`repro.algebra.symbols` -- event symbols and their complements
  (the alphabet ``Gamma`` built from the significant events ``Sigma``).
* :mod:`repro.algebra.expressions` -- the expression AST with choice
  ``+``, sequence ``.``, conjunction ``|``, and the constants ``0`` and
  ``T`` (Syntax 1-4).
* :mod:`repro.algebra.parser` -- a small concrete syntax so that
  dependencies can be written as text, e.g. ``"~e + f"``.
* :mod:`repro.algebra.traces` -- traces, the universes ``U_E`` and
  ``U_T``, and the satisfaction relation ``u |= E`` (Semantics 1-5).
* :mod:`repro.algebra.denotation` -- ``[[E]]`` over finite universes.
* :mod:`repro.algebra.normal_form` -- distribution of ``.`` over ``+``
  and ``|`` so that residuation's rewrite rules apply.
* :mod:`repro.algebra.residuation` -- the residuation operator ``D/e``
  (Semantics 6, Rules 1-8) both symbolically and model-theoretically.
"""

from repro.algebra.symbols import (
    Event,
    Variable,
    alphabet_of,
    bases_of,
    rename_event,
)
from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Expr,
    Seq,
    TOP,
    ZERO,
    Top,
    Zero,
    rename_expr,
)
from repro.algebra.parser import parse
from repro.algebra.traces import (
    Trace,
    maximal_universe,
    satisfies,
    universe,
)
from repro.algebra.denotation import denotation, equivalent
from repro.algebra.normal_form import to_normal_form
from repro.algebra.residuation import (
    residuate,
    residuate_trace,
    semantic_residual,
)

__all__ = [
    "Atom",
    "Choice",
    "Conj",
    "Event",
    "Expr",
    "Seq",
    "TOP",
    "Top",
    "Trace",
    "Variable",
    "ZERO",
    "Zero",
    "alphabet_of",
    "bases_of",
    "denotation",
    "equivalent",
    "maximal_universe",
    "parse",
    "rename_event",
    "rename_expr",
    "residuate",
    "residuate_trace",
    "satisfies",
    "semantic_residual",
    "to_normal_form",
    "universe",
]
