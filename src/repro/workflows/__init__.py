"""Workflow specification API (paper Section 3) and the guard compiler.

* :mod:`repro.workflows.spec` -- :class:`Workflow`: a named set of
  dependencies plus per-event attributes.
* :mod:`repro.workflows.primitives` -- the dependency templates of the
  literature: Klein's ``e -> f`` and ``e < f`` [10], plus the common
  workflow patterns built from them (Examples 2-4).
* :mod:`repro.workflows.compiler` -- compile a workflow into the
  per-event guard table with static analysis (consensus requirements,
  guard sizes); the "much of the required symbolic reasoning can be
  precompiled" of Section 6.
* :mod:`repro.workflows.template` -- :class:`WorkflowTemplate`:
  synthesize once, stamp suffixed instances merged for one scheduler
  (a single instance is ``instantiate_merged([suffix])``).
"""

from repro.workflows.spec import Workflow
from repro.workflows.primitives import (
    compensate,
    exclusive,
    implies,
    klein_arrow,
    klein_precedes,
    mutex,
    precedes,
)
from repro.workflows.compiler import CompiledWorkflow, compile_workflow
from repro.workflows.template import WorkflowTemplate

__all__ = [
    "CompiledWorkflow",
    "Workflow",
    "WorkflowTemplate",
    "compensate",
    "compile_workflow",
    "exclusive",
    "implies",
    "klein_arrow",
    "klein_precedes",
    "mutex",
    "precedes",
]
