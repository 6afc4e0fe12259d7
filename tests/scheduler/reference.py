"""The reference engine the differential tests hold the production
engine against: every guard re-evaluated on every announcement with
the paper-literal cube calls (:class:`ReferenceCursor`: no compiled
automata, so no announcement takes the skip path).  It takes the same
decisions by construction; only the cursor factory differs."""

from repro.params.distributed import DistributedParamRunner
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.temporal.compiled import ReferenceCursor


class ReferenceScheduler(DistributedScheduler):
    def cursor_factory(self):
        return ReferenceCursor


class ReferenceParamRunner(DistributedParamRunner):
    scheduler_class = ReferenceScheduler


def engine(reference: bool) -> type[DistributedScheduler]:
    """The reference scheduler class, or the production one."""
    return ReferenceScheduler if reference else DistributedScheduler
