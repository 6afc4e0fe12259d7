"""Shared fixtures: the paper's running events and dependencies.

Also registers the Hypothesis profiles the suite runs under:

* ``ci`` -- what the CI workflow selects (``--hypothesis-profile=ci``):
  at least 100 examples per property and *derandomized*, so a CI run
  is reproducible and a failure can be replayed locally byte-for-byte;
* ``dev`` -- a quick local profile for tight edit-test loops;
* ``default`` -- what a bare ``pytest`` run gets: derandomized like
  ``ci`` so the tier-1 suite is deterministic run-to-run (randomized
  exploration is opt-in via ``--hypothesis-profile=dev``).
"""

import math
import random
import statistics
import sys

import pytest
from hypothesis import settings as hypothesis_settings

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler import DistributedScheduler
from repro.sim import ConstantLatency
from repro.workflows import WorkflowTemplate
from repro.workflows.template import rename_script
from repro.workloads.scenarios import make_travel_booking

hypothesis_settings.register_profile(
    "ci", max_examples=100, derandomize=True, deadline=None
)
hypothesis_settings.register_profile(
    "dev", max_examples=20, deadline=None
)
hypothesis_settings.register_profile(
    "default", max_examples=50, derandomize=True, deadline=None
)
hypothesis_settings.load_profile("default")


KERNEL_STATS_KEYS = {"interning", "synthesis", "memo"}
SYNTHESIS_STATS_KEYS = {
    "shapes", "shape_hits", "shape_misses",
    "closures", "closure_hits", "closure_misses",
}
WATCH_STATS_KEYS = {"wakes", "skips"}
COMPILED_STATS_KEYS = {
    "nodes", "reused", "edges", "hops", "expansions", "cursors", "recompiles"
}


def assert_kernel_schema(stats):
    """The expected shape of ``kernel_stats()``, the process-wide
    caches, asserted in one place so a new kernel subsystem updates
    every consumer test at once.

    Accepts supersets per section (``metrics_report`` overlays
    scheduler-local counters such as ``shape_hits`` onto the
    process-wide totals); missing keys are the failure mode this
    guards against."""
    assert KERNEL_STATS_KEYS <= set(stats), sorted(stats)
    assert {"exprs", "events"} <= set(stats["interning"])
    assert SYNTHESIS_STATS_KEYS <= set(stats["synthesis"]), sorted(
        stats["synthesis"]
    )
    assert {"residuate", "to_normal_form"} <= set(stats["memo"])


def assert_run_kernel_schema(stats):
    """The expected shape of the ``kernel`` section of a distributed
    run's ``metrics_report()``: :func:`assert_kernel_schema` plus the
    run's own wake and compiled-automaton counters."""
    assert_kernel_schema(stats)
    assert WATCH_STATS_KEYS <= set(stats["watch"]), sorted(stats["watch"])
    for counter in WATCH_STATS_KEYS:
        assert isinstance(stats["watch"][counter], int)
    assert COMPILED_STATS_KEYS <= set(stats["compiled"]), sorted(
        stats["compiled"]
    )
    for counter in COMPILED_STATS_KEYS:
        assert isinstance(stats["compiled"][counter], int)


def count_calls(fn) -> int:
    """Python + C function calls made while ``fn()`` runs."""
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def fitted_exponent(sizes, counts) -> float:
    """Least-squares slope of ``log(count)`` against ``log(size)``."""
    return statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(c) for c in counts]
    ).slope


def run_stamped_travel(outcomes, tracer=None):
    """One merged run of a stamped travel booking per entry of
    ``outcomes`` (``"success"`` / ``"failure"``), unverified.

    Returns ``(result, dependencies)`` so a test can call
    ``result.verify(dependencies)`` itself (and tamper with the
    entries first)."""
    scenarios = {
        outcome: make_travel_booking(outcome) for outcome in set(outcomes)
    }
    template = WorkflowTemplate(make_travel_booking("success").workflow)
    suffixes = [f"_i{k}" for k in range(len(outcomes))]
    merged, guards = template.instantiate_merged(suffixes)
    scripts = [
        rename_script(script, template.mapping_for(suffix), suffix)
        for suffix, outcome in zip(suffixes, outcomes)
        for script in scenarios[outcome].scripts
    ]
    sched = DistributedScheduler(
        merged.dependencies,
        sites=merged.sites,
        attributes=merged.attributes,
        guards=guards,
        latency=ConstantLatency(1.0),
        rng=random.Random(1),
        tracer=tracer,
    )
    result = sched.run(scripts, verify=False)
    assert result.ok, (result.violations, result.unsettled)
    return result, list(merged.dependencies)


@pytest.fixture
def kernel_schema():
    """Fixture handle on :func:`assert_kernel_schema`."""
    return assert_kernel_schema


@pytest.fixture
def run_kernel_schema():
    """Fixture handle on :func:`assert_run_kernel_schema`."""
    return assert_run_kernel_schema


@pytest.fixture
def e():
    return Event("e")


@pytest.fixture
def f():
    return Event("f")


@pytest.fixture
def g():
    return Event("g")


@pytest.fixture
def d_arrow():
    """Klein's ``e -> f`` (Example 2)."""
    return parse("~e + f")


@pytest.fixture
def d_prec():
    """Klein's ``e < f`` (Example 3)."""
    return parse("~e + ~f + e . f")
