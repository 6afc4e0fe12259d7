"""The trace differ localizes any single-record mutation.

The differ's contract is *sensitivity with localization*: take a real
causal trace, mutate exactly one record -- drop it, swap it with its
successor, flip a guard verdict, retime a delivery -- and
:func:`repro.obs.diff.diff_traces` must (a) never report the traces
identical, and (b) point its first divergence at the mutated site, at
or before the mutated position in that site's stream (a drop shifts
every later record of the site up by one, so the earliest disagreement
can precede the mutation point itself but never trail it on that
site's stream).  This is the property that makes the differ usable as
the failure reporter of the differential harnesses: whatever single
decision chaos flips, the report names where.

Mutations deliberately target *decision-bearing* records (actor,
guard, message); Lamport bookkeeping, and the wall-clock ``elapsed``
that older traces carry on guard records, must conversely stay
invisible.
"""

import random

from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.obs.diff import canonical, diff_traces
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workloads.scenarios import (
    make_mutex_scenario,
    make_order_fulfillment,
    make_travel_booking,
)

SCENARIOS = {
    "order": lambda: make_order_fulfillment(True),
    "travel": lambda: make_travel_booking("success"),
    "mutex": lambda: make_mutex_scenario("t1"),
}

_TRACES: dict[str, list[dict]] = {}


def base_trace(name: str) -> list[dict]:
    """One deterministic traced run per scenario, cached per session."""
    if name not in _TRACES:
        scenario = SCENARIOS[name]()
        tracer = Tracer()
        DistributedScheduler(
            scenario.workflow.dependencies,
            sites=scenario.workflow.sites,
            attributes=scenario.workflow.attributes,
            rng=random.Random(13),
            tracer=tracer,
        ).run(scenario.scripts)
        _TRACES[name] = list(tracer.records)
    return [dict(r) for r in _TRACES[name]]


def site_stream_position(records, index):
    """(site, position-in-that-site's-stream) of records[index]."""
    site = records[index]["site"]
    return site, sum(
        1 for r in records[:index] if r.get("site") == site
    )


MUTATIONS = ("drop", "swap", "flip_verdict", "retime")


@st.composite
def mutation_cases(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    records = base_trace(name)
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "flip_verdict":
        candidates = [
            i for i, r in enumerate(records)
            if r.get("cat") == "guard" and r.get("verdict") in ("fire", "park")
        ]
    elif kind == "retime":
        candidates = [
            i for i, r in enumerate(records)
            if r.get("cat") == "message" and r.get("op") == "recv"
        ]
    elif kind == "swap":
        # swap with the next record of the SAME site -- but only when
        # the two differ canonically, else the swap is a no-op by
        # construction (identical records commute)
        candidates = []
        for i, r in enumerate(records):
            nxt = next(
                (j for j in range(i + 1, len(records))
                 if records[j].get("site") == r.get("site")),
                None,
            )
            if nxt is not None and canonical(records[nxt]) != canonical(r):
                candidates.append(i)
    else:
        candidates = list(range(len(records)))
    index = draw(st.sampled_from(candidates))
    return name, kind, index


def apply_mutation(records, kind, index):
    """Mutate in place; returns the indices whose records changed."""
    if kind == "drop":
        del records[index]
        return [index]
    if kind == "swap":
        site = records[index]["site"]
        partner = next(
            j for j in range(index + 1, len(records))
            if records[j].get("site") == site
        )
        records[index], records[partner] = records[partner], records[index]
        return [index, partner]
    if kind == "flip_verdict":
        record = records[index]
        record["verdict"] = "park" if record["verdict"] == "fire" else "fire"
        return [index]
    # retime: shift one delivery's virtual time by an amount no real
    # latency model produced
    records[index]["t"] = records[index]["t"] + 17.31
    return [index]


class TestMutationLocalization:
    @settings(max_examples=120, deadline=None)
    @given(mutation_cases())
    def test_single_mutation_is_localized(self, case):
        name, kind, index = case
        original = base_trace(name)
        site, position = site_stream_position(original, index)
        mutated = base_trace(name)
        apply_mutation(mutated, kind, index)

        diff = diff_traces(original, mutated)
        note(f"{name}: {kind} @ {index} (site {site} pos {position})")
        assert not diff.identical, (
            f"{kind} of record {index} went undetected"
        )
        diverging_sites = {d.site for d in diff.divergences}
        assert site in diverging_sites, (
            f"mutated site {site} absent from divergences {diverging_sites}"
        )
        # a drop inside a run of canonically identical records is only
        # detectable at the run's end -- the earliest observable
        # mismatch, not the mutated index itself
        stream = [
            canonical(r) for r in original if r.get("site") == site
        ]
        run_end = position
        while (
            run_end + 1 < len(stream)
            and stream[run_end + 1] == stream[position]
        ):
            run_end += 1
        at_site = next(d for d in diff.divergences if d.site == site)
        assert at_site.position <= run_end, (
            f"divergence at position {at_site.position} trails the "
            f"mutation at {position} (identical run ends at {run_end})"
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(SCENARIOS)),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_volatile_field_noise_stays_invisible(self, name, salt):
        """Perturbing lc/sent_lc/mid -- bookkeeping that shifts with any
        earlier event -- or an older trace's guard ``elapsed`` never
        diverges."""
        original = base_trace(name)
        noisy = base_trace(name)
        rng = random.Random(salt)
        for record in noisy:
            if record["cat"] == "guard":
                record["elapsed"] = rng.random()
            record["lc"] = record["lc"] + 1000
            if "sent_lc" in record:
                record["sent_lc"] = record["sent_lc"] + 1000
            if "mid" in record:
                record["mid"] = record["mid"] + 500
        assert diff_traces(original, noisy).identical

    def test_first_divergence_carries_a_chain(self):
        """The localized report includes the causal run-up."""
        records = base_trace("travel")
        mutated = base_trace("travel")
        flips = [
            i for i, r in enumerate(mutated)
            if r.get("cat") == "guard" and r.get("verdict") == "fire"
        ]
        mutated[flips[-1]]["verdict"] = "park"
        diff = diff_traces(records, mutated)
        assert not diff.identical
        assert diff.first.kind == "guard_verdict_flip"
        assert diff.chain and diff.chain[-1]["site"] == diff.first.site
