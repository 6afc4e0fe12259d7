"""Micro-benchmarks of the hot symbolic operations and the simulator.

Not tied to a single paper artifact; these keep the core primitives
honest (parse, residuate, cube conjunction, joint-completion search,
entailment, guard minimization, the simulator's calendar) and give
downstream users cost expectations.
"""

import random

from repro.algebra.normal_form import joint_completion_exists
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace
from repro.sim import ConstantLatency, Network, Simulator, UniformLatency
from repro.temporal.cubes import literal
from repro.temporal.simplify import minimize

from benchmarks.helpers import clear_symbolic_caches

E, F, G = Event("e"), Event("f"), Event("g")
D_PREC = parse("~e + ~f + e . f")


def test_bench_parse(benchmark):
    text = "~s_buy + ~c_buy + s_buy . c_book . c_buy + (a | b . c)"
    expr = benchmark(lambda: parse(text))
    assert expr.bases()


def test_bench_residuate_uncached(benchmark):
    def step():
        residuate.cache_clear()
        return residuate(D_PREC, E)

    result = benchmark(step)
    assert repr(result) == "f + ~f"


def test_bench_residuate_cached(benchmark):
    residuate(D_PREC, E)  # warm
    result = benchmark(lambda: residuate(D_PREC, E))
    assert repr(result) == "f + ~f"


def test_bench_cube_conjunction(benchmark):
    left = literal("box", E) | literal("notyet", F)
    right = literal("dia", F) | literal("dia", ~G)

    result = benchmark(lambda: left & right)
    assert not result.is_false


def test_bench_cube_holds_at(benchmark):
    g = (literal("box", E) & literal("notyet", F)) | literal("dia", ~F)
    trace = Trace([E, ~F, G])

    result = benchmark(lambda: g.holds_at(trace, 1))
    assert isinstance(result, bool)


def test_bench_joint_completion(benchmark):
    deps = tuple(
        parse(t)
        for t in (
            "~e + ~f + e . f",
            "~f + ~g + f . g",
            "~e + f",
            "~g + e",
        )
    )
    result = benchmark(lambda: joint_completion_exists(deps))
    assert result


def test_bench_joint_completion_unsat(benchmark):
    deps = tuple(parse(t) for t in ("e . f", "f . g", "g . e"))
    result = benchmark(lambda: joint_completion_exists(deps))
    assert not result


def test_bench_entailment_twelve_arrows(benchmark):
    from repro.workflows.analysis import implies

    deps = [parse(f"~e{k} + f{k}") for k in range(12)]
    result = benchmark(lambda: implies(deps, deps[0]))
    assert result


def test_bench_minimize(benchmark):
    g = (
        (literal("notyet", F) & literal("box", E))
        | (literal("notyet", F) & literal("notyet", E))
        | (literal("notyet", F) & literal("dia", E))
        | literal("dia", ~F)
    )
    minimized = benchmark(lambda: minimize(g))
    assert minimized.equivalent(g)


def test_bench_guard_synthesis_single(benchmark):
    from repro.temporal.guards import guard

    def run():
        clear_symbolic_caches()
        return guard(D_PREC, E)

    result = benchmark(run)
    assert repr(result) == "!f"


#: a constant-latency fan-out: this many messages land in each instant
PER_INSTANT, INSTANTS = 1_000, 8
SITES = [f"s{k}" for k in range(8)]


def test_bench_sim_fabric_fan_out(benchmark):
    """Raw fabric, 1 000 messages sent per instant over 8 instants, to
    handlers that only note the arrival: each instant's messages land
    together one time unit later and leave its FIFO in send order."""

    def run():
        sim = Simulator()
        network = Network(
            sim, latency=ConstantLatency(1.0), rng=random.Random(0)
        )
        got = []

        def note(payload):
            got.append((sim.now, payload))

        def burst(instant):
            for k in range(PER_INSTANT):
                network.send(
                    SITES[k % 8], SITES[(k + 1) % 8], "msg", (instant, k), note
                )

        for instant in range(INSTANTS):
            sim.schedule_at(float(instant), burst, instant)
        sim.run()
        return sim, got

    sim, got = benchmark(run)
    assert sim.processed == INSTANTS + INSTANTS * PER_INSTANT
    assert got == [
        (instant + 1.0, (instant, k))
        for instant in range(INSTANTS)
        for k in range(PER_INSTANT)
    ]


#: a jittered fabric: every source sends to every destination once per
#: round, a round every quarter time unit
SOURCES = [f"src{k}" for k in range(40)]
DESTINATIONS = [f"dst{k}" for k in range(400)]
ROUNDS, ROUND_GAP = 5, 0.25


def test_bench_sim_fabric_jittered_channels(benchmark):
    """Raw fabric at ``UniformLatency(0.5, 1.5)``: 40 sources x 400
    destinations x 5 rounds, so few arrivals share an instant and a
    later round's sample often lands first; the per-channel high-water
    marks keep every channel's arrivals in send order, and the journal
    holds every transmission, in send order."""

    def run():
        sim = Simulator()
        network = Network(
            sim, latency=UniformLatency(0.5, 1.5), rng=random.Random(0)
        )
        got = []

        def burst(round_):
            for src in SOURCES:
                for dst in DESTINATIONS:
                    network.send(
                        src, dst, "msg", (src, dst, round_), got.append
                    )

        for round_ in range(ROUNDS):
            sim.schedule_at(round_ * ROUND_GAP, burst, round_)
        sim.run()
        return network, got

    network, got = benchmark(run)
    sends = len(SOURCES) * len(DESTINATIONS) * ROUNDS
    assert len(got) == sends
    rounds_seen = {}
    for src, dst, round_ in got:
        assert rounds_seen.get((src, dst), -1) == round_ - 1, (src, dst)
        rounds_seen[src, dst] = round_
    journal = network.journal
    assert len(journal) == network.stats.messages == sends
    assert [row[2:4] for row in journal] == [
        (src, dst)
        for _round in range(ROUNDS)
        for src in SOURCES
        for dst in DESTINATIONS
    ]
    # a mark holds an arrival back to an earlier round's, which is due
    # before this round's latest sample; a held-back arrival shares its
    # instant with the one it waited for
    assert all(
        sent + 0.5 <= delivered <= sent + 1.5
        for sent, delivered, *_row in journal
    )
    due = {}
    held_back = 0
    for _sent, delivered, src, dst, _kind in journal:
        held_back += due.get((src, dst)) == delivered
        due[src, dst] = delivered
    assert held_back > sends // 10, held_back


def test_bench_sim_session_timers(benchmark):
    """Retransmission timers as the session layer arms them: 1 000 per
    instant, due four units later, of which the next instant cancels
    nine in ten (their acks arrived); the survivors fire in the order
    they were armed and a cancelled timer never moves the clock."""

    def run():
        sim = Simulator()
        fired = []
        armed = []

        def arm(instant):
            for handle in armed:
                sim.cancel(handle)
            armed[:] = [
                sim.schedule(4.0, fired.append, (instant, k))
                for k in range(PER_INSTANT)
            ]
            del armed[::10]  # these stay armed and fire

        for instant in range(INSTANTS):
            sim.schedule_at(float(instant), arm, instant)
        sim.run()
        return sim, fired

    sim, fired = benchmark(run)
    survivors = [
        (instant, k)
        for instant in range(INSTANTS - 1)
        for k in range(0, PER_INSTANT, 10)
    ]
    last = [(INSTANTS - 1, k) for k in range(PER_INSTANT)]
    assert fired == survivors + last
    assert sim.processed == INSTANTS + len(fired)
    assert sim.now == INSTANTS - 1 + 4.0
