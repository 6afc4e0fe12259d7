"""Micro-benchmarks of the hot symbolic operations.

Not tied to a single paper artifact; these keep the core primitives
honest (parse, residuate, cube conjunction, joint-completion search,
entailment, guard minimization) and give downstream users cost expectations.
"""

from repro.algebra.normal_form import joint_completion_exists
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace
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
