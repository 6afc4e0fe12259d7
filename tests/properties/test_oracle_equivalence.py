"""The linear trace oracle agrees with Semantics 1-5 read literally.

``satisfies`` decides ``u |= E`` by the earliest-end fold over the
trace's position index; ``satisfies_by_definition`` enumerates every
split of every ``Seq``.  They must never disagree -- on whole small
universes, on long random traces, and on expressions built without the
normalizing ``.of`` constructors (raw ``T``/``0`` parts, nested
sequences, repeated atoms).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Atom, Choice, Conj, Seq, TOP, ZERO
from repro.algebra.symbols import Event
from repro.algebra.traces import (
    Trace,
    satisfies,
    satisfies_by_definition,
    universe,
)

from tests.properties.strategies import signed_events

SMALL = [Event(name) for name in "efgh"]
SMALL_UNIVERSE = list(universe(SMALL))
WIDE = [Event(f"x{i}") for i in range(20)]


def raw_expressions(bases, max_depth: int = 3):
    """All six node kinds, nesting <= ``max_depth``, built both through
    the normalizing ``.of`` constructors and as raw nodes."""
    level = st.one_of(
        signed_events(bases).map(Atom), st.just(TOP), st.just(ZERO)
    )
    for _ in range(max_depth):
        parts = st.lists(level, min_size=2, max_size=3)
        level = st.one_of(
            level,
            parts.map(Choice.of),
            parts.map(Conj.of),
            parts.map(Seq.of),
            parts.map(lambda ps: Choice(tuple(ps))),
            parts.map(lambda ps: Conj(tuple(ps))),
            parts.map(lambda ps: Seq(tuple(ps))),
        )
    return level


@st.composite
def valid_traces(draw, bases, max_length: int, maximal: bool):
    """A random trace of ``U_E``: each chosen base settles one way."""
    chosen = (
        list(bases)
        if maximal
        else draw(st.lists(st.sampled_from(bases), unique=True))
    )
    order = draw(st.permutations(chosen))[:max_length]
    return Trace(
        [~base if draw(st.booleans()) else base for base in order]
    )


class TestLinearOracleMatchesDefinition:
    @given(raw_expressions(SMALL))
    @settings(max_examples=150, deadline=None)
    def test_on_every_trace_of_the_universe(self, expr):
        for u in SMALL_UNIVERSE:
            assert satisfies(u, expr) == satisfies_by_definition(u, expr), (
                u, expr,
            )

    @given(
        raw_expressions(WIDE),
        st.booleans().flatmap(
            lambda maximal: valid_traces(WIDE, 40, maximal)
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_on_long_partial_and_maximal_traces(self, expr, trace):
        assert satisfies(trace, expr) == satisfies_by_definition(trace, expr)

    @given(raw_expressions(SMALL, max_depth=2), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_on_slices(self, expr, start):
        """A slice is a trace in its own right (own index)."""
        for u in SMALL_UNIVERSE[::7]:
            piece = u[start:]
            assert satisfies(piece, expr) == satisfies_by_definition(
                piece, expr
            )
