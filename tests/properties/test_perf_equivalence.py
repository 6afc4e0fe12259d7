"""The performance kernel is an optimization, not a semantics change.

These properties guard the hash-consed symbolic kernel:
constructing an expression is observationally the same as structural
construction -- the same value is the same object, hashes and equality
agree with a structural rebuild, and objects that straddle an
intern-table reset (benchmarks clear the tables) still compare
structurally.
"""

from hypothesis import given, settings

from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Expr,
    Seq,
    TOP,
    ZERO,
    clear_intern_tables,
    intern_stats,
)
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event

from .strategies import expressions, signed_events


def rebuild(expr: Expr) -> Expr:
    """Structurally reconstruct ``expr`` from fresh components."""
    if expr is ZERO or expr is TOP:
        return expr
    if isinstance(expr, Atom):
        ev = expr.event
        return Atom(Event(ev.name, negated=ev.negated, params=ev.params))
    parts = [rebuild(p) for p in expr.parts]
    if isinstance(expr, Seq):
        return Seq.of(parts)
    if isinstance(expr, Choice):
        return Choice.of(parts)
    assert isinstance(expr, Conj)
    return Conj.of(parts)


class TestInterning:
    """Hash-consed construction == structural construction."""

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_reconstruction_is_identity(self, expr):
        assert rebuild(expr) is expr

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_parse_of_repr_is_identity(self, expr):
        assert parse(repr(expr)) is expr

    @settings(max_examples=100, deadline=None)
    @given(expressions(), signed_events())
    def test_residuation_unaffected_by_interning(self, expr, event):
        direct = residuate(expr, event)
        assert residuate(rebuild(expr), event) is direct

    @settings(max_examples=50, deadline=None)
    @given(expressions())
    def test_structural_equality_across_table_reset(self, expr):
        """An expression from a cleared intern epoch still equals (and
        hashes with) its reconstruction -- the structural fallback the
        benchmarks rely on when they clear the tables mid-process --
        and both are built over the *same* events: those compare by
        identity and are never dropped."""
        source = repr(expr)
        expected_hash = hash(expr)
        clear_intern_tables()
        try:
            fresh = parse(source)
            assert fresh == expr
            assert hash(fresh) == expected_hash
            assert len({fresh, expr}) == 1
            assert sorted(map(id, fresh.events())) == sorted(
                map(id, expr.events())
            )
        finally:
            # the cleared table now interns the *fresh* objects; drop
            # them too so later tests start from a consistent epoch
            clear_intern_tables()

    def test_interning_is_counted(self):
        clear_intern_tables()
        e = Event("count_probe")
        assert Event("count_probe") is e
        a = Atom(e)
        assert Atom(e) is a
        stats = intern_stats()
        assert stats["events"]["hits"] >= 1
        assert stats["exprs"]["hits"] >= 1
        clear_intern_tables()

    def test_kernel_stats_schema(self, kernel_schema):
        from repro.temporal.guards import kernel_stats

        kernel_schema(kernel_stats())

