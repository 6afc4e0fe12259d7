"""Expression AST and constructor canonicalization (Syntax 1-4)."""

import pytest

from repro.algebra import expressions
from repro.algebra.denotation import equivalent
from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Seq,
    TOP,
    ZERO,
    atom,
)
from repro.algebra.parser import parse
from repro.algebra.symbols import Event


class TestConstructors:
    def test_atom_requires_event(self):
        with pytest.raises(TypeError):
            Atom("not an event")

    def test_atom_invert(self):
        a = atom("e")
        assert (~a).event == ~Event("e")

    def test_choice_flattens_and_sorts(self):
        e, f, g = atom("e"), atom("f"), atom("g")
        expr = Choice.of([g, Choice.of([e, f])])
        assert isinstance(expr, Choice)
        assert expr.parts == (e, f, g)

    def test_choice_dedupes(self):
        e, f = atom("e"), atom("f")
        assert Choice.of([e, f, e]) == Choice.of([e, f])

    def test_choice_identity_zero(self):
        e = atom("e")
        assert Choice.of([e, ZERO]) == e

    def test_choice_absorbs_top(self):
        assert Choice.of([atom("e"), TOP]) == TOP

    def test_choice_empty_is_zero(self):
        assert Choice.of([]) == ZERO

    def test_conj_flattens_and_sorts(self):
        e, f = atom("e"), atom("f")
        assert Conj.of([f, e]).parts == (e, f)

    def test_conj_identity_top(self):
        e = atom("e")
        assert Conj.of([e, TOP]) == e

    def test_conj_absorbs_zero(self):
        assert Conj.of([atom("e"), ZERO]) == ZERO

    def test_conj_empty_is_top(self):
        assert Conj.of([]) == TOP

    def test_conj_event_with_complement_is_zero(self):
        # Example 1: [[ e | ~e ]] = 0
        e = atom("e")
        assert Conj.of([e, ~e]) == ZERO

    def test_seq_flattens(self):
        e, f, g = atom("e"), atom("f"), atom("g")
        expr = Seq.of([e, Seq.of([f, g])])
        assert isinstance(expr, Seq)
        assert expr.parts == (e, f, g)

    def test_seq_unit_top(self):
        e, f = atom("e"), atom("f")
        assert Seq.of([e, TOP, f]) == Seq.of([e, f])
        assert Seq.of([TOP]) == TOP

    def test_seq_annihilator_zero(self):
        assert Seq.of([atom("e"), ZERO]) == ZERO

    def test_seq_repeated_event_is_zero(self):
        # no trace repeats an event (Definition 1)
        e = atom("e")
        assert Seq.of([e, e]) == ZERO

    def test_seq_event_with_complement_is_zero(self):
        e = atom("e")
        assert Seq.of([e, ~e]) == ZERO

    def test_single_part_collapses(self):
        e = atom("e")
        assert Choice.of([e]) == e
        assert Conj.of([e]) == e
        assert Seq.of([e]) == e

    def test_nodes_whose_hashes_collide_stay_apart(self, monkeypatch):
        """An n-ary node is filed under its structural hash; a second,
        different node with the same hash is kept apart by structure
        and interned as firmly as the first."""
        e, f, g = atom("coll_e"), atom("coll_f"), atom("coll_g")
        first = Choice((e, f))
        parts = (e, g)
        # stand ``first`` where the new node's hash is filed
        monkeypatch.setitem(
            expressions._INTERN, hash(("Seq", parts)), first
        )
        monkeypatch.setattr(expressions, "_SPILL", {})
        second = Seq(parts)
        assert type(second) is Seq and second.parts == parts
        assert Seq(parts) is second
        assert Choice((e, f)) is first


class TestOperators:
    def test_plus_is_choice(self):
        e, f = atom("e"), atom("f")
        assert e + f == Choice.of([e, f])

    def test_and_is_conj(self):
        e, f = atom("e"), atom("f")
        assert e & f == Conj.of([e, f])

    def test_rshift_is_seq(self):
        e, f = atom("e"), atom("f")
        assert e >> f == Seq.of([e, f])

    def test_operator_expression_matches_parse(self):
        e, f = atom("e"), atom("f")
        assert (~e) + (~f) + (e >> f) == parse("~e + ~f + e . f")


class TestInspection:
    def test_events_and_alphabet(self):
        expr = parse("~e + f . g")
        e, f, g = Event("e"), Event("f"), Event("g")
        assert expr.events() == frozenset({~e, f, g})
        assert expr.alphabet() == frozenset({e, ~e, f, ~f, g, ~g})
        assert expr.bases() == frozenset({e, f, g})

    def test_walk_visits_all_nodes(self):
        expr = parse("(e + f) . g")
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds.count("Atom") == 3

    def test_substitute_on_expression(self):
        from repro.algebra.symbols import Variable

        expr = parse("~s[cid] + t[cid]")
        ground = expr.substitute({Variable("cid"): 42})
        names = {repr(ev) for ev in ground.events()}
        assert names == {"~s[42]", "t[42]"}


class TestCanonicalizationIsSound:
    """Every constructor identity must be a semantic equivalence."""

    def test_choice_commutes(self):
        assert equivalent(parse("e + f"), parse("f + e"))

    def test_conj_commutes(self):
        assert equivalent(parse("e | f"), parse("f | e"))

    def test_seq_top_unit(self):
        assert equivalent(parse("e . T . f"), parse("e . f"))
        assert equivalent(parse("T . e"), parse("e"))
        assert equivalent(parse("e . T"), parse("e"))

    def test_seq_repeat_empty(self):
        assert equivalent(parse("e . f . e"), ZERO)

    def test_conj_complement_empty(self):
        assert equivalent(parse("e | ~e"), ZERO)
