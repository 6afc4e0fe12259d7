"""Event symbols, complements, and parameters (paper Section 3.1, 5)."""

import copy
import pickle

import pytest

from repro.algebra.expressions import clear_intern_tables
from repro.algebra.symbols import (
    Event,
    Variable,
    alphabet_of,
    bases_of,
    event_intern_stats,
    events,
)


class TestEventBasics:
    def test_positive_event(self):
        e = Event("commit")
        assert e.name == "commit"
        assert not e.negated
        assert e.params == ()

    def test_complement_flips_polarity(self):
        e = Event("commit")
        assert (~e).negated
        assert (~e).name == "commit"

    def test_double_complement_is_identity(self):
        e = Event("commit")
        assert ~~e == e

    def test_base_of_complement(self):
        e = Event("commit")
        assert (~e).base == e
        assert e.base == e

    def test_complement_property_matches_invert(self):
        e = Event("commit")
        assert e.complement == ~e

    def test_equality_and_hash(self):
        assert Event("a") == Event("a")
        assert hash(Event("a")) == hash(Event("a"))
        assert Event("a") != Event("b")
        assert Event("a") != ~Event("a")

    def test_events_with_params_differ(self):
        assert Event("a", params=(1,)) != Event("a", params=(2,))
        assert Event("a", params=(1,)) != Event("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Event("")

    def test_reserved_characters_rejected(self):
        for bad in ("a+b", "a.b", "a b", "a~b", "a(b", "a[b"):
            with pytest.raises(ValueError):
                Event(bad)

    def test_immutable(self):
        e = Event("a")
        with pytest.raises(AttributeError):
            e.name = "b"

    def test_repr(self):
        assert repr(Event("a")) == "a"
        assert repr(~Event("a")) == "~a"
        assert repr(Event("a", params=(1, "x"))) == "a[1,'x']"

    def test_sort_key_orders_complement_after_positive(self):
        e = Event("a")
        assert sorted([~e, e]) == [e, ~e]


class TestIdentity:
    """Events are interned and compare by identity: the intern table
    is the equality, so it links both polarities and is never dropped."""

    def test_same_arguments_same_object(self):
        for args in (("a",), ("a", True), ("a", False, (1, "x")),
                     ("a", True, (Variable("v"),))):
            assert Event(*args) is Event(*args)

    def test_polarities_are_linked(self):
        e = Event("linked", params=(3,))
        assert (~e).base is e
        assert e.base is e
        assert (~e).complement is e
        assert ~~e is e
        assert Event("linked", True, (3,)) is ~e

    def test_no_python_level_hash_or_eq(self):
        assert "__hash__" not in vars(Event)
        assert "__eq__" not in vars(Event)

    def test_events_survive_a_table_reset(self):
        before = Event("survivor")
        negated = ~before
        clear_intern_tables()
        assert Event("survivor") is before
        assert Event("survivor", True) is negated
        assert len({before, Event("survivor")}) == 1

    def test_reset_clears_only_the_counters(self):
        Event("counted")
        size = event_intern_stats()["size"]
        clear_intern_tables()
        stats = event_intern_stats()
        assert stats == {"size": size, "hits": 0, "misses": 0}
        Event("counted_fresh")
        # one miss creates both polarities
        assert event_intern_stats() == {
            "size": size + 2, "hits": 0, "misses": 1
        }

    def test_copies_are_the_interned_object(self):
        e = Event("copied", params=(1, Variable("v")))
        assert copy.copy(e) is e
        assert copy.deepcopy([e, ~e])[1] is ~e

    def test_pickle_round_trip_is_the_interned_object(self):
        for e in (Event("pickled"), ~Event("pickled"),
                  Event("pickled", params=(1, Variable("v")))):
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(e, protocol)) is e


class TestVariables:
    def test_variable_identity(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert hash(Variable("x")) == hash(Variable("x"))

    def test_variable_name_validation(self):
        with pytest.raises(ValueError):
            Variable("not an identifier")
        with pytest.raises(ValueError):
            Variable("")

    def test_is_ground(self):
        x = Variable("x")
        assert Event("a", params=(1,)).is_ground
        assert not Event("a", params=(x,)).is_ground

    def test_variables_listed_in_order(self):
        x, y = Variable("x"), Variable("y")
        ev = Event("a", params=(y, 1, x))
        assert ev.variables == (y, x)

    def test_substitute(self):
        x = Variable("x")
        ev = Event("a", params=(x, "lit"))
        assert ev.substitute({x: 7}) == Event("a", params=(7, "lit"))

    def test_substitute_noop_returns_self(self):
        ev = Event("a", params=(1,))
        assert ev.substitute({Variable("x"): 2}) is ev

    def test_unify_success(self):
        x = Variable("x")
        pattern = Event("a", params=(x, 1))
        token = Event("a", params=(9, 1))
        assert pattern.unify(token) == {x: 9}

    def test_unify_repeated_variable_must_agree(self):
        x = Variable("x")
        pattern = Event("a", params=(x, x))
        assert pattern.unify(Event("a", params=(3, 3))) == {x: 3}
        assert pattern.unify(Event("a", params=(3, 4))) is None

    def test_unify_failures(self):
        x = Variable("x")
        pattern = Event("a", params=(x,))
        assert pattern.unify(Event("b", params=(1,))) is None  # name
        assert pattern.unify(~Event("a", params=(1,))) is None  # polarity
        assert pattern.unify(Event("a", params=(1, 2))) is None  # arity
        assert Event("a", params=(5,)).unify(Event("a", params=(6,))) is None


class TestAlphabetHelpers:
    def test_events_constructor(self):
        assert events("a b") == (Event("a"), Event("b"))

    def test_alphabet_of_closes_under_complement(self):
        e = Event("a")
        assert alphabet_of([e]) == frozenset({e, ~e})
        assert alphabet_of([~e]) == frozenset({e, ~e})

    def test_bases_of(self):
        e, f = Event("a"), Event("b")
        assert bases_of([~e, f]) == frozenset({e, f})
