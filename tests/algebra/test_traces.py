"""Traces, universes, satisfaction (Definition 1, Semantics 1-5, Example 1)."""

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import (
    Trace,
    maximal_universe,
    satisfies,
    universe,
    universe_size,
)

from tests.conftest import count_calls, fitted_exponent, run_stamped_travel

E, F, G = Event("e"), Event("f"), Event("g")


class TestTraceValidation:
    def test_valid_trace(self):
        t = Trace([E, ~F])
        assert len(t) == 2
        assert E in t and ~F in t

    def test_rejects_duplicate_event(self):
        with pytest.raises(ValueError):
            Trace([E, E])

    def test_rejects_event_with_complement(self):
        with pytest.raises(ValueError):
            Trace([E, ~E])

    def test_slicing(self):
        t = Trace([E, F, G])
        assert t.prefix(2) == Trace([E, F])
        assert t.suffix(1) == Trace([F, G])
        assert t[0] == E
        assert t[1:] == Trace([F, G])

    def test_concat(self):
        assert Trace([E]).concat(Trace([F])) == Trace([E, F])
        assert Trace([E]).can_concat(Trace([F]))
        assert not Trace([E]).can_concat(Trace([~E]))
        assert not Trace([E]).can_concat(Trace([E]))

    def test_maximality(self):
        assert Trace([E, ~F]).is_maximal([E, F])
        assert not Trace([E]).is_maximal([E, F])


class TestPositionIndex:
    def test_position_of_present_and_absent_events(self):
        t = Trace([E, ~F, G])
        assert [t.position(ev) for ev in (E, ~F, G)] == [0, 1, 2]
        assert t.position(F) is None
        assert t.position(~E) is None
        assert Trace([]).position(E) is None

    def test_contains_distinguishes_event_from_complement(self):
        t = Trace([E, ~F])
        assert E in t and ~F in t
        assert ~E not in t and F not in t and G not in t
        assert E not in Trace([])

    def test_slice_gets_its_own_index(self):
        h, k = Event("h"), Event("k")
        t = Trace([E, F, G, h, k])
        assert t.position(G) == 2  # parent index built before slicing
        piece = t[2:5]
        assert piece == Trace([G, h, k])
        assert [piece.position(ev) for ev in (G, h, k)] == [0, 1, 2]
        assert piece.position(E) is None and E not in piece
        assert t.position(k) == 4  # the parent's index is untouched

    def test_equal_events_built_separately_are_found(self):
        assert Trace([Event("e")]).position(Event("e")) == 0


class TestSatisfaction:
    """Semantics 1-5 on concrete traces."""

    def test_atom_holds_iff_event_occurs(self):
        assert satisfies(Trace([E, F]), parse("e"))
        assert not satisfies(Trace([F]), parse("e"))
        assert not satisfies(Trace([~E]), parse("e"))

    def test_top_and_zero(self):
        assert satisfies(Trace([]), parse("T"))
        assert not satisfies(Trace([]), parse("0"))

    def test_choice(self):
        d = parse("e + f")
        assert satisfies(Trace([E]), d)
        assert satisfies(Trace([F]), d)
        assert not satisfies(Trace([G]), d)

    def test_conj(self):
        d = parse("e | f")
        assert satisfies(Trace([E, F]), d)
        assert satisfies(Trace([F, E]), d)
        assert not satisfies(Trace([E]), d)

    def test_seq_requires_order(self):
        d = parse("e . f")
        assert satisfies(Trace([E, F]), d)
        assert not satisfies(Trace([F, E]), d)

    def test_seq_tolerates_interleaving(self):
        d = parse("e . f")
        assert satisfies(Trace([E, G, F]), d)
        assert satisfies(Trace([G, E, F]), d)

    def test_three_way_seq(self):
        d = parse("e . f . g")
        assert satisfies(Trace([E, F, G]), d)
        assert not satisfies(Trace([E, G, F]), d)
        assert not satisfies(Trace([G, E, F]), d)

    def test_example_2_arrow(self):
        """D_-> = ~e + f : if e occurs then f occurs, either order."""
        d = parse("~e + f")
        assert satisfies(Trace([E, F]), d)
        assert satisfies(Trace([F, E]), d)
        assert satisfies(Trace([~E]), d)
        assert satisfies(Trace([~E, ~F]), d)
        assert not satisfies(Trace([E, ~F]), d)
        assert not satisfies(Trace([E]), d)

    def test_example_3_precedes(self):
        """D_< = ~e + ~f + e.f : if both occur, e precedes f."""
        d = parse("~e + ~f + e . f")
        assert satisfies(Trace([E, F]), d)
        assert not satisfies(Trace([F, E]), d)
        assert satisfies(Trace([~E, F]), d)
        assert satisfies(Trace([E, ~F]), d)
        # the empty trace satisfies no disjunct: atoms demand occurrence
        assert not satisfies(Trace([]), d)


class TestVerifyScaling:
    def test_verify_call_count_grows_linearly(self):
        """``result.verify`` on N stamped travel bookings costs
        O(|trace| + sum |dep|): a log-log slope near 1 over N = 32, 64,
        128.  The split-enumerating checker measured about 2.7 here, so
        a quadratic one cannot come back unnoticed."""
        sizes = (32, 64, 128)
        counts = []
        for n in sizes:
            outcomes = ["failure" if k % 3 == 0 else "success" for k in range(n)]
            result, deps = run_stamped_travel(outcomes)
            counts.append(count_calls(lambda: result.verify(deps)))
            assert result.violations == []
        exponent = fitted_exponent(sizes, counts)
        assert exponent <= 1.15, (exponent, counts)


class TestUniverse:
    def test_example_1_universe(self):
        """Example 1: U_E over {e, f} (the paper's listing, deduplicated)."""
        traces = set(universe([E, F]))
        assert Trace([]) in traces
        assert Trace([E, F]) in traces
        assert Trace([F, ~E]) in traces
        assert len(traces) == 13  # 1 empty + 4 singletons + 4*2 pairs

    def test_universe_size_formula(self):
        for n in range(4):
            assert len(list(universe([Event(f"x{i}") for i in range(n)]))) == \
                universe_size(n)

    def test_maximal_universe(self):
        traces = list(maximal_universe([E, F]))
        assert len(traces) == 8  # 2^2 sign choices * 2! orders
        assert all(t.is_maximal([E, F]) for t in traces)
        assert len(traces) == universe_size(2, include_partial=False)

    def test_example_1_denotations(self):
        """[[e]] from Example 1: the traces where e occurs."""
        traces = [u for u in universe([E, F]) if satisfies(u, parse("e"))]
        assert sorted(map(repr, traces)) == sorted(
            ["<e>", "<e f>", "<f e>", "<e ~f>", "<~f e>"]
        )

    def test_example_1_identities(self):
        universe_set = set(universe([E, F]))
        # [[ e + ~e ]] != U_E  (the empty trace satisfies neither)
        satisfying = {u for u in universe_set if satisfies(u, parse("e + ~e"))}
        assert satisfying != universe_set
        # [[ e | ~e ]] = {}
        assert not any(satisfies(u, parse("e | ~e")) for u in universe_set)
