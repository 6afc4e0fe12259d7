"""Synthesis modulo renaming equals direct synthesis, cube for cube.

``guard`` / ``guard_table`` / ``workflow_guards`` answer every query
through the shape table: rename the query's bases onto canonical slot
events, synthesize each distinct slot-space query once, rename the
stored guard back.  The oracle is the function the table itself calls
on a miss -- ``_synthesize`` -- applied to the *real* names, so a
rename that failed to commute with synthesis (lost order, lost
groundness, a collision with a slot name) shows as a cube difference.

The event pool is adversarial on purpose: suffixes that flip
lexicographic order, parametrized and variable-carrying events whose
order lives in the parameter reprs, and bases literally named like
slots.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import Atom, Choice, Conj, Seq
from repro.algebra.normal_form import to_normal_form
from repro.algebra.symbols import Event, Variable
from repro.temporal.cubes import FALSE_GUARD
from repro.temporal.guards import (
    _synthesize,
    clear_synthesis_caches,
    guard,
    guard_table,
    synthesis_stats,
    workflow_guards,
)
from repro.workflows.primitives import klein_precedes, mutex

X, Y = Variable("x"), Variable("y")

POOL = [
    # "t1" < "t10" but "t1_i1" > "t10_i1"
    Event("t1"), Event("t10"), Event("t1_i1"), Event("t10_i1"), Event("t2"),
    # ordered by parameter repr: '10' < '2'
    Event("p", params=(2,)), Event("p", params=(10,)), Event("p", params=("a",)),
    # event types (Section 5): not ground, never collapse in Seq/Conj.of
    Event("q", params=(X,)), Event("q", params=(Y,)), Event("t1", params=(X, 3)),
    # named like the slots themselves, ground and variable-carrying
    Event("#00000000"), Event("#00000001"),
    Event("#00000000", params=(Variable("_"),)),
]


@st.composite
def dependency_sets(draw):
    """1-3 dependencies over 2-4 pool bases, shaped like real ones: a
    choice of sequences of distinct events, optionally conjoined, plus
    the occasional dependency that only *normalizes* to ``0``."""
    bases = draw(
        st.lists(st.sampled_from(POOL), min_size=2, max_size=4, unique=True)
    )
    signed = st.sampled_from([e for b in bases for e in (b, ~b)])
    # a . ~a is 0 on the spot for a ground a but stays a sequence for
    # an event type: slots must keep their base's groundness
    sequence = st.lists(signed, min_size=1, max_size=3, unique=True).map(
        lambda events: Seq.of([Atom(e) for e in events])
    )
    choice = st.lists(sequence, min_size=1, max_size=3).map(Choice.of)
    dead = st.builds(
        # (a | b) . a  ->  (a . a) | (b . a)  ->  0, still mentions both
        lambda a, b: Seq.of([Conj.of([Atom(a), Atom(b)]), Atom(a)]),
        st.sampled_from([b for b in bases if b.is_ground] or [Event("t1")]),
        st.sampled_from(bases),
    )
    dependency = st.one_of(
        choice,
        st.lists(choice, min_size=2, max_size=2).map(Conj.of),
        dead,
    )
    deps = draw(st.lists(dependency, min_size=1, max_size=3))
    return draw(st.permutations(deps))


def direct_table(deps, mentioned_only):
    """``workflow_guards`` with no renaming anywhere: every event's
    relevant dependencies, found by scanning all of them, go straight
    to ``_synthesize`` under their real names."""
    nfs = [to_normal_form(d) for d in deps]
    alphabet = set()
    for dep in deps:
        alphabet |= dep.alphabet()
    return {
        e: _synthesize(
            [
                nf
                for dep, nf in zip(deps, nfs)
                if not mentioned_only or e.base in dep.bases()
            ],
            e,
        )
        for e in sorted(alphabet, key=Event.sort_key)
    }


class TestShapeEquivalence:
    @given(deps=dependency_sets(), mentioned_only=st.booleans())
    def test_workflow_guards_match_direct(self, deps, mentioned_only):
        expected = direct_table(deps, mentioned_only)
        clear_synthesis_caches()
        cold = workflow_guards(deps, mentioned_only=mentioned_only)
        warm = workflow_guards(deps, mentioned_only=mentioned_only)
        assert list(cold.items()) == list(expected.items())
        assert list(warm.items()) == list(expected.items())

    @given(deps=dependency_sets())
    def test_guard_and_guard_table_match_direct(self, deps):
        for dep in deps:
            nf = to_normal_form(dep)
            table = guard_table(dep)
            assert list(table) == sorted(dep.alphabet(), key=Event.sort_key)
            for event, found in table.items():
                assert found == _synthesize([nf], event)
                # complements and foreign events as the queried event
                assert guard(dep, event) == found
            foreign = Event("zz")
            assert guard(dep, ~foreign) == _synthesize([nf], ~foreign)

    @given(deps=dependency_sets())
    def test_dead_dependency_falsifies_its_events(self, deps):
        table = workflow_guards(deps)
        for dep in deps:
            if dep.bases() and not to_normal_form(dep).bases():
                for event in dep.alphabet():
                    assert table[event] == FALSE_GUARD


class TestSharedBases:
    """One base queried under several shapes: a mutex chain's ends see
    one neighbour, its middles two, and the lexicographic position of
    ``_i9`` / ``_i10`` / ``_i11`` differs along the chain."""

    def chain(self, ids):
        deps = []
        for k in ids:
            deps.append(klein_precedes(Event(f"b_i{k}"), Event(f"e_i{k}")))
        for j, k in zip(ids, ids[1:]):
            bj, ej = Event(f"b_i{j}"), Event(f"e_i{j}")
            bk, ek = Event(f"b_i{k}"), Event(f"e_i{k}")
            deps += [mutex(bj, ej, bk, ek), mutex(bk, ek, bj, ej)]
        return deps

    def test_chain_matches_direct_and_repeats_shapes(self):
        deps = self.chain([8, 9, 10, 11, 12])
        expected = direct_table(deps, mentioned_only=True)
        clear_synthesis_caches()
        assert workflow_guards(deps) == expected
        stats = synthesis_stats()
        assert stats["shape_hits"] + stats["shape_misses"] == len(expected)
        # where names keep their order the middles repeat one shape
        # (instance 3's neighbourhood is instance 4's, shifted) ...
        regular = self.chain([1, 2, 3, 4, 5, 6])
        clear_synthesis_caches()
        assert workflow_guards(regular) == direct_table(regular, True)
        stats = synthesis_stats()
        assert stats["shape_hits"] >= 8
        # ... and a disjoint chain with the same name order is all hits
        workflow_guards(self.chain([7, 8, 9]))
        assert synthesis_stats()["shape_misses"] == stats["shape_misses"]

    def test_slot_named_base_is_renamed_like_any_other(self):
        # "#00000001" sorts first, so it lands on slot #00000000 while
        # slot #00000001 stands for "a": a rename that skipped bases
        # "already in slot form" would swap the two
        slot, a = Event("#00000001"), Event("a")
        dep = klein_precedes(a, slot)
        clear_synthesis_caches()
        assert guard_table(dep) == {
            e: _synthesize([to_normal_form(dep)], e)
            for e in sorted(dep.alphabet(), key=Event.sort_key)
        }
        assert guard(dep, slot).bases() == {a}

    def test_bound_instances_share_one_shape_family(self):
        # Section 5: one parametrized dependency, many bound copies
        template = klein_precedes(
            Event("b", params=(X,)), Event("e", params=(X,))
        )
        clear_synthesis_caches()
        for key in (1, 2, 10):
            bound = template.substitute({X: key})
            assert guard_table(bound) == {
                e: _synthesize([to_normal_form(bound)], e)
                for e in sorted(bound.alphabet(), key=Event.sort_key)
            }
        stats = synthesis_stats()
        assert (stats["shape_misses"], stats["shape_hits"]) == (4, 8)

    def test_event_type_keeps_its_groundness(self):
        # q[?x] . ~q[?x] is not collapsed to 0 by Seq.of (only ground
        # contradictions are), so a ground slot standing for q[?x]
        # would synthesize a different -- equivalent, not equal -- guard
        q = Event("q", params=(X,))
        dep = Choice.of([Atom(Event("f")), Seq.of([Atom(q), Atom(~q)])])
        clear_synthesis_caches()
        for event in (Event("g"), ~Event("g"), q, Event("f")):
            assert guard(dep, event) == _synthesize(
                [to_normal_form(dep)], event
            )
