"""The four-world cube algebra (Figure 3 as a decision procedure)."""

import pytest

from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, maximal_universe
from repro.temporal.cubes import (
    C_OCC,
    DIA_COMP_MASK,
    DIA_MASK,
    E_OCC,
    FALSE_GUARD,
    FULL,
    GuardExpr,
    NOTYET_MASK,
    P_C,
    P_E,
    TRUE_GUARD,
    _absorb,
    _cube_product,
    closure,
    flip,
    literal,
    worlds_at,
)
from repro.temporal.semantics import holds
from tests.conftest import count_calls, fitted_exponent

E, F = Event("e"), Event("f")


class TestMasksAndWorlds:
    def test_literal_masks_match_figure_3(self):
        assert literal("box", E).cubes == frozenset({((E, E_OCC),)})
        assert literal("dia", E).cubes == frozenset({((E, E_OCC | P_E),)})
        assert literal("notyet", E).cubes == frozenset(
            {((E, C_OCC | P_E | P_C),)}
        )

    def test_complement_literals_flip(self):
        assert literal("box", ~E).cubes == frozenset({((E, C_OCC),)})
        assert literal("dia", ~E).cubes == frozenset({((E, C_OCC | P_C),)})

    def test_flip_involution(self):
        for mask in range(16):
            assert flip(flip(mask)) == mask

    def test_closure(self):
        assert closure(P_E) == P_E | E_OCC
        assert closure(P_C) == P_C | C_OCC
        assert closure(E_OCC) == E_OCC
        assert closure(FULL) == FULL

    def test_worlds_at(self):
        u = Trace([E, ~F])
        assert worlds_at(u, 0) == {E: P_E, F: P_C}
        assert worlds_at(u, 1) == {E: E_OCC, F: P_C}
        assert worlds_at(u, 2) == {E: E_OCC, F: C_OCC}

    def test_unknown_literal_kind(self):
        with pytest.raises(ValueError):
            literal("sometime", E)


class TestBooleanAlgebra:
    def test_true_false(self):
        assert TRUE_GUARD.is_true
        assert FALSE_GUARD.is_false
        assert (TRUE_GUARD & FALSE_GUARD).is_false
        assert (TRUE_GUARD | FALSE_GUARD).is_true

    def test_conj_intersects_masks(self):
        g = literal("dia", E) & literal("notyet", E)
        assert g.cubes == frozenset({((E, P_E),)})

    def test_contradiction_collapses(self):
        g = literal("box", E) & literal("notyet", E)
        assert g.is_false

    def test_box_and_dia_is_box(self):
        assert (literal("box", E) & literal("dia", E)) == literal("box", E)

    def test_example8_b_disjunction_of_dias(self):
        g = literal("dia", E) | literal("dia", ~E)
        assert g.is_true  # masks {E,PE} and {C,PC} merge to FULL

    def test_example8_c_conj_of_dias(self):
        assert (literal("dia", E) & literal("dia", ~E)).is_false

    def test_example8_e_boolean_complement(self):
        assert (literal("notyet", E) | literal("box", E)).is_true
        assert (literal("notyet", E) & literal("box", E)).is_false

    def test_example8_f_absorption(self):
        g = literal("notyet", E) | literal("box", ~E)
        assert g == literal("notyet", E)

    def test_multi_base_conj(self):
        g = literal("box", E) & literal("notyet", F)
        assert g.cube_count() == 1
        assert g.literal_count() == 2

    def test_absorption_of_subsumed_cube(self):
        small = literal("box", E) & literal("dia", F)
        big = literal("dia", F)
        assert (small | big) == big

    def test_equivalent_and_entails(self):
        g1 = literal("notyet", E) | literal("box", E)
        assert g1.equivalent(TRUE_GUARD)
        assert literal("box", E).entails(literal("dia", E))
        assert not literal("dia", E).entails(literal("box", E))


class TestEvaluation:
    def test_holds_at_matches_exact_semantics(self):
        """Cube evaluation equals the exact T semantics, for all
        single-literal guards on all points of a 2-event universe."""
        guards = [
            literal(kind, ev)
            for kind in ("box", "dia", "notyet")
            for ev in (E, ~E, F, ~F)
        ]
        for guard in guards:
            formula = guard.to_formula()
            for u in maximal_universe([E, F]):
                for i in range(len(u) + 1):
                    assert guard.holds_at(u, i) == holds(u, i, formula), (
                        guard,
                        u,
                        i,
                    )

    def test_compound_guard_matches_exact_semantics(self):
        compound = (literal("box", E) & literal("notyet", F)) | literal(
            "dia", ~F
        )
        formula = compound.to_formula()
        for u in maximal_universe([E, F]):
            for i in range(len(u) + 1):
                assert compound.holds_at(u, i) == holds(u, i, formula)


class TestKnowledgeReasoning:
    def test_region_subsumes(self):
        g = literal("notyet", F)
        assert not g.region_subsumes({})  # unknown: could be occurred
        assert g.region_subsumes({F: P_E | P_C})  # certified not yet
        assert g.region_subsumes({F: C_OCC})
        assert not g.region_subsumes({F: E_OCC})

    def test_possible_under(self):
        g = literal("box", F)
        assert g.possible_under({})  # F may still occur
        assert g.possible_under({F: P_E | P_C})
        assert not g.possible_under({F: C_OCC})  # complement settled

    def test_simplify_under_box_message(self):
        """Receiving []f : []f, <>f -> T ; !f -> 0 (Section 4.3)."""
        knowledge = {F: E_OCC}
        assert literal("box", F).simplify_under(knowledge).is_true
        assert literal("dia", F).simplify_under(knowledge).is_true
        assert literal("notyet", F).simplify_under(knowledge).is_false

    def test_simplify_under_dia_message(self):
        """Receiving <>f : <>f -> T ; []f and !f unaffected."""
        knowledge = {F: DIA_MASK}
        assert literal("dia", F).simplify_under(knowledge).is_true
        assert literal("box", F).simplify_under(knowledge) == literal("box", F)
        assert literal("notyet", F).simplify_under(knowledge) == literal(
            "notyet", F
        )

    def test_simplify_under_comp_messages(self):
        """Receiving []~f or <>~f : []f, <>f -> 0 ; !f -> T."""
        for knowledge in ({F: C_OCC}, {F: DIA_COMP_MASK}):
            assert literal("box", F).simplify_under(knowledge).is_false
            assert literal("dia", F).simplify_under(knowledge).is_false
            assert literal("notyet", F).simplify_under(knowledge).is_true

    def test_simplify_preserves_unrelated_bases(self):
        g = literal("box", E) & literal("dia", F)
        out = g.simplify_under({F: E_OCC})
        assert out == literal("box", E)


class TestKernelScaling:
    """The two kernel primitives are polynomial in the cubes: fitted
    call-count exponents (exact, host-independent) stay near 2 where
    the enumerator grew as ``4**k`` and the batch absorb as the cube
    count squared per pass."""

    def tautology(self, k):
        """``k + 1`` cubes over ``k`` bases covering every world point,
        no two of them subsuming or merging: ``<>b_i`` after ``<>~b_j``
        for every earlier ``j``, then ``!b_j`` for all ``j``."""
        bases = [Event(f"b{i:02d}") for i in range(k)]
        cubes = [
            tuple((b, DIA_COMP_MASK) for b in bases[:i])
            + ((bases[i], DIA_MASK),)
            for i in range(k)
        ]
        cubes.append(tuple((b, NOTYET_MASK) for b in bases))
        assert GuardExpr(frozenset(cubes)).cube_count() == k + 1
        return cubes, bases

    def test_region_subsumes_on_the_k_base_tautology(self):
        sizes = (8, 12, 16)
        counts = []
        for k in sizes:
            cubes, bases = self.tautology(k)
            guard = GuardExpr(frozenset(cubes))
            assert guard.region_subsumes({})
            # without the last cube the points with no <>b_i are
            # outside, unless the last base is known to have occurred
            short = GuardExpr(frozenset(cubes[:-1]))
            assert not short.region_subsumes({})
            assert short.region_subsumes({bases[-1]: E_OCC})
            counts.append(count_calls(lambda: guard.region_subsumes({})))
        assert fitted_exponent(sizes, counts) <= 2.2, counts
        assert counts[-1] < 5_000, counts  # 4**16 points

    def test_absorb_on_a_product_of_fixpoints(self):
        sizes = (8, 16, 32)
        counts = []
        for c in sizes:
            left = [((Event(f"l{i:02d}"), E_OCC),) for i in range(c)]
            right = [((Event(f"r{i:02d}"), E_OCC),) for i in range(c)]
            product = frozenset(
                _cube_product(a, b) for a in left for b in right
            )
            assert _absorb(product) == product
            counts.append(count_calls(lambda: _absorb(product)))
        # c * c cubes: linear in the cubes is exponent 2 in c
        assert fitted_exponent(sizes, counts) <= 2.2, counts


class TestRendering:
    def test_repr_true_false(self):
        assert repr(TRUE_GUARD) == "T"
        assert repr(FALSE_GUARD) == "0"

    def test_repr_literals(self):
        assert repr(literal("notyet", F)) == "!f"
        assert repr(literal("box", E)) == "[]e"
        assert repr(literal("dia", ~E)) == "<>~e"

    def test_repr_mask_sums(self):
        g = literal("box", E) | literal("dia", ~E)
        assert repr(g) == "([]e + <>~e)"


class TestRename:
    def test_constants_unchanged(self):
        mapping = {E: Event("e_i0")}
        assert TRUE_GUARD.rename(mapping) is TRUE_GUARD
        assert FALSE_GUARD.rename(mapping) is FALSE_GUARD

    def test_empty_mapping_is_identity(self):
        g = literal("box", E) | literal("dia", ~F)
        assert g.rename({}) is g

    def test_literal_rename(self):
        e2 = Event("e_i0")
        assert literal("box", E).rename({E: e2}) == literal("box", e2)
        assert literal("dia", ~E).rename({E: e2}) == literal("dia", ~e2)
        assert literal("notyet", F).rename({E: e2}) == literal("notyet", F)

    def test_rename_round_trip(self):
        e2, f2 = Event("e_i0"), Event("f_i0")
        g = (literal("box", E) & literal("notyet", F)) | literal("dia", ~E)
        there = g.rename({E: e2, F: f2})
        back = there.rename({e2: E, f2: F})
        assert back == g

    def test_order_flipping_injective_rename_stays_canonical(self):
        # mapping that inverts the sort order of the bases: the cube
        # set must still be at the absorption fixpoint afterwards
        a, b = Event("a"), Event("b")
        g = literal("box", a) | (literal("box", b) & literal("dia", a))
        flipped = g.rename({a: Event("z"), b: Event("c")})
        rebuilt = literal("box", Event("z")) | (
            literal("box", Event("c")) & literal("dia", Event("z"))
        )
        assert flipped == rebuilt

    def test_non_injective_rename_intersects_masks(self):
        # e and f collapse onto one base: []e & <>f becomes a single
        # cube whose mask is the intersection (E_OCC & (E_OCC|P_E))
        target = Event("t")
        g = literal("box", E) & literal("dia", F)
        merged = g.rename({E: target, F: target})
        assert merged == literal("box", target)

    def test_non_injective_rename_can_empty_a_cube(self):
        # []e & []~f collapse: E_OCC & C_OCC = EMPTY, the cube dies
        target = Event("t")
        g = literal("box", E) & literal("box", ~F)
        assert g.rename({E: target, F: target}).is_false
