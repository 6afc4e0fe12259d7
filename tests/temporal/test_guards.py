"""Guard synthesis: Definition 2, Example 9, Figure 4, Section 4.4 results."""

import pytest

from repro.algebra.expressions import TOP, ZERO, rename_expr
from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import maximal_universe, satisfies
from repro.temporal import guards as guards_module
from repro.temporal.cubes import FALSE_GUARD, TRUE_GUARD, literal
from repro.temporal.guards import (
    accepting_paths,
    clear_synthesis_caches,
    dependency_binding,
    generates,
    guard,
    guard_formula,
    kernel_stats,
    lemma5_guard,
    RowPlan,
    in_order,
    path_guard,
    render,
    synthesis_stats,
    workflow_bindings,
    workflow_guards,
)
from repro.temporal.semantics import holds, t_equivalent
from repro.workflows.primitives import mutex
from repro.workloads.scenarios import make_mutex_family

from tests.conftest import count_calls, fitted_exponent

E, F, G = Event("e"), Event("f"), Event("g")
D_PREC = parse("~e + ~f + e . f")
D_ARROW = parse("~e + f")


class TestExample9:
    """All eight guard computations of Example 9, verbatim."""

    def test_1_top(self):
        assert guard(TOP, E) == TRUE_GUARD

    def test_2_zero(self):
        assert guard(ZERO, E) == FALSE_GUARD

    def test_3_own_atom(self):
        assert guard(parse("e"), E) == TRUE_GUARD

    def test_4_own_complement(self):
        assert guard(parse("~e"), E) == FALSE_GUARD

    def test_5_precedes_guard_on_not_e(self):
        assert guard(D_PREC, ~E) == TRUE_GUARD

    def test_6_precedes_guard_on_e_is_notyet_f(self):
        assert guard(D_PREC, E) == literal("notyet", F)

    def test_7_precedes_guard_on_not_f(self):
        assert guard(D_PREC, ~F) == TRUE_GUARD

    def test_8_precedes_guard_on_f(self):
        expected = literal("dia", ~E) | literal("box", E)
        assert guard(D_PREC, F) == expected

    def test_narrative_reading(self):
        """'~e can occur at any time, and e can occur if f has not yet
        happened ... f can occur only if e has occurred or ~e is
        guaranteed.'"""
        g_e = guard(D_PREC, E)
        assert repr(g_e) == "!f"
        g_f = guard(D_PREC, F)
        assert repr(g_f) == "([]e + <>~e)"


class TestExample11:
    def test_mutual_eventuality_guards(self):
        """D_-> gives e the guard <>f; the transpose gives f the guard <>e."""
        assert guard(D_ARROW, E) == literal("dia", F)
        transpose = parse("~f + e")
        assert guard(transpose, F) == literal("dia", E)


class TestGuardDefinitionConsistency:
    """The cube guard equals the literal Definition 2 formula wherever
    the exact semantics can check it."""

    DEPS = [
        "~e + f",
        "~e + ~f + e . f",
        "e . f",
        "e + f",
        "e | f",
        "~e + ~f + ~g",
    ]

    @pytest.mark.parametrize("text", DEPS)
    def test_guard_matches_exact_formula(self, text):
        dep = parse(text)
        for ev in sorted(dep.alphabet()):
            cube_guard = guard(dep, ev)
            exact = guard_formula(dep, ev)
            assert t_equivalent(cube_guard.to_formula(), exact), (text, ev)

    def test_sequence_insight_weakens_single_guard(self):
        """For residuals containing multi-event sequences the cube
        guard is deliberately weaker than the literal formula: the
        '<>(f . g)' term becomes '<>f | <>g' (Section 4.2's insight).
        Per-event equivalence fails; Theorem 6 (below) shows the
        guards are collectively exact anyway."""
        dep = parse("~e + f . g")
        cube_guard = guard(dep, E)
        exact = guard_formula(dep, E)
        from repro.temporal.semantics import t_entails

        assert not t_equivalent(cube_guard.to_formula(), exact)
        assert t_entails(exact, cube_guard.to_formula())


class TestAcceptingPaths:
    def test_arrow_paths(self):
        # ~e or f discharge immediately; e first leaves the obligation
        # f, and ~f first leaves the obligation ~e
        assert accepting_paths(D_ARROW) == frozenset(
            {(~E,), (F,), (E, F), (~F, ~E)}
        )

    def test_precedes_paths(self):
        paths = accepting_paths(D_PREC)
        assert (E, F) in paths
        assert (~E,) in paths
        assert (~F,) in paths
        assert (F, ~E) in paths
        assert (E, ~F) in paths
        assert (F, E) not in paths

    def test_non_minimal_paths_extend(self):
        non_minimal = accepting_paths(D_ARROW, minimal=False)
        assert (F, E) in non_minimal
        assert (~E, F) in non_minimal

    def test_zero_has_no_paths(self):
        assert accepting_paths(ZERO) == frozenset()

    def test_top_has_empty_path(self):
        assert () in accepting_paths(TOP)


class TestPathGuard:
    def test_closed_form(self):
        """G(e1..ek..en, ek) = []-before | !-after | <>-after."""
        g = path_guard((E, F, G), F)
        expected = (
            literal("box", E)
            & literal("notyet", G)
            & literal("dia", G)
        )
        assert g == expected

    def test_event_not_on_path(self):
        with pytest.raises(ValueError):
            path_guard((E, F), G)


class TestLemma5:
    DEPS = ["~e + f", "~e + ~f + e . f", "e . f", "e | f", "e + f"]

    @pytest.mark.parametrize("text", DEPS)
    def test_guard_equals_path_sum(self, text):
        dep = parse(text)
        for ev in sorted(dep.alphabet()):
            assert guard(dep, ev).equivalent(lemma5_guard(dep, ev)), (text, ev)


class TestTheorems2And4:
    """Guard decomposition over alphabet-disjoint dependencies."""

    PAIRS = [
        ("~e + f", "~g + h"),
        ("e . f", "g . h"),
        ("~e + ~f + e . f", "g + h"),
    ]

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_theorem_2_choice(self, left, right):
        d, x = parse(left), parse(right)
        combined = d + x
        for ev in sorted(d.alphabet()):
            assert guard(combined, ev).equivalent(
                guard(d, ev) | guard(x, ev)
            ), ev

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_theorem_4_conj(self, left, right):
        d, x = parse(left), parse(right)
        combined = d & x
        for ev in sorted(d.alphabet()):
            assert guard(combined, ev).equivalent(
                guard(d, ev) & guard(x, ev)
            ), ev


class TestLemma3:
    """G(D,e) = !g | G(D,e)  +  []g | G(D/g, e) for any foreign g."""

    @pytest.mark.parametrize("text", ["~e + f", "~e + ~f + e . f", "e . f"])
    def test_case_split(self, text):
        from repro.algebra.residuation import residuate

        dep = parse(text)
        for ev in sorted(dep.alphabet()):
            base_guard = guard(dep, ev)
            for g_ev in sorted(dep.alphabet()):
                if g_ev.base == ev.base:
                    continue
                split = (literal("notyet", g_ev) & base_guard) | (
                    literal("box", g_ev) & guard(residuate(dep, g_ev), ev)
                )
                assert base_guard.equivalent(split), (text, ev, g_ev)


class TestTheorem6:
    """W generates u  iff  u satisfies every D in W (exhaustively)."""

    WORKFLOWS = [
        ["~e + f"],
        ["~e + ~f + e . f"],
        ["~e + f", "~f + e"],
        ["~e + ~f + e . f", "~e + f"],
        ["e . f"],
        ["e | f"],
        ["~e + ~f + e . f", "~f + ~g + f . g"],
        # sequences in residuals: the conjunctive-insight case whose
        # per-event guards are weaker but collectively exact
        ["~e + f . g"],
        ["f . g"],
    ]

    @pytest.mark.parametrize("texts", WORKFLOWS)
    def test_generation_characterizes_satisfaction(self, texts):
        deps = [parse(t) for t in texts]
        table = workflow_guards(deps, mentioned_only=False)
        bases = set()
        for d in deps:
            bases |= d.bases()
        for u in maximal_universe(bases):
            generated = generates(table, u)
            satisfied = all(satisfies(u, d) for d in deps)
            assert generated == satisfied, (texts, u)


class TestWorkflowGuards:
    def test_mentioned_only_restricts(self):
        deps = [parse("~e + f"), parse("~g + h")]
        table = workflow_guards(deps, mentioned_only=True)
        # e's guard only involves f (not g/h)
        assert table[E].bases() <= {F}

    def test_conjunction_across_dependencies(self):
        deps = [D_PREC, parse("~e + f")]
        table = workflow_guards(deps)
        # e needs: f not yet (from D_<) AND f eventually (from D_->)
        expected = literal("notyet", F) & literal("dia", F)
        assert table[E] == expected

    def test_guard_formula_example_9_narrative(self):
        """Exact formula for G(D_<, e) is equivalent to !f."""
        exact = guard_formula(D_PREC, E)
        assert t_equivalent(exact, literal("notyet", F).to_formula())


def _cold_mutex_synthesis(n):
    """(call count, synthesis stats) of one cold ``workflow_guards``
    over the merged Example-13 family of ``n`` tasks, clusters of 4."""
    workflow, _scripts = make_mutex_family(n, cluster=4).merged()
    to_normal_form.cache_clear()
    clear_synthesis_caches()
    calls = count_calls(lambda: workflow_guards(workflow.dependencies))
    return calls, synthesis_stats()


def _counted(monkeypatch, name):
    """Count the calls ``repro.temporal.guards`` makes to its ``name``."""
    calls = []
    original = getattr(guards_module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(guards_module, name, counting)
    return calls


class TestSynthesisScaling:
    SIZES = (32, 64, 128)

    def test_coupled_family_synthesizes_once_per_shape(self):
        """Synthesis is O(shapes * synthesis + copies * bases) with the
        shape count constant in N: the closures built do not grow from
        N = 32 to N = 128 (one per *dependency* made it 112 -> 448) and
        the call count has a log-log slope near 1."""
        runs = [_cold_mutex_synthesis(n) for n in self.SIZES]
        stats = [run[1] for run in runs]
        assert stats[0]["closure_misses"] == stats[-1]["closure_misses"]
        assert stats[0]["shape_misses"] == stats[-1]["shape_misses"]
        for n, found in zip(self.SIZES, stats):
            # one lookup per signed event: b, ~b, e, ~e of each task
            assert found["shape_hits"] + found["shape_misses"] == 4 * n
        counts = [run[0] for run in runs]
        exponent = fitted_exponent(self.SIZES, counts)
        assert exponent <= 1.1, (exponent, counts)

    def test_one_closure_per_dependency_shape(self):
        """Guards compose the columns of each dependency's own closure:
        the family's two task dependencies and two mutex orientations
        are four closures and a constant set of columns at every N (a
        closure per group-relative copy made it 26 at N = 96)."""
        columns = set()
        for n in self.SIZES:
            _calls, found = _cold_mutex_synthesis(n)
            deps = make_mutex_family(n, cluster=4).merged()[0].dependencies
            shapes = {dependency_binding(d).shape for d in deps}
            assert len(shapes) == 4
            assert found["closures"] == found["closure_misses"] == 4
            columns.add(found["columns"])
        assert len(columns) == 1, columns

    def test_warm_table_renames_and_normalizes_nothing(self, monkeypatch):
        """A stamped family's dependencies are bindings already: once
        the shape table is warm, its guard table is dict probes and
        binding compositions."""
        deps = make_mutex_family(32, cluster=4).merged()[0].dependencies
        cold = workflow_bindings(deps)
        renames = _counted(monkeypatch, "rename_expr")
        normal_forms = _counted(monkeypatch, "to_normal_form")
        before = synthesis_stats()
        warm = workflow_bindings(deps)
        after = synthesis_stats()
        assert renames == [] and normal_forms == []
        assert after["shape_misses"] == before["shape_misses"]
        assert after["binding_hits"] - before["binding_hits"] == len(deps)
        assert render(warm) == render(cold)

    def test_stamped_copies_are_binding_hits(self):
        """Stamping enters each copy's binding: the template stamps the
        task dependencies and the family its cross dependencies, so
        synthesizing the merged family binds nothing."""
        clear_synthesis_caches()
        family = make_mutex_family(32, cluster=4)
        deps = family.merged()[0].dependencies
        before = synthesis_stats()
        workflow_bindings(deps)
        after = synthesis_stats()
        assert len(deps) - len(family.cross_dependencies) == 2 * 32
        assert after["binding_hits"] - before["binding_hits"] == len(deps)
        assert after["binding_misses"] == before["binding_misses"]


class TestStampDependency:
    B0, E0, B1, E1 = Event("b0"), Event("e0"), Event("b1"), Event("e1")
    #: the pair's bases in canonical order: the row a copy replaces
    ROW = (B0, B1, E0, E1)

    def mapping(self, first, second):
        return {
            self.B0: Event(f"b{first}"),
            self.E0: Event(f"e{first}"),
            self.B1: Event(f"b{second}"),
            self.E1: Event(f"e{second}"),
        }

    @pytest.mark.parametrize(
        "first, second",
        [
            ("_i1", "_i2"),  # keeps the canonical order
            ("_i9", "_i10"),  # ``b_i10`` sorts before ``b_i9``
        ],
    )
    def test_copy_is_bound_as_from_scratch(self, first, second, monkeypatch):
        dep = mutex(self.B0, self.E0, self.B1, self.E1)
        expected = rename_expr(dep, self.mapping(first, second))
        row = [self.mapping(first, second)[b] for b in self.ROW]
        if not in_order(row):
            # stamp the mirrored dependency onto the swapped instances,
            # as ``make_mutex_family`` does: the same copy, in order
            dep = mutex(self.B1, self.E1, self.B0, self.E0)
            first, second = second, first
            row = [self.mapping(first, second)[b] for b in self.ROW]
        assert in_order(row)
        plan = RowPlan([dependency_binding(dep)], self.ROW, [dep])
        (copy,), _bindings = plan.stamp(row)
        assert copy is expected
        stamped = dependency_binding(copy)
        # the copy's own normal form on the slots of its own bases
        monkeypatch.delitem(guards_module._DEPENDENCY_BINDINGS, copy)
        fresh = dependency_binding(copy)
        ordered = sorted(copy.bases(), key=Event.sort_key)
        assert list(stamped.to_slot) == ordered == list(fresh.to_slot)
        assert stamped.shape is fresh.shape
        assert stamped.from_slot == fresh.from_slot
        # handed its bases by stamping: the ones a walk finds
        assert copy.bases() == frozenset(e.base for e in copy.events())

    def test_a_base_the_normal_form_drops_keeps_its_order_too(self):
        # the normal form is 0, so the binding sees no base a rename
        # could reorder; the row check sees every base, and a row that
        # keeps the order stamps the canonical node
        dep = parse("((d . b) | (~d + c) | (d . d + ~b)) . d")
        canonical = (Event("b"), Event("c"), Event("d"))
        assert not dependency_binding(dep).to_slot
        assert not in_order((Event("z"), Event("y"), Event("x")))
        mapping = {base: Event(f"{base.name}_i1") for base in canonical}
        row = [mapping[base] for base in canonical]
        plan = RowPlan([dependency_binding(dep)], canonical, [dep])
        assert plan.stamp(row)[0] == [rename_expr(dep, mapping)]


class TestSynthesisCaches:
    def test_clear_makes_the_next_synthesis_cold(self):
        """``clear_synthesis_caches`` drops *every* synthesis memo: the
        same table synthesized after it re-counts the same misses."""
        _calls, first = _cold_mutex_synthesis(8)
        assert first["shape_misses"] > 0 and first["closure_misses"] > 0
        guard_formula(D_PREC, E)
        _calls, second = _cold_mutex_synthesis(8)
        assert second == first
        assert kernel_stats()["memo"]["guard_formula"]["size"] == 0

    def test_guard_has_one_memo(self):
        # the shape table is the only memo in front of ``guard``
        assert not hasattr(guard, "cache_info")
        assert "guard" not in kernel_stats()["memo"]
