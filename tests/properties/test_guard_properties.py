"""Property-based tests for guards, cubes, and joint completions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.normal_form import (
    _edges_acyclic,
    expression_terms,
    joint_completion_exists,
)
from repro.algebra.traces import maximal_universe, satisfies
from repro.temporal.cubes import FALSE_GUARD, TRUE_GUARD, literal
from repro.temporal.guards import generates, guard, workflow_guards
from repro.temporal.semantics import holds

from tests.properties.strategies import (
    BASES,
    expressions,
    maximal_traces,
    signed_events,
)


def guard_exprs():
    lits = st.builds(
        literal,
        st.sampled_from(["box", "dia", "notyet"]),
        signed_events(),
    )
    leaves = st.one_of(lits, st.just(TRUE_GUARD), st.just(FALSE_GUARD))

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: ab[0] & ab[1]),
            pair.map(lambda ab: ab[0] | ab[1]),
        )

    return st.recursive(leaves, extend, max_leaves=5)


class TestCubeSemantics:
    @given(guard_exprs(), maximal_traces())
    @settings(max_examples=120, deadline=None)
    def test_cube_evaluation_matches_exact_semantics(self, g, trace):
        formula = g.to_formula()
        for i in range(len(trace) + 1):
            assert g.holds_at(trace, i) == holds(trace, i, formula)

    @given(guard_exprs(), guard_exprs())
    @settings(max_examples=80, deadline=None)
    def test_boolean_ops_preserve_semantics(self, a, b):
        # evaluate on traces maximal over every base the guards
        # mention: cube identities (e.g. !g + []g = T) only hold when
        # the base actually settles
        bases = (a.bases() | b.bases()) or frozenset(BASES[:1])
        conj, disj = a & b, a | b
        for u in maximal_universe(bases):
            for i in range(len(u) + 1):
                assert conj.holds_at(u, i) == (
                    a.holds_at(u, i) and b.holds_at(u, i)
                )
                assert disj.holds_at(u, i) == (
                    a.holds_at(u, i) or b.holds_at(u, i)
                )

    @given(guard_exprs())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_is_reflexive_under_rebuild(self, g):
        rebuilt = FALSE_GUARD
        for cube in g.cubes:
            piece = TRUE_GUARD
            for base, mask in cube:
                from repro.temporal.cubes import GuardExpr

                piece = piece & GuardExpr(frozenset({((base, mask),)}))
            rebuilt = rebuilt | piece
        assert g.equivalent(rebuilt)


class TestGuardGeneration:
    @given(st.lists(expressions(max_depth=2), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_theorem_6_on_random_workflows(self, deps):
        """Generation by guards == satisfaction of all dependencies."""
        table = workflow_guards(deps, mentioned_only=False)
        bases = set()
        for d in deps:
            bases |= d.bases()
        if not bases or len(bases) > 3:
            return
        for u in maximal_universe(bases):
            assert generates(table, u) == all(satisfies(u, d) for d in deps)

    @given(expressions(max_depth=2), signed_events())
    @settings(max_examples=60, deadline=None)
    def test_guard_of_complement_pair_covers_everything(self, dep, ev):
        """At any point, at least one of e's and ~e's guards must be
        satisfiable in the future unless the dependency is already
        violated -- a liveness sanity check: both guards permanently
        false would wedge the base."""
        g_pos = guard(dep, ev)
        g_neg = guard(dep, ev.complement)
        for u in maximal_universe(dep.bases() | {ev.base}):
            if not satisfies(u, dep):
                continue
            # on a satisfying trace, the event that the trace settles
            # must have had a true guard at its occurrence index
            signed = next(x for x in u if x.base == ev.base)
            j = list(u.events).index(signed)
            table_guard = g_pos if signed == ev else g_neg
            assert table_guard.holds_at(u, j)


class TestExpressionTerms:
    @given(expressions(max_depth=2), maximal_traces())
    @settings(max_examples=100, deadline=None)
    def test_terms_characterize_satisfaction(self, expr, trace):
        """A trace satisfies an expression iff it realizes some DNF
        term: all events present, sequence edges respected."""
        from repro.algebra.normal_form import to_normal_form

        nf = to_normal_form(expr)
        positions = {ev: i for i, ev in enumerate(trace.events)}
        realized = False
        for events, edges in expression_terms(nf):
            if not all(ev in positions for ev in events):
                continue
            if all(positions[a] < positions[b] for a, b in edges):
                realized = True
                break
        assert realized == satisfies(trace, expr)


class TestJointCompletion:
    @given(st.lists(expressions(max_depth=2), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_joint_completion_matches_exhaustive_search(self, deps):
        bases = set()
        for d in deps:
            bases |= d.bases()
        if len(bases) > 3:
            return
        exhaustive = any(
            all(satisfies(u, d) for d in deps) for u in maximal_universe(bases)
        ) if bases else all(
            satisfies(next(iter(maximal_universe(BASES[:1]))), d) or True
            for d in deps
        )
        if not bases:
            return
        assert joint_completion_exists(tuple(deps)) == exhaustive


class TestAcyclicity:
    @given(
        st.lists(
            st.tuples(signed_events(), signed_events()), max_size=6
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_edges_acyclic_matches_topological_check(self, edges):
        import networkx as nx

        graph = nx.DiGraph()
        for a, b in edges:
            graph.add_edge(a, b)
        expected = nx.is_directed_acyclic_graph(graph)
        assert _edges_acyclic(edges) == expected
