"""The polynomial cube kernel equals its references, input for input.

``repro.temporal.cubes`` keeps two definitions in the module purely as
oracles: ``_subset_check`` (walk all ``4**k`` world points) for the
cover check ``covers`` behind ``GuardExpr.region_subsumes``, and
``_absorb_batch`` (pairwise sweeps restarted after every merge) for the
indexed ``_absorb`` that canonicalizes every ``GuardExpr``.  The
production functions must agree with them *exactly*: the cover check
on the verdict, the absorb cube for cube -- guard tables, traces and
digests are byte-compared across commits, so an equivalent but
different fixpoint is a failure.
"""

from contextlib import contextmanager

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.symbols import Event
from repro.temporal import cubes
from repro.temporal.cubes import (
    FALSE_GUARD,
    FULL,
    TRUE_GUARD,
    GuardExpr,
    _absorb,
    _absorb_batch,
    _make_cube,
    _subset_check,
    clear_literal_cache,
    covers,
)
from repro.temporal.guards import clear_synthesis_caches, workflow_guards
from repro.workloads.scenarios import (
    make_mutex_family,
    make_order_fulfillment,
    make_travel_booking,
)

BASES = [Event(name) for name in "abcdef"]

#: every canonical literal mask (``EMPTY`` kills a cube, ``FULL`` drops out)
literal_masks = st.integers(min_value=1, max_value=FULL - 1)


def cube_sets(max_cubes):
    """Sets of canonical cubes over ``BASES`` (the empty cube included:
    it is ``T`` and must swallow everything else)."""
    cube = st.dictionaries(
        st.sampled_from(BASES), literal_masks, max_size=len(BASES)
    ).map(_make_cube)
    return st.frozensets(cube, max_size=max_cubes)


#: knowledge over the guard's bases *and* foreign ones, any mask at all:
#: ``0`` is the vacuous region, ``FULL`` says nothing
knowledge_maps = st.dictionaries(
    st.sampled_from(BASES + [Event("x"), Event("y")]),
    st.integers(min_value=0, max_value=FULL),
)


def enumerated(cube_set, knowledge):
    bases = sorted(
        {base for cube in cube_set for base, _ in cube}, key=Event.sort_key
    )
    return _subset_check(cube_set, bases, knowledge)


class TestCoverCheck:
    @given(cube_set=cube_sets(6), knowledge=knowledge_maps)
    def test_covers_equals_enumerator(self, cube_set, knowledge):
        assert covers(cube_set, knowledge) == enumerated(cube_set, knowledge)

    @given(cube_set=cube_sets(6), knowledge=knowledge_maps)
    def test_region_subsumes_equals_enumerator(self, cube_set, knowledge):
        guard = GuardExpr(cube_set)
        assert guard.region_subsumes(knowledge) == enumerated(
            guard.cubes, knowledge
        )

    @given(knowledge=knowledge_maps)
    def test_constants(self, knowledge):
        assert TRUE_GUARD.region_subsumes(knowledge)
        assert not FALSE_GUARD.region_subsumes(knowledge)

    @given(cube_set=cube_sets(1), knowledge=knowledge_maps)
    def test_single_cube(self, cube_set, knowledge):
        assert covers(cube_set, knowledge) == enumerated(cube_set, knowledge)

    @given(
        cube_set=cube_sets(4),
        vacuous=st.sampled_from(BASES),
        knowledge=knowledge_maps,
    )
    def test_vacuous_region_follows_the_enumerator(
        self, cube_set, vacuous, knowledge
    ):
        """An empty mask on a base the cubes mention leaves no
        consistent point (vacuously inside), wherever in its cube the
        literal sits; on a base they do not mention it is ignored."""
        knowledge = {**knowledge, vacuous: 0}
        assert covers(cube_set, knowledge) == enumerated(cube_set, knowledge)

    @given(cube_set=cube_sets(5), knowledge=knowledge_maps)
    def test_string_keys(self, cube_set, knowledge):
        # obs.provenance goes through the same function over names
        named = [[(repr(b), m) for b, m in cube] for cube in cube_set]
        known = {repr(b): m for b, m in knowledge.items()}
        assert covers(named, known) == enumerated(cube_set, knowledge)


@contextmanager
def batch_kernel():
    """Every ``GuardExpr`` built inside canonicalizes through the
    batch reference."""
    clear_literal_cache()
    cubes._absorb = _absorb_batch
    try:
        yield
    finally:
        cubes._absorb = _absorb
        clear_literal_cache()


#: subsets of the 4 x 4 x 4 grid of single-world cubes over one
#: support: most cubes have partners at several bases, so which pair
#: merges first decides the fixpoint (a third of such sets tell the
#: batch's order from its reverse)
crowded_sets = st.frozensets(
    st.tuples(*[st.sampled_from(cubes._WORLDS)] * 3).map(
        lambda masks: tuple(zip(BASES[:3], masks))
    ),
    max_size=12,
)

guards = st.one_of(cube_sets(6), crowded_sets).map(GuardExpr)


class TestIndexedAbsorb:
    @given(cube_set=st.one_of(cube_sets(12), crowded_sets))
    def test_absorb_equals_batch_cube_for_cube(self, cube_set):
        assert _absorb(cube_set) == _absorb_batch(cube_set)

    @given(left=guards, right=guards)
    def test_and_or_unchanged(self, left, right):
        product, union = left & right, left | right
        with batch_kernel():
            assert (left & right).cubes == product.cubes
            assert (left | right).cubes == union.cubes

    @given(guard=guards, knowledge=knowledge_maps)
    def test_simplify_under_unchanged(self, guard, knowledge):
        simplified = guard.simplify_under(knowledge)
        with batch_kernel():
            assert guard.simplify_under(knowledge).cubes == simplified.cubes

    @given(
        guard=guards,
        targets=st.lists(
            st.sampled_from(BASES[:3]),
            min_size=len(BASES), max_size=len(BASES),
        ),
    )
    def test_non_injective_rename_unchanged(self, guard, targets):
        mapping = dict(zip(BASES, targets))
        renamed = guard.rename(mapping)
        with batch_kernel():
            assert guard.rename(mapping).cubes == renamed.cubes

    def test_every_synthesis_input_reaches_the_batch_fixpoint(self):
        """Not a sample: each cube set ``_absorb`` sees while the
        mutex family, the travel table in both readings and the order
        table are synthesized cold.  (Another mutex cluster size adds
        almost nothing: its copies share the family's four closures.)"""
        seen = []

        def recording(cube_set):
            seen.append(cube_set)
            return _absorb(cube_set)

        clear_synthesis_caches()
        clear_literal_cache()
        cubes._absorb = recording
        try:
            family = make_mutex_family(12, cluster=4)
            workflow_guards(family.merged()[0].dependencies)
            travel = make_travel_booking().workflow.dependencies
            workflow_guards(travel)
            workflow_guards(travel, mentioned_only=False)
            workflow_guards(make_order_fulfillment().workflow.dependencies)
        finally:
            cubes._absorb = _absorb
            clear_synthesis_caches()
        assert len(seen) > 500 and max(map(len, seen)) > 16
        for cube_set in seen:
            assert _absorb(cube_set) == _absorb_batch(cube_set)
