"""Guard normal form: the four-world cube algebra (paper Figure 3).

On a *maximal* trace, each base event ``e`` is, at any index, in
exactly one of four worlds:

========  =====================================================
``E_OCC``  ``e`` has occurred (``[]e`` holds)
``C_OCC``  the complement ``~e`` has occurred (``[]~e`` holds)
``P_E``    neither yet, and ``e`` will occur (``<>e | !e``)
``P_C``    neither yet, and ``~e`` will occur (``<>~e | !~e``)
========  =====================================================

Figure 3's table is precisely the truth of the six guard literals
``[]e, <>e, !e, []~e, <>~e, !~e`` as subsets of this domain:

* ``[]e  = {E_OCC}``            * ``[]~e = {C_OCC}``
* ``<>e  = {E_OCC, P_E}``       * ``<>~e = {C_OCC, P_C}``
* ``!e   = {C_OCC, P_E, P_C}``  * ``!~e  = {E_OCC, P_E, P_C}``

The truth of any conjunction of literals at a point depends only on
each base event's world, so a conjunction is a *cube* -- a mapping
from base events to 4-bit world masks -- and a guard is a union of
cubes (:class:`GuardExpr`).  Conjunction is per-event mask
intersection; all of Example 8's identities ((a)-(f)) hold by
construction; and equivalence/entailment of guards is decidable by
direct region comparison.

Worlds evolve over time only by ``P_E -> E_OCC`` and ``P_C -> C_OCC``;
``closure`` computes the future-reachable set of a mask, which is what
distinguishes *parked* (may become true) from *never* (permanently
false) during execution (Section 4.3).

Two primitives carry the algebra, and both are polynomial in the
cubes:

* :func:`_absorb` keeps every :class:`GuardExpr` canonical (no cube
  inside another, no two cubes differing in one mask only).  Cubes
  are coded as ints, so containment is one bitwise test, and merges
  are found through buckets keyed by a cube's code with one base's
  nibble cleared.
* :func:`covers` is Section 4.3's "certainly true now"
  (:meth:`GuardExpr.region_subsumes`): a cover check that restricts
  the cubes by the knowledge region and then splits on the base most
  cubes constrain, instead of walking the ``4**k`` world points.
  :func:`verdict`, beside it, is the whole fire/never/park rule.

Each has its definition next to it, kept **only** as the tests'
reference and called by nothing in ``src/``: :func:`_absorb_batch`
(the pairwise sweeps whose merge order fixes the canonical form, with
its helpers ``_cube_subsumes`` / ``_cube_merge``) and
:func:`_subset_check` (the enumerator).  :meth:`GuardExpr.entails` and
:meth:`GuardExpr.equivalent` enumerate on purpose: they are the
independent oracle of the tests and ``bench_theorems.py``.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Mapping

from repro.algebra.symbols import Event
from repro.algebra.traces import Trace
from repro.temporal.formulas import (
    Always,
    Eventually,
    NotYet,
    TAtom,
    TChoice,
    TConj,
    TFormula,
    T_TOP,
    T_ZERO,
)

E_OCC = 1
C_OCC = 2
P_E = 4
P_C = 8
FULL = E_OCC | C_OCC | P_E | P_C
EMPTY = 0

#: Masks of the six guard literals on a *positive* base event.
BOX_MASK = E_OCC
BOX_COMP_MASK = C_OCC
DIA_MASK = E_OCC | P_E
DIA_COMP_MASK = C_OCC | P_C
NOTYET_MASK = C_OCC | P_E | P_C
NOTYET_COMP_MASK = E_OCC | P_E | P_C


def flip(mask: int) -> int:
    """Swap the roles of event and complement in a mask."""
    out = 0
    if mask & E_OCC:
        out |= C_OCC
    if mask & C_OCC:
        out |= E_OCC
    if mask & P_E:
        out |= P_C
    if mask & P_C:
        out |= P_E
    return out


def closure(mask: int) -> int:
    """Worlds reachable from ``mask`` as the trace extends.

    ``P_E`` may resolve to ``E_OCC`` and ``P_C`` to ``C_OCC``; occurred
    worlds are absorbing (stability, Semantics 7).
    """
    out = mask
    if mask & P_E:
        out |= E_OCC
    if mask & P_C:
        out |= C_OCC
    return out


_LITERAL_MASKS = {"box": BOX_MASK, "dia": DIA_MASK, "notyet": NOTYET_MASK}
_LITERAL_CACHE: dict = {}


def literal(kind: str, event: Event) -> "GuardExpr":
    """Build a single-literal guard: ``kind`` is ``box``/``dia``/``notyet``.

    The event may be a complement; the literal is stored against the
    positive base with a flipped mask.  Literals are pure values and
    synthesis requests the same ones over and over, so they are cached.

    >>> from repro.algebra.symbols import Event
    >>> literal("notyet", Event("f"))
    !f
    """
    key = (kind, event)
    found = _LITERAL_CACHE.get(key)
    if found is not None:
        return found
    mask = _LITERAL_MASKS.get(kind)
    if mask is None:
        raise ValueError(f"unknown literal kind: {kind!r}")
    if event.negated:
        mask = flip(mask)
    found = _canonical_guard(frozenset({((event.base, mask),)}))
    _LITERAL_CACHE[key] = found
    return found


Cube = tuple[tuple[Event, int], ...]


def _make_cube(entries: Mapping[Event, int]) -> Cube | None:
    """Canonicalize a cube; ``None`` means the empty (false) cube."""
    items = []
    for base, mask in entries.items():
        if mask == EMPTY:
            return None
        if mask != FULL:
            items.append((base, mask))
    items.sort(key=lambda item: item[0].sort_key())
    return tuple(items)


def _cube_key(cube: Cube) -> tuple:
    """Sort key of a cube: the order tuple comparison gives, decided on
    the events' sort keys so that no comparison runs Python code."""
    return tuple([(base.sort_key(), mask) for base, mask in cube])


class GuardExpr:
    """A guard as a union of cubes over the four-world domain.

    The public constructors are :func:`literal`, :data:`TRUE_GUARD`,
    :data:`FALSE_GUARD`, and the ``&`` / ``|`` operators (conjunction
    and disjunction as in the paper's ``|`` and ``+``).  Instances are
    immutable and canonical enough for equality to imply semantic
    equality (full semantic equality is :meth:`equivalent`).
    """

    __slots__ = ("cubes", "_hash", "_bases", "_sbases", "_scubes")

    def __init__(self, cubes: frozenset[Cube]):
        object.__setattr__(self, "cubes", _absorb(cubes))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_bases", None)
        object.__setattr__(self, "_sbases", None)
        object.__setattr__(self, "_scubes", None)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("GuardExpr is immutable")

    # -- predicates ---------------------------------------------------

    @property
    def is_true(self) -> bool:
        return self.cubes == frozenset({()})

    @property
    def is_false(self) -> bool:
        return not self.cubes

    def bases(self) -> frozenset[Event]:
        cached = self._bases
        if cached is None:
            cached = frozenset(base for cube in self.cubes for base, _ in cube)
            object.__setattr__(self, "_bases", cached)
        return cached

    def _sorted_bases(self) -> tuple[Event, ...]:
        cached = self._sbases
        if cached is None:
            cached = tuple(sorted(self.bases(), key=Event.sort_key))
            object.__setattr__(self, "_sbases", cached)
        return cached

    def sorted_cubes(self) -> tuple[Cube, ...]:
        """The cubes in canonical order.  Loops that stop at the first
        cube that answers, or reach a message or a trace, iterate this
        and never the set, whose order follows the events' addresses."""
        cached = self._scubes
        if cached is None:
            cached = tuple(sorted(self.cubes, key=_cube_key))
            object.__setattr__(self, "_scubes", cached)
        return cached

    # -- boolean algebra ----------------------------------------------

    def __and__(self, other: "GuardExpr") -> "GuardExpr":
        # Exact short-circuits: 0 annihilates, T is the unit, and the
        # product of a canonical set with itself is itself (idempotent,
        # and ``_absorb`` of a canonical set is the identity).
        if not self.cubes or not other.cubes:
            return FALSE_GUARD
        if () in self.cubes:
            return other
        if () in other.cubes:
            return self
        if self.cubes == other.cubes:
            return self
        if len(self.cubes) == 1 and len(other.cubes) == 1:
            # the product of two cubes is one cube (or dead), already
            # canonical -- identical to the general path, absorb-free
            (left,) = self.cubes
            (right,) = other.cubes
            cube = _cube_product(left, right)
            if cube is None:
                return FALSE_GUARD
            return _canonical_guard(frozenset({cube}))
        out: set[Cube] = set()
        for left in self.cubes:
            for right in other.cubes:
                cube = _cube_product(left, right)
                if cube is not None:
                    out.add(cube)
        return GuardExpr(frozenset(out))

    def __or__(self, other: "GuardExpr") -> "GuardExpr":
        # Exact short-circuits: 0 is the unit, T absorbs, and when one
        # canonical cube set contains the other, absorption of the
        # union returns the larger set unchanged.
        if not self.cubes:
            return other
        if not other.cubes:
            return self
        if () in self.cubes or () in other.cubes:
            return TRUE_GUARD
        if self.cubes >= other.cubes:
            return self
        if other.cubes >= self.cubes:
            return other
        return GuardExpr(self.cubes | other.cubes)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, GuardExpr) and other.cubes == self.cubes

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("GuardExpr", self.cubes))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- semantics ----------------------------------------------------

    def holds_at(self, trace: Trace, index: int) -> bool:
        """Evaluate the guard at a point of a maximal trace.

        Each base of a maximal trace has exactly one world at the
        point, so a nonzero mask intersection means membership.  Bases
        the guard mentions but the trace never settles would make the
        trace non-maximal; they evaluate as outside every literal.
        """
        worlds = worlds_at(trace, index)
        return _point_in(self.cubes, worlds)

    def region_subsumes(self, knowledge: Mapping[Event, int]) -> bool:
        """Is every world combination allowed by ``knowledge`` inside the guard?

        ``knowledge`` maps base events to the set of worlds they might
        currently be in (bases absent from the map are unconstrained).
        This is the "guard is certainly true now" test of Section 4.3.
        """
        return covers(self.sorted_cubes(), knowledge)

    def possible_under(self, knowledge: Mapping[Event, int]) -> bool:
        """Can the guard still become true, given knowledge closures?

        False means the guard is *permanently* false: the event can
        never occur (its actor should reject attempts outright rather
        than park them).
        """
        return reachable(self.sorted_cubes(), knowledge)

    def simplify_under(self, knowledge: Mapping[Event, int]) -> "GuardExpr":
        """Assimilate knowledge: the paper's proof rules of Section 4.3.

        Receiving ``[]f`` sets knowledge ``{E_OCC}`` for ``f``: any
        literal whose mask covers the closure becomes ``T`` (dropped
        from its cube) and any literal whose mask misses the closure
        kills its cube -- exactly "``[]e`` reduces ``[]e``/``<>e`` to
        ``T`` and ``!e`` to ``0``; ``[]e``/``<>e`` reduce to ``0`` and
        ``!e`` to ``T`` when ``[]~e`` or ``<>~e`` is received; ``[]e``
        and ``!e`` are unaffected by ``<>e``".
        """
        if not knowledge or not self.cubes or () in self.cubes:
            return self
        out: set[Cube] = set()
        for cube in self.cubes:
            entries: dict[Event, int] = {}
            dead = False
            for base, mask in cube:
                known = knowledge.get(base)
                if known is None:
                    entries[base] = mask
                    continue
                reach = closure(known)
                if reach & mask == 0:
                    dead = True
                    break
                if reach & mask != reach:
                    entries[base] = mask
                # else: the literal is guaranteed from now on -> T.
            if dead:
                continue
            cube2 = _make_cube(entries)
            if cube2 is not None:
                out.add(cube2)
        return GuardExpr(frozenset(out))

    def rename(self, mapping: Mapping[Event, Event]) -> "GuardExpr":
        """Substitute base events through ``mapping`` (positive bases on
        both sides; bases absent from the map are kept).

        This is the template-instantiation fast path: stamping out the
        guards of a suffixed workflow instance costs one pass over the
        cubes instead of a fresh synthesis.  For an *injective* map the
        result skips re-absorption: subsumption and one-difference
        merging depend only on base identity and masks, so a cube set
        at the ``_absorb`` fixpoint stays at the fixpoint under any
        injective renaming.  A non-injective map can collide two bases
        inside one cube; colliding masks intersect (the conjunctive
        reading) and the result is re-canonicalized.
        """
        if not self.cubes or () in self.cubes or not mapping:
            return self
        renamed: set[Cube] = set()
        collided = False
        for cube in self.cubes:
            entries: dict[Event, int] = {}
            for base, mask in cube:
                target = mapping.get(base, base)
                prior = entries.get(target)
                if prior is None:
                    entries[target] = mask
                else:
                    collided = True
                    entries[target] = prior & mask
            cube2 = _make_cube(entries)
            if cube2 is not None:
                renamed.add(cube2)
        if collided:
            return GuardExpr(frozenset(renamed))
        return _canonical_guard(frozenset(renamed))

    def equivalent(self, other: "GuardExpr") -> bool:
        """Exact region equality over the union of mentioned bases."""
        bases = sorted(self.bases() | other.bases(), key=Event.sort_key)
        return _regions_equal(self.cubes, other.cubes, bases)

    def entails(self, other: "GuardExpr") -> bool:
        bases = sorted(self.bases() | other.bases(), key=Event.sort_key)
        for worlds in _world_points(bases):
            if _point_in(self.cubes, worlds) and not _point_in(other.cubes, worlds):
                return False
        return True

    # -- conversion / display ------------------------------------------

    def to_formula(self) -> TFormula:
        """Render as a ``T`` formula for the exact-semantics checker."""
        if self.is_false:
            return T_ZERO
        if self.is_true:
            return T_TOP
        return TChoice.of(
            [
                TConj.of([_mask_formula(base, mask) for base, mask in cube])
                for cube in self.sorted_cubes()
            ]
        )

    def __repr__(self) -> str:
        if self.is_false:
            return "0"
        if self.is_true:
            return "T"
        rendered = []
        for cube in self.sorted_cubes():
            parts = [_mask_text(base, mask) for base, mask in cube]
            text = " | ".join(parts)
            rendered.append(f"({text})" if len(parts) > 1 else text)
        return " + ".join(rendered)

    def cube_count(self) -> int:
        return len(self.cubes)

    def literal_count(self) -> int:
        return sum(len(cube) for cube in self.cubes)


def _canonical_guard(cubes: frozenset[Cube]) -> GuardExpr:
    """Build a :class:`GuardExpr` from an already-canonical cube set,
    skipping ``_absorb`` (callers guarantee a fixpoint, e.g. a single
    non-empty cube)."""
    self = object.__new__(GuardExpr)
    object.__setattr__(self, "cubes", cubes)
    object.__setattr__(self, "_hash", None)
    object.__setattr__(self, "_bases", None)
    object.__setattr__(self, "_sbases", None)
    object.__setattr__(self, "_scubes", None)
    return self


def clear_literal_cache() -> None:
    """Drop the cached literals (they are built anew on next request)."""
    _LITERAL_CACHE.clear()


def guard_or(items: Iterable[GuardExpr]) -> GuardExpr:
    out = FALSE_GUARD
    for item in items:
        out = out | item
    return out


def guard_and(items: Iterable[GuardExpr]) -> GuardExpr:
    out = TRUE_GUARD
    for item in items:
        out = out & item
    return out


# -- internals ---------------------------------------------------------


_TOP_CUBES: frozenset[Cube] = frozenset({()})


def _absorb(cubes: frozenset[Cube]) -> frozenset[Cube]:
    """Drop subsumed cubes and merge cubes differing in one event only.

    The canonical form every :class:`GuardExpr` stores: cube for cube
    the fixpoint :func:`_absorb_batch` (the tests' reference, which
    spells the pass structure out) reaches, without its pairwise
    rescans.  Each cube is coded as one int, a nibble per base holding
    the worlds its literal *rejects* (zero where unconstrained), so
    "``b``'s region contains ``a``'s" is ``b & ~a == 0`` and the
    absorption sweep -- whose result is the unique antichain of
    maximal cubes, whatever the order -- costs no tuple walk.
    """
    if len(cubes) < 2:
        return cubes
    if () in cubes:
        return _TOP_CUBES
    shifts: dict[Event, int] = {}
    coded: dict[int, tuple[int, Cube]] = {}
    for cube in cubes:
        code = support = 0
        for base, mask in cube:
            shift = shifts.get(base)
            if shift is None:
                shift = shifts[base] = 4 * len(shifts)
            code |= (mask ^ FULL) << shift
            support |= FULL << shift
        coded[code] = support, cube
    alive: dict[int, Cube] = {}
    supports = set()
    for code, (support, cube) in coded.items():
        for other in coded:
            if not other & ~code and other != code:
                break
        else:
            alive[code] = cube
            supports.add(support)
    if len(supports) < len(alive):
        # only cubes constraining the same bases can merge
        _merge_indexed(alive, shifts)
    if len(alive) == len(cubes):
        return cubes  # a drop or a merge shrinks the set: nothing happened
    return frozenset(alive.values())


def _merge_indexed(alive: dict[int, Cube], shifts: Mapping[Event, int]) -> None:
    """Run the batch's merges, in the batch's order, on a coded antichain.

    On an antichain :func:`_cube_merge` and the batch's ``merged != a
    and merged != b`` test accept exactly the pairs with one support
    whose masks differ at one base, so every cube is filed under its
    code with one constrained nibble cleared: the cubes of one bucket
    merge pairwise, cubes of different buckets never do.  The batch
    takes the first mergeable pair of ``sorted(work)``, which is the
    least ``(smallest, second smallest)`` over the buckets holding two
    cubes or more; after a merge nothing subsumes the merged cube and
    only the merged cube subsumes anything else, so the antichain is
    repaired by one scan instead of a restart.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    crowded: set[tuple[int, int]] = set()

    def file(code: int, entering: bool) -> None:
        rest, shift = code, 0
        while rest:
            if rest & FULL:
                key = (code ^ ((rest & FULL) << shift), shift)
                members = buckets.get(key)
                if not entering:
                    members.remove(code)
                    if len(members) == 1:
                        crowded.discard(key)
                elif members:
                    members.append(code)
                    crowded.add(key)
                else:
                    buckets[key] = [code]
            rest >>= 4
            shift += 4

    for code in alive:
        file(code, True)
    while crowded:
        # within a bucket cubes differ in one mask only, and a smaller
        # mask rejects more: tuple order is descending code order
        pair = None
        for key in crowded:
            second, first = sorted(buckets[key])[-2:]
            candidate = (
                _cube_key(alive[first]), _cube_key(alive[second]),
                key, first, second,
            )
            if pair is None or candidate < pair:
                pair = candidate
        _, _, (hole, shift), first, second = pair
        smallest, both = alive[first], first & second
        merged = hole | (both & (FULL << shift))
        union = FULL ^ (merged >> shift & FULL)
        cube = []
        for base, mask in smallest:
            if shifts[base] != shift:
                cube.append((base, mask))
            elif union != FULL:
                cube.append((base, union))
        for code in [code for code in alive if not merged & ~code]:
            del alive[code]
            file(code, False)
        alive[merged] = tuple(cube)
        file(merged, True)


def _absorb_batch(cubes: frozenset[Cube]) -> frozenset[Cube]:
    """The tests' reference for :func:`_absorb`: the pass structure
    that *defines* the canonical form, run pairwise.

    An absorption sweep, then the first mergeable pair of the sorted
    view, restarted until neither changes anything.  Nothing in
    ``src/`` calls it.
    """
    work = set(cubes)
    if () in work:
        return frozenset({()})
    if len(work) <= 1:
        return frozenset(work)
    changed = True
    while changed:
        changed = False
        items = sorted(work, key=_cube_key)
        # absorption: cube A subsumed by cube B when B's region contains A's
        for a in items:
            if a not in work:
                continue
            for b in items:
                if a is b or b not in work:
                    continue
                # b's region can only contain a's when b constrains a
                # subset of a's bases (a missing base reads as FULL)
                if len(b) > len(a):
                    continue
                if _cube_subsumes(b, a):
                    work.discard(a)
                    changed = True
                    break
        # merge: identical support except one base -> union that mask
        items = sorted(work, key=_cube_key)
        for i, a in enumerate(items):
            if a not in work:
                continue
            for b in items[i + 1:]:
                if b not in work:
                    continue
                # at most one differing key bounds the support sizes
                if len(a) - len(b) > 1 or len(b) - len(a) > 1:
                    continue
                merged = _cube_merge(a, b)
                if merged is not None and merged != a and merged != b:
                    work.discard(a)
                    work.discard(b)
                    work.add(merged)
                    changed = True
                    break
            else:
                continue
            break
        if () in work:
            return frozenset({()})
    return frozenset(work)


def _cube_product(left: Cube, right: Cube) -> Cube | None:
    """Intersect two canonical cubes; ``None`` when the result is empty.

    A merge-join over the sorted entries: shared bases intersect their
    masks (an ``EMPTY`` intersection kills the cube), one-sided bases
    carry over.  Masks never become ``FULL`` (both inputs store only
    non-``FULL`` masks and intersection only shrinks), so the result is
    canonical without re-sorting.
    """
    if not left:
        return right
    if not right:
        return left
    out: list[tuple[Event, int]] = []
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        bl, ml = left[i]
        br, mr = right[j]
        if bl is br:
            combined = ml & mr
            if combined == EMPTY:
                return None
            out.append((bl, combined))
            i += 1
            j += 1
        elif bl.sort_key() < br.sort_key():
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out)


def _cube_subsumes(big: Cube, small: Cube) -> bool:
    """True when ``big``'s region contains ``small``'s region.

    Requires ``small``'s mask within ``big``'s for every base ``big``
    constrains (a base missing from ``small`` reads as ``FULL`` and
    always escapes a non-``FULL`` constraint)."""
    j = 0
    ns = len(small)
    for base, mask in big:
        key = base.sort_key()
        while j < ns and small[j][0].sort_key() < key:
            j += 1
        if j >= ns or small[j][0] != base:
            return False
        if small[j][1] & ~mask & FULL:
            return False
        j += 1
    return True


def _cube_merge(a: Cube, b: Cube) -> Cube | None:
    """Union two cubes when they differ in at most one base's mask.

    A base present on one side only counts as a difference against the
    other side's implicit ``FULL``; the merged mask is then ``FULL``
    and drops out of the cube."""
    out: list[tuple[Event, int]] = []
    diffs = 0
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ba, ma = a[i]
        bb, mb = b[j]
        if ba is bb:
            if ma == mb:
                out.append((ba, ma))
            else:
                diffs += 1
                if diffs > 1:
                    return None
                union = ma | mb
                if union != FULL:
                    out.append((ba, union))
            i += 1
            j += 1
        elif ba.sort_key() < bb.sort_key():
            diffs += 1
            if diffs > 1:
                return None
            i += 1  # union with implicit FULL -> unconstrained
        else:
            diffs += 1
            if diffs > 1:
                return None
            j += 1
    diffs += (na - i) + (nb - j)
    if diffs > 1:
        return None
    if diffs == 0:
        return a
    return tuple(out)


_WORLDS = (E_OCC, C_OCC, P_E, P_C)

#: ``_OUTSIDE[mask]``: positions in ``_WORLDS`` of the worlds not in ``mask``.
_OUTSIDE = tuple(
    tuple(slot for slot, world in enumerate(_WORLDS) if not mask & world)
    for mask in range(FULL + 1)
)


def covers(cubes: Collection[Cube], knowledge: Mapping) -> bool:
    """Is every world point ``knowledge`` allows inside the union of ``cubes``?

    The cover check behind :meth:`GuardExpr.region_subsumes`, equal on
    every input to the enumerator :func:`_subset_check` but branching
    on the cubes' structure instead of walking the ``4**k`` points.
    Bases only need ``hash``/``==``, so the string-keyed regions of
    :mod:`repro.obs.provenance` go through it too.

    First the cubes are restricted by the region: one that misses it
    is dropped, one whose every literal covers its base's region
    contains it, and fewer than two of the others leave a point out
    (each has a literal that does).  What is left is numbered, and a
    base becomes a *column* holding, for each world its knowledge
    allows, the set (an int, one bit per cube) of cubes whose literal
    rejects that world.  A point is outside the union exactly when the
    rejecting sets it picks, one per column, add up to every cube,
    which :func:`_some_cube_admits` decides by splitting.
    """
    if knowledge and EMPTY in knowledge.values():
        for cube in cubes:
            for base, _ in cube:
                if knowledge.get(base) == EMPTY:
                    # no consistent point at all: vacuously inside (the
                    # enumerator's answer for any base the cubes mention)
                    return True
    partial = []
    for cube in cubes:
        contains = True
        for base, mask in cube:
            known = knowledge.get(base, FULL) if knowledge else FULL
            if not known & mask:
                break
            if known & ~mask:
                contains = False
        else:
            if contains:
                return True
            partial.append(cube)
    if len(partial) < 2:
        return False
    columns: dict = {}
    bit = 1
    for cube in partial:
        for base, mask in cube:
            column = columns.get(base)
            if column is None:
                column = columns[base] = [0, 0, 0, 0]
            for slot in _OUTSIDE[mask]:
                column[slot] |= bit
        bit <<= 1
    if knowledge:
        for base, column in columns.items():
            known = knowledge.get(base, FULL)
            if known != FULL:
                columns[base] = [
                    column[slot] for slot in _OUTSIDE[known ^ FULL]
                ]
    return _some_cube_admits(bit - 1, list(columns.values()))


def reachable(cubes: Iterable[Cube], knowledge: Mapping) -> bool:
    """Can some cube still hold once each base's world moves on from
    what ``knowledge`` allows (its :func:`closure`)?"""
    for cube in cubes:
        if all(
            closure(knowledge.get(base, FULL)) & mask for base, mask in cube
        ):
            return True
    return False


def verdict(cubes: Collection[Cube], knowledge: Mapping) -> str:
    """Section 4.3's evaluation rule: ``"fire"`` when the cubes cover
    every point ``knowledge`` allows, ``"never"`` when no cube is
    :func:`reachable`, else ``"park"``.  One rule for the roles' guard
    cursors and for the string-keyed regions of ``repro explain``."""
    if covers(cubes, knowledge):
        return "fire"
    if not reachable(cubes, knowledge):
        return "never"
    return "park"


def _some_cube_admits(alive: int, columns: list) -> bool:
    """Does every choice of one world class per column leave a cube of
    ``alive`` that no chosen class rejects?

    ``columns`` holds, per base, the rejecting sets of its allowed
    worlds; equal sets are one class: the base's worlds grouped by
    which cubes admit them (at most four classes, usually two).  No
    cube left means the point is outside; a cube no column constrains
    contains every remaining point; a lone constrained cube has a
    world outside it.  Otherwise split on the base most cubes
    constrain and require every class's admitting cubes to cover the
    remaining columns.
    """
    if not alive:
        return False
    constrained = 0
    most = 0
    for column in columns:
        touched = 0
        for rejects in column:
            touched |= rejects
        touched &= alive
        if touched:
            constrained |= touched
            count = touched.bit_count()
            if count > most:
                most = count
                pivot = column
    if alive & ~constrained:
        return True
    if not alive & (alive - 1):
        return False
    rest = [column for column in columns if column is not pivot]
    split = []
    for rejects in pivot:
        rejects &= alive
        if rejects not in split:
            split.append(rejects)
            if not _some_cube_admits(alive & ~rejects, rest):
                return False
    return True


def _point_in(cubes: frozenset[Cube], worlds: Mapping[Event, int]) -> bool:
    return any(
        all(worlds.get(base, 0) & mask for base, mask in cube) for cube in cubes
    )


def _world_points(bases: list[Event]) -> Iterator[dict[Event, int]]:
    if not bases:
        yield {}
        return
    head, rest = bases[0], bases[1:]
    for sub in _world_points(rest):
        for world in _WORLDS:
            point = dict(sub)
            point[head] = world
            yield point


def _regions_equal(left: frozenset[Cube], right: frozenset[Cube], bases) -> bool:
    for worlds in _world_points(list(bases)):
        if _point_in(left, worlds) != _point_in(right, worlds):
            return False
    return True


def _subset_check(cubes: frozenset[Cube], bases: list[Event], knowledge) -> bool:
    """Every world point consistent with ``knowledge`` is inside the union.

    The tests' reference for :func:`covers`: the definition, by
    enumeration of all ``4**len(bases)`` points.  Nothing in ``src/``
    calls it."""
    if not cubes:
        return False
    if () in cubes:
        return True
    for worlds in _world_points(bases):
        consistent = all(
            worlds[base] & knowledge.get(base, FULL) for base in bases
        )
        if consistent and not _point_in(cubes, worlds):
            return False
    return True


def worlds_at(trace: Trace, index: int) -> dict[Event, int]:
    """The world of every base event of a maximal trace at ``index``."""
    worlds: dict[Event, int] = {}
    for pos, event in enumerate(trace.events):
        occurred = pos < index
        if event.negated:
            worlds[event.base] = C_OCC if occurred else P_C
        else:
            worlds[event.base] = E_OCC if occurred else P_E
    return worlds


_MASK_TEXT = {
    EMPTY: "0",
    E_OCC: "[]{e}",
    C_OCC: "[]~{e}",
    E_OCC | C_OCC: "([]{e} + []~{e})",
    P_E: "(<>{e} | !{e})",
    E_OCC | P_E: "<>{e}",
    C_OCC | P_E: "([]~{e} + (<>{e} | !{e}))",
    E_OCC | C_OCC | P_E: "([]~{e} + <>{e})",
    P_C: "(<>~{e} | !~{e})",
    E_OCC | P_C: "([]{e} + (<>~{e} | !~{e}))",
    C_OCC | P_C: "<>~{e}",
    E_OCC | C_OCC | P_C: "([]{e} + <>~{e})",
    P_E | P_C: "(!{e} | !~{e})",
    E_OCC | P_E | P_C: "!~{e}",
    C_OCC | P_E | P_C: "!{e}",
    FULL: "T",
}


def _mask_text(base: Event, mask: int) -> str:
    return _MASK_TEXT[mask].format(e=repr(base))


def mask_text(name: str, mask: int) -> str:
    """Render the literal ``world(name) in mask`` in guard syntax.

    Like the internal :func:`_mask_text` but over a plain event *name*,
    so offline tooling (trace-based provenance) can render literals
    without reconstructing :class:`~repro.algebra.symbols.Event`
    objects."""
    return _MASK_TEXT[mask].format(e=name)


def classify_mask(known: int, mask: int) -> str:
    """Status of the literal ``mask`` under the knowledge mask ``known``.

    The literal-level evaluation rule behind Section 4.3's verdicts:

    * ``"satisfied"`` -- every world reachable from ``known`` (its
      :func:`closure`) lies inside ``mask``: the literal holds now and
      forever, no further announcement can unmake it;
    * ``"blocked"`` -- no reachable world lies inside ``mask``: the
      literal can never hold again;
    * ``"pending"`` -- some but not all reachable worlds are inside:
      future announcements decide it.

    A cube fires exactly when all its literals are satisfied, and is
    dead exactly when any literal is blocked, so this is the atom the
    provenance engine's explanations are built from.
    """
    reach = closure(known)
    if reach & mask == 0:
        return "blocked"
    if reach & ~mask & FULL == 0:
        return "satisfied"
    return "pending"


def _mask_formula(base: Event, mask: int) -> TFormula:
    """The exact ``T`` formula denoting ``world(base) in mask``."""
    atom = TAtom(base)
    comp = TAtom(base.complement)
    pieces = {
        E_OCC: Always(atom),
        C_OCC: Always(comp),
        P_E: TConj.of([Eventually(atom), NotYet(atom)]),
        P_C: TConj.of([Eventually(comp), NotYet(comp)]),
    }
    selected = [piece for bit, piece in pieces.items() if mask & bit]
    if not selected:
        return T_ZERO
    if len(selected) == 4:
        return T_TOP
    return TChoice.of(selected)


#: The guard ``T`` (one empty cube: every world point is inside).
TRUE_GUARD = GuardExpr(frozenset({()}))

#: The guard ``0`` (no cube: no world point is inside).
FALSE_GUARD = GuardExpr(frozenset())
