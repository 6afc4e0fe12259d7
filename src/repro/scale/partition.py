"""Shard placement: the planning half of a sharded run.

Independent instances can go anywhere; instances coupled by
cross-instance dependencies must run *together*, because a dependency
is enforced by the one scheduler that holds all its events (the
paper's rule: an event's guard conjoins ``G(D, e)`` over every
dependency mentioning it, and one actor per base enforces it).  So the
unit of placement is the coupled *component*: the connected components
of the instances under "a cross dependency mentions them".  Components
are placed in order of their smallest member, each whole onto the
lightest-loaded shard (fewest instances), ties to the lower shard
number.  An uncoupled family is therefore dealt round robin (instance
``i`` on shard ``i mod shards``), every dependency has exactly one
owning shard, and a plan is a pure function of ``(instances, shards,
cross_deps)``.

Everything here is *planning*: no scheduler state, no simulation and
no guard synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event


class SuffixIndex:
    """Instance suffixes indexed for :func:`instance_of`, built once
    per plan: ``{suffix: first index}`` plus the distinct suffix
    lengths, longest first."""

    def __init__(self, suffixes: Sequence[str]):
        self.first: dict[str, int] = {}
        for index, suffix in enumerate(suffixes):
            if suffix:
                self.first.setdefault(suffix, index)
        self.lengths = sorted({len(s) for s in self.first}, reverse=True)


def _indexed(given: Sequence[str] | SuffixIndex) -> SuffixIndex:
    return given if isinstance(given, SuffixIndex) else SuffixIndex(given)


def instance_of(
    base: Event, suffixes: Sequence[str] | SuffixIndex
) -> int | None:
    """Map a (suffixed) base event to its instance index.

    Longest-suffix match, so overlapping suffixes (``_i1`` vs
    ``_i11``) resolve to the more specific instance; a suffix listed
    twice resolves to its first index.  Returns None for events that
    belong to no instance (template-level or foreign).
    """
    suffixes = _indexed(suffixes)
    name = base.base.name
    for length in suffixes.lengths:
        index = suffixes.first.get(name[-length:])
        if index is not None:
            return index
    return None


def dependency_instances(
    dep: Expr, suffixes: Sequence[str] | SuffixIndex
) -> frozenset[int]:
    """The instances a cross dependency mentions."""
    return frozenset(_owners(dep, _indexed(suffixes)).values()) - {None}


def _owners(dep: Expr, suffixes: SuffixIndex) -> dict[Event, int | None]:
    """``dep``'s base -> instance map (None: the base is no instance's)."""
    return {base: instance_of(base, suffixes) for base in dep.bases()}


def connected_components(
    n: int, member_sets: Iterable[Iterable[int]]
) -> list[list[int]]:
    """Components of ``0..n-1`` when each member set is connected.

    Members ascend within a component and components are ordered by
    their smallest member, so the grouping is deterministic.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in member_sets:
        members = sorted(members)
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    components: dict[int, list[int]] = {}
    for x in range(n):
        components.setdefault(find(x), []).append(x)
    return [members for _root, members in sorted(components.items())]


@dataclass(frozen=True)
class PartitionPlan:
    """The planning pass's output (see module docstring)."""

    #: per shard, the instance indices it owns (ascending); one shard
    #: per component up to the shard count, none left empty
    assignment: tuple[tuple[int, ...], ...]
    #: per cross dependency (in the order given), the one shard owning
    #: all its instances, which carries it
    carriers: tuple[int, ...]


def plan_partition(
    count: int,
    shards: int,
    cross_deps: Sequence[Expr],
    suffixes: Sequence[str] | SuffixIndex,
) -> PartitionPlan:
    """Place the coupled components of ``count`` instances whole onto
    at most ``shards`` shards (see the module docstring).

    Raises :class:`ValueError` for fewer than one shard and for a
    dependency mentioning a base that belongs to no instance (or no
    base at all) -- no shard could own it.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    index = _indexed(suffixes)
    members = []
    for dep in cross_deps:
        owner = _owners(dep, index)
        foreign = sorted(
            (b for b, i in owner.items() if i is None), key=Event.sort_key
        )
        if foreign or not owner:
            raise ValueError(
                f"cross dependency {dep!r} must mention events of planned "
                f"instances, and only those; {foreign!r} belong to none"
            )
        members.append(set(owner.values()))
    components = connected_components(count, members)
    placed: list[list[int]] = [[] for _ in components[:shards]]
    for component in components:
        min(placed, key=len).extend(component)  # the first lightest
    shard_of = {i: s for s, part in enumerate(placed) for i in part}
    return PartitionPlan(
        assignment=tuple(tuple(sorted(part)) for part in placed),
        carriers=tuple(shard_of[min(instances)] for instances in members),
    )
