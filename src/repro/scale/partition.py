"""Constraint-aware shard placement: the planning half of a sharded run.

Independent instances can go anywhere; instances coupled by
cross-instance dependencies must run *together*, because a dependency
is enforced by the one scheduler that holds all its events (the
paper's rule: an event's guard conjoins ``G(D, e)`` over every
dependency mentioning it, and one actor per base enforces it).  This
module scores the coupling from the same artifact the runtime enforces
it with -- the per-dependency guards ``G(D, e)``: a guard that makes
one instance's event wait on another instance's base is one unit of
coupling between the two.  The coupling is read off bindings, not
synthesized per copy: a dependency is a binding of its shape
(:func:`repro.temporal.guards.dependency_binding`, entered by stamping
for a generated family), which slot waits on which is computed once
per shape (:func:`repro.temporal.guards.shape_waits`), and a copy maps
those slots to instances through its ``from_slot`` and one base ->
instance owner map per dependency, computed once per plan.

The partitioner itself is the classic greedy heuristic (heaviest-
coupled instance first, placed with the shard holding most of its
already-placed neighbors, under a balance capacity).  Whatever shards a
dependency still spans afterwards are *fused* into one, so the unit of
placement is the coupled component and every dependency has exactly
one owning shard.  Deterministic: ties break toward the lighter-loaded,
lower-numbered shard, so a plan is a pure function of ``(instances,
shards, cross_deps)``.

Everything here is *planning*: no scheduler state, no simulation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.temporal.guards import dependency_binding, shape_waits

logger = logging.getLogger(__name__)


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


def shared_event_graph(
    cross_deps: Sequence[Expr], suffixes: Sequence[str] | SuffixIndex
) -> dict[tuple[int, int], int]:
    """The weighted inter-instance coupling graph.

    For each cross dependency and each event ``e`` it mentions, every
    base of instance ``j`` that ``G(D, e)`` mentions, with ``e`` an
    event of instance ``i != j``, adds one unit to edge ``(i, j)``.  The
    weight is thus a count of *cross-instance waits*, not a syntactic
    event-sharing count -- a dependency whose guards never make one
    side wait on the other contributes nothing.  Read off bindings and
    per-shape waits (see the module docstring): no guard is rendered.
    """
    suffixes = _indexed(suffixes)
    return _coupling(cross_deps, [_owners(dep, suffixes) for dep in cross_deps])


def _coupling(
    cross_deps: Sequence[Expr], owners: Sequence[Mapping[Event, int | None]]
) -> dict[tuple[int, int], int]:
    """:func:`shared_event_graph` from each dependency's owner map: the
    waits of its shape (:func:`shape_waits`), read on its instances
    through its binding."""
    edges: dict[tuple[int, int], int] = {}
    for dep, owner in zip(cross_deps, owners):
        binding = dependency_binding(dep)
        # per slot, the instances of the bases it stands for: one base
        # each, and the slot beyond the shape stands for every base the
        # normal form dropped
        instances = [(owner[base],) for base in binding.from_slot.values()]
        instances.append(
            [i for base, i in owner.items() if base not in binding.to_slot]
        )
        for waiter, waited, count in shape_waits(binding.shape):
            (j,) = instances[waited]
            if j is None:
                continue
            for i in instances[waiter]:
                if i is None or i == j:
                    continue
                key = (i, j) if i < j else (j, i)
                edges[key] = edges.get(key, 0) + count
    return edges


def partition_instances(
    count: int,
    shards: int,
    edges: Mapping[tuple[int, int], int],
) -> tuple[tuple[int, ...], ...]:
    """Greedy balanced min-cut placement of ``count`` instances.

    Instances are placed heaviest-coupled first; each goes to the
    shard (under the balance capacity ``ceil(count / shards)``) with
    the most coupling weight to its already-placed neighbors, ties
    broken toward the lighter-loaded, lower-numbered shard.  Isolated
    instances therefore round out the load deterministically.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    capacity = -(-count // shards)
    weight_of = [0] * count
    neighbors: list[dict[int, int]] = [{} for _ in range(count)]
    for (i, j), w in edges.items():
        weight_of[i] += w
        weight_of[j] += w
        neighbors[i][j] = neighbors[i].get(j, 0) + w
        neighbors[j][i] = neighbors[j].get(i, 0) + w
    order = sorted(range(count), key=lambda i: (-weight_of[i], i))
    assignment = [-1] * count
    loads = [0] * shards
    for i in order:
        best_shard = 0
        best_key: tuple[int, int, int] | None = None
        for s in range(shards):
            if loads[s] >= capacity:
                continue
            score = sum(
                w for j, w in neighbors[i].items() if assignment[j] == s
            )
            key = (score, -loads[s], -s)
            if best_key is None or key > best_key:
                best_key, best_shard = key, s
        assignment[i] = best_shard
        loads[best_shard] += 1
    return tuple(
        tuple(i for i in range(count) if assignment[i] == s)
        for s in range(shards)
    )


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

    #: per shard, the instance indices it owns (ascending); a shard
    #: fused into a lower-numbered one is left empty
    assignment: tuple[tuple[int, ...], ...]
    #: coupling weight the *requested* placement separated (0 = every
    #: coupled component was already colocated, nothing was fused)
    cut_weight: int
    #: total coupling weight in the shared-event graph
    total_weight: int
    #: per cross dependency (in the order given), the one shard owning
    #: all its instances, which carries it
    carriers: tuple[int, ...]


def plan_partition(
    count: int,
    shards: int,
    cross_deps: Sequence[Expr],
    suffixes: Sequence[str] | SuffixIndex,
    assignment: Sequence[Sequence[int]] | None = None,
) -> PartitionPlan:
    """Place instances, then fuse the shards a dependency still spans.

    With ``assignment`` given (one instance-index list per shard) the
    placement is taken as-is -- ``plan_shards`` hands its round-robin
    layout over this way; otherwise the greedy partitioner runs on the
    shared-event graph.  Either way a coupled
    component ends up on one shard (the lowest-numbered of those it was
    spread over, with a logged warning): there is no parallelism inside
    a component for separate schedulers to buy.

    Raises :class:`ValueError` for a dependency mentioning a base that
    belongs to no instance (or no base at all) -- no shard could own it.
    """
    index = _indexed(suffixes)
    owners = []
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
        owners.append(owner)
    edges = _coupling(cross_deps, owners)
    if assignment is None:
        placed = partition_instances(count, shards, edges)
    else:
        placed = tuple(tuple(sorted(part)) for part in assignment)
        seen = [i for part in placed for i in part]
        if sorted(seen) != list(range(count)):
            raise ValueError(
                "explicit assignment must place each instance exactly once"
            )
    shard_of: dict[int, int] = {
        i: s for s, part in enumerate(placed) for i in part
    }
    cut = sum(
        w for (i, j), w in edges.items() if shard_of[i] != shard_of[j]
    )
    fused = [()] * len(placed)
    for component in connected_components(
        len(placed),
        ({shard_of[i] for i in owner.values()} for owner in owners),
    ):
        fused[component[0]] = tuple(
            sorted(i for shard in component for i in placed[shard])
        )
        if len(component) > 1:
            logger.warning(
                "plan_partition: fusing shards %s into shard %d -- cross "
                "dependencies span them, and a coupled component runs "
                "on one scheduler",
                component, component[0],
            )
    fused_of = {i: s for s, part in enumerate(fused) for i in part}
    return PartitionPlan(
        assignment=tuple(fused),
        cut_weight=cut,
        total_weight=sum(edges.values()),
        carriers=tuple(fused_of[next(iter(owner.values()))] for owner in owners),
    )
