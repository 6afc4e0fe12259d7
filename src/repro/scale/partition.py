"""Constraint-aware shard placement: the planning half of cross-shard
execution.

Independent instances can go anywhere; instances coupled by
cross-instance dependencies should go *together*, because every
coupling edge that crosses the shard cut becomes routed announcements
(and possibly certificate rounds) on the inter-shard channel at run
time.  This module scores the coupling from the same artifact the
runtime enforces it with -- the per-dependency guard tables
(:func:`repro.temporal.guards.guard_table`): a guard literal that
makes one instance's event wait on another instance's base is exactly
one announcement the cut would have to carry.

The partitioner itself is the classic greedy heuristic (heaviest-
coupled instance first, placed with the shard holding most of its
already-placed neighbors, under a balance capacity).  It is
deterministic: ties break toward the lighter-loaded, lower-numbered
shard, so a plan is a pure function of ``(instances, shards,
cross_deps)``.

Everything here is *planning*: no scheduler state, no simulation.  The
outputs -- assignment, cut weight, spanning dependencies, egress
tables, coupled shard groups -- parameterize
:func:`repro.scale.shards.plan_shards` and the coordinated group
engine (:mod:`repro.scale.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.temporal.cubes import GuardExpr
from repro.temporal.guards import guard_table


def instance_of(base: Event, suffixes: Sequence[str]) -> int | None:
    """Map a (suffixed) base event to its instance index.

    Longest-suffix match, so overlapping suffixes (``_i1`` vs
    ``_i11``) resolve to the more specific instance.  Returns None for
    events that belong to no instance (template-level or foreign).
    """
    name = base.base.name
    best: int | None = None
    best_len = -1
    for index, suffix in enumerate(suffixes):
        if suffix and name.endswith(suffix) and len(suffix) > best_len:
            best, best_len = index, len(suffix)
    return best


def dependency_instances(
    dep: Expr, suffixes: Sequence[str]
) -> frozenset[int]:
    """The instances a cross dependency mentions."""
    return frozenset(
        index
        for base in dep.bases()
        if (index := instance_of(base, suffixes)) is not None
    )


def shared_event_graph(
    cross_deps: Sequence[Expr], suffixes: Sequence[str]
) -> dict[tuple[int, int], int]:
    """The weighted inter-instance coupling graph.

    For each cross dependency its guard table is synthesized; every
    guard literal under which instance ``i``'s event waits on instance
    ``j``'s base adds one unit to edge ``(i, j)``.  The weight is thus
    a count of *potential routed announcements*, not a syntactic
    event-sharing count -- a dependency whose guards never make one
    side wait on the other contributes nothing.
    """
    return _coupling_edges(map(guard_table, cross_deps), suffixes)


def _coupling_edges(
    tables: Iterable[Mapping[Event, GuardExpr]], suffixes: Sequence[str]
) -> dict[tuple[int, int], int]:
    """:func:`shared_event_graph` over already-synthesized tables."""
    edges: dict[tuple[int, int], int] = {}
    for table in tables:
        for event, g in table.items():
            i = instance_of(event.base, suffixes)
            if i is None:
                continue
            for base in g.bases():
                j = instance_of(base, suffixes)
                if j is None or j == i:
                    continue
                key = (min(i, j), max(i, j))
                edges[key] = edges.get(key, 0) + 1
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
    their smallest member, so the grouping is deterministic -- shard
    groups, task groups and steal chunks all come from here.
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
    """The planning pass's full output (see module docstring)."""

    #: per shard, the instance indices it owns (ascending)
    assignment: tuple[tuple[int, ...], ...]
    #: coupling weight crossing the cut (0 = fully colocated)
    cut_weight: int
    #: total coupling weight in the shared-event graph
    total_weight: int
    #: indices (into ``cross_deps``) of dependencies spanning shards
    spanning: tuple[int, ...]
    #: owner-side egress: base -> shards that must hear its occurrence
    egress: Mapping[Event, tuple[int, ...]]
    #: connected components of shards coupled by spanning dependencies
    groups: tuple[tuple[int, ...], ...]


def plan_partition(
    count: int,
    shards: int,
    cross_deps: Sequence[Expr],
    suffixes: Sequence[str],
    assignment: Sequence[Sequence[int]] | None = None,
) -> PartitionPlan:
    """Place instances and derive the cut's runtime consequences.

    With ``assignment`` given (one instance-index list per shard) the
    placement is taken as-is -- benchmarks use this to construct
    deliberately skewed or adversarial layouts; otherwise the greedy
    partitioner runs on the shared-event graph.
    """
    # one table per dependency, feeding both the coupling graph and
    # the spanning/egress pass below
    tables = [guard_table(dep) for dep in cross_deps]
    edges = _coupling_edges(tables, suffixes)
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
    spanning: list[int] = []
    owner_sets: list[frozenset[int]] = []
    egress: dict[Event, set[int]] = {}
    for index, (dep, table) in enumerate(zip(cross_deps, tables)):
        owners = frozenset(
            shard_of[i] for i in dependency_instances(dep, suffixes)
        )
        if len(owners) <= 1:
            continue
        spanning.append(index)
        owner_sets.append(owners)
        for event, g in table.items():
            i = instance_of(event.base, suffixes)
            if i is None:
                continue
            subscriber = shard_of[i]
            for base in g.bases():
                j = instance_of(base, suffixes)
                if j is None:
                    continue
                if shard_of[j] != subscriber:
                    egress.setdefault(base.base, set()).add(subscriber)
    cut = sum(
        w for (i, j), w in edges.items() if shard_of[i] != shard_of[j]
    )
    return PartitionPlan(
        assignment=placed,
        cut_weight=cut,
        total_weight=sum(edges.values()),
        spanning=tuple(spanning),
        egress={
            base: tuple(sorted(subs))
            for base, subs in sorted(
                egress.items(), key=lambda kv: kv[0].sort_key()
            )
        },
        groups=tuple(
            tuple(group)
            for group in connected_components(len(placed), owner_sets)
        ),
    )
