"""Watched-literal wake index for the cube algebra.

The naive scheduler re-evaluates every parked guard on every
announcement: each delivery runs ``simplify_under`` + the region
checks even when the announced base cannot possibly change the guard's
verdict.  This module supplies the *wake index* that lets a scheduler
skip those deliveries: each guard actor registers the set of bases
whose settlement can still affect it (its *watch literals*), and an
announcement only wakes the actors watching the announced base.

SAT solvers watch **two** literals per clause because clause semantics
only need "is some literal still free".  The cube algebra cannot watch
that few: the *residual guard itself* is observable state (snapshots,
traces, ``repro explain`` all show it), and assimilating any fact on
any base the residual mentions rewrites the residual.  The sound
analogue is therefore one watch per *undecided* literal -- the wake
set of a fully-reduced guard is exactly ``guard.bases()``, which
``simplify_under`` already shrinks as knowledge arrives (a decided
literal leaves the residual, and its base leaves the wake set: the
"pick a replacement watch" step is residuation itself).

Wake-set soundness is delicate in three ways, each handled here:

* a guard that is *not* fully reduced under current knowledge (a
  promise or certificate fact was learned without re-simplifying)
  would be rewritten by the naive engine's next assimilation whatever
  the announced base -- such an actor must wake on everything until
  the next full pass reduces it (:func:`watch_bases` returns
  :data:`ALL`);
* an actor whose solicitation would *act* on the next knowledge tick
  (start a certificate round, or re-send a promise request whose
  dedup entry was cleared by a refusal or a recovery) must wake on
  everything, because the naive engine performs that action from any
  announcement's learn;
* over-watching is always safe -- a woken actor runs exactly the
  naive path -- so every ambiguity resolves toward :data:`ALL`.

Counters (wakes / skips / re-watches) are kept both per
:class:`WatchIndex` and process-wide; the process-wide totals surface
through ``kernel_stats()['watch']`` and thus ``metrics_report()`` and
``repro run --json``.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.symbols import Event

from .cubes import FULL, GuardExpr, closure

#: Sentinel wake-set: the actor must be woken by every announcement.
ALL = None

#: distinguishes "registered ALL" (None) from "not registered".
_UNSET = object()


def is_reduced(guard: GuardExpr, knowledge: Mapping[Event, int]) -> bool:
    """Would ``guard.simplify_under(knowledge)`` be a no-op?

    True iff every literal of every cube is still undecided -- the
    exact condition under which the naive engine's per-announcement
    re-simplification returns the guard unchanged (``simplify_under``
    keeps a literal iff it is neither dead nor guaranteed; see
    :mod:`repro.temporal.cubes`).  The guard of an actor that just ran
    a full assimilation pass is always reduced; promise/certificate
    learns leave it unreduced until the next pass.
    """
    if not knowledge or not guard.cubes or () in guard.cubes:
        return True  # simplify_under's own early-exit: identity
    for cube in guard.sorted_cubes():
        for base, mask in cube:
            known = knowledge.get(base)
            if known is None:
                continue
            reach = closure(known)
            hit = reach & mask
            if hit == 0 or hit == reach:
                return False
    return True


def watch_bases(
    guard: GuardExpr, knowledge: Mapping[Event, int]
) -> frozenset[Event] | None:
    """The wake set for a guard under current knowledge.

    For a reduced guard this is exactly ``guard.bases()`` (every base
    the residual still mentions); an unreduced guard returns
    :data:`ALL` -- the naive engine would rewrite it on the next
    assimilation whatever the base, so skipping anything would let the
    residuals diverge.
    """
    return guard.bases() if is_reduced(guard, knowledge) else ALL


class _WatchStats:
    """Process-wide counters (mirrors the per-index counts)."""

    wakes = 0
    skips = 0
    rewatches = 0


def watch_stats() -> dict:
    """Snapshot of the process-wide watch counters, for
    ``kernel_stats()``."""
    return {
        "wakes": _WatchStats.wakes,
        "skips": _WatchStats.skips,
        "rewatches": _WatchStats.rewatches,
    }


def clear_watch_stats() -> None:
    _WatchStats.wakes = 0
    _WatchStats.skips = 0
    _WatchStats.rewatches = 0


class WatchIndex:
    """Watcher -> wake set index for one scheduler.

    ``_watching`` maps each registered actor (by its signed event) to
    its wake set (a frozenset of bases, or :data:`ALL`): "does this
    announcement wake this actor?" is one probe of it, and the inverse
    (:meth:`watchers`, asked by tests and debuggers only) a scan.

    Unknown actors wake on everything: registration gaps degrade to
    the naive engine, never to a missed wake.
    """

    def __init__(self) -> None:
        self._watching: dict[Event, frozenset[Event] | None] = {}
        self.wakes = 0
        self.skips = 0
        self.rewatches = 0

    # -- bookkeeping ---------------------------------------------------

    def register(
        self, watcher: Event, bases: frozenset[Event] | None
    ) -> None:
        """Install (or refresh) ``watcher``'s wake set."""
        old = self._watching.get(watcher, _UNSET)
        if old == bases:
            return
        if old is not _UNSET:
            self.rewatches += 1
            _WatchStats.rewatches += 1
        self._watching[watcher] = bases

    def unregister(self, watcher: Event) -> None:
        self._watching.pop(watcher, None)

    # -- queries -------------------------------------------------------

    def should_wake(self, watcher: Event, base: Event) -> bool:
        """Does an announcement on ``base`` wake ``watcher``?"""
        bases = self._watching.get(watcher, ALL)
        return bases is ALL or base in bases

    def watching(self, watcher: Event) -> frozenset[Event] | None:
        """``watcher``'s current wake set (:data:`ALL` if unknown)."""
        return self._watching.get(watcher, ALL)

    def watchers(self, base: Event) -> frozenset[Event]:
        """Every registered actor an announcement on ``base`` wakes."""
        return frozenset(
            watcher
            for watcher, bases in self._watching.items()
            if bases is ALL or base in bases
        )

    def __len__(self) -> int:
        return len(self._watching)

    # -- counters ------------------------------------------------------

    def note_wake(self) -> None:
        self.wakes += 1
        _WatchStats.wakes += 1

    def note_skip(self) -> None:
        self.skips += 1
        _WatchStats.skips += 1

    def counts(self) -> dict:
        return {
            "wakes": self.wakes,
            "skips": self.skips,
            "rewatches": self.rewatches,
            "registered": len(self._watching),
        }
