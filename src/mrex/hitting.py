"""Exact minimum-cardinality hitting sets over collections of clause-id sets.

Each set is stored as a Python ``int`` with one bit per element.  Element
ids get bits densely, in order of first appearance, so a mask is as wide
as the number of distinct ids, not as the largest id.  A singleton is a
mask with ``m & (m - 1) == 0``, a subset test is ``k & m == k``, the sets
an element hits are those with its bit, and a group of sets is connected
when the masks reachable from one of them, merged, cover the group's
union.

One capped branch-and-bound search, ``_opt(sets, cap, floor)``, answers
every question the solver asks.  It returns the exact optimum when that is
at most ``cap``, and otherwise a proven lower bound above ``cap``; ``floor``
is a lower bound the caller already holds, and the search stops as soon as
it finds a hitting set that small.  The reductions keep the optimum size:

- supersets of other members are dropped, up front and whenever deleting
  elements makes new ones;
- singleton sets force their element;
- element domination (Weihe, "Covering Trains by Stations or the Power of
  Data Reduction", ALEX 1998) deletes an element when another element lies
  in every set that holds it, at every node, until nothing changes;
- a greedy packing of pairwise-disjoint sets bounds every branch from
  below.

A branch takes one element of a smallest set, most frequent first, and the
child inherits its parent's lower bound minus one.

Domination can delete a member of the lexicographically smallest optimum,
so ``_opt`` returns sizes only.  ``min_hitting_set`` splits the sets into
element-connected components once per call (their optima add; the search
itself never splits again), finds each component's optimum, then rebuilds
its lexicographically smallest optimum (by sorted element id) over the
original sets, trying the elements in ascending id order: a candidate is
kept when the sets it leaves unhit still have a hitting set of the
remaining size ``t``, which is one bounded question,
``_opt(rest, cap=t, floor=t) == t``.  The smallest optimum is unique, so
neither the search order nor the bit numbering changes the answer, and
repeated runs are byte-for-byte reproducible.

Two memos live on the instance, keyed by the sorted masks of a
subproblem, and carry work across the incremental use pattern (add one
set, re-solve): one holds exact optima, the other proven lower bounds
from searches that stopped at their cap.  An entry is written only when
its search completes, so a search aborted by ``cancel`` leaves both
memos valid and the instance usable.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator

Cancel = Callable[[], None]

SetsKey = tuple[int, ...]


def _bits(mask: int) -> Iterator[int]:
    """Bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class HittingSetInstance:
    """Growing collection of nonempty sets of integer element ids.

    Each element id gets the next free bit when it first appears (a set's
    new ids in ascending order), and ``ids`` maps bits back to ids; the
    numbering never changes, so the memos stay valid as sets are added.
    ``nodes`` counts the capped searches entered over the instance's life;
    it is deterministic for identical instances and call sequences.
    """

    def __init__(self) -> None:
        self.masks: list[int] = []
        self.ids: list[int] = []
        self._bit: dict[int, int] = {}
        self.nodes = 0
        self._exact: dict[SetsKey, int] = {}
        self._lower: dict[SetsKey, int] = {}

    def add_set(self, elements: Iterable[int]) -> None:
        mask = 0
        for e in sorted(set(elements)):
            bit = self._bit.get(e)
            if bit is None:
                bit = self._bit[e] = len(self.ids)
                self.ids.append(e)
            mask |= 1 << bit
        if not mask:
            raise ValueError("an empty set admits no hitting set")
        self.masks.append(mask)

    def __len__(self) -> int:
        return len(self.masks)


def _minimal_sets(masks: Iterable[int]) -> list[int]:
    """Drop duplicates and supersets of other members; hitting sets are
    unchanged."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def _forced_units(sets: list[int]) -> tuple[int, list[int]]:
    """Elements of singleton sets belong to every hitting set.  Returns the
    forced elements as a mask and the sets still unhit after taking them;
    dropping sets makes no new singleton, so one pass forces them all."""
    units = reduce(or_, (m for m in sets if m & (m - 1) == 0), 0)
    return units, [m for m in sets if not m & units]


def _components(sets: list[int]) -> list[list[int]]:
    """Group sets into element-connected components: grow the element mask
    reachable from the first set until no set adds to it, split it off,
    repeat.  A mask that reaches every element ends the split."""
    union = reduce(or_, sets, 0)
    groups: list[list[int]] = []
    while union:
        reach, grown = 0, sets[0]
        while grown != reach and grown != union:
            reach = grown
            for m in sets:
                if m & grown:
                    grown |= m
        if grown == union:
            groups.append(sets)
            break
        groups.append([m for m in sets if m & reach])
        sets = [m for m in sets if not m & reach]
        union ^= reach
    return groups


def _packing_bound(sets: list[int]) -> int:
    """Number of pairwise-disjoint sets found greedily (smallest first):
    each needs its own hitting element, so this lower-bounds the optimum."""
    used = 0
    count = 0
    for m in sorted(sets, key=int.bit_count):
        if not m & used:
            count += 1
            used |= m
    return count


def _undominated(sets: list[int]) -> tuple[int, list[int]]:
    """Element domination to a fixed point; the optimum size is unchanged.

    An element is dominated when another live element lies in every set
    that holds it: a hitting set can swap the first for the second.  The
    sets holding an element, ANDed together, give the elements that lie in
    all of them, so one pass over the members finds every dominated
    element; scanning ascending keeps one of any elements with equal sets.
    Deleting elements can make sets supersets of others or singletons, so
    supersets are dropped and singletons forced until nothing changes.
    Returns the forced elements as a mask and the reduced sets."""
    forced = 0
    while sets:
        union = reduce(or_, sets)
        meet = dict.fromkeys(_bits(union), -1)
        for m in sets:
            for e in _bits(m):
                meet[e] &= m
        live = union
        for e, common in meet.items():
            bit = 1 << e
            if common & live & ~bit:
                live ^= bit
        if live == union:
            break
        units, sets = _forced_units(_minimal_sets(m & live for m in sets))
        forced |= units
    return forced, sets


def _opt(
    inst: HittingSetInstance,
    sets: list[int],
    cap: int,
    floor: int,
    cancel: Cancel,
) -> int:
    """Minimum hitting-set size of ``sets`` if it is at most ``cap``;
    otherwise a proven lower bound greater than ``cap``.  ``floor`` must be
    a proven lower bound on the optimum.

    After the memos and domination, the packing bound may settle the node;
    otherwise it branches on the elements of a smallest set, most frequent
    first.  ``sets`` holds no singleton: ``min_hitting_set`` forces units
    before it splits, ``_undominated`` forces those that domination
    creates, and the children of a branch or of the lexicographic
    reconstruction only drop sets of a singleton-free family."""
    inst.nodes += 1
    if not sets:
        return 0
    if cap < 1:
        return 1
    cancel()
    key = tuple(sorted(sets))
    exact = inst._exact.get(key)
    if exact is not None:
        return exact
    lower = max(floor, inst._lower.get(key, 0))
    if lower > cap:
        return lower
    forced, rest = _undominated(sets)
    value = forced.bit_count()
    room = cap - value
    if room >= 0 and rest:
        lower = max(lower - value, _packing_bound(rest))
        if lower > room:
            value += lower
        else:
            target = min(rest, key=int.bit_count)
            occurrence = {e: sum(1 for m in rest if m >> e & 1)
                          for e in _bits(target)}
            best = room + 1  # no hitting set of size <= room found yet
            bound = None  # least lower bound proven by the children
            for e in sorted(occurrence, key=lambda x: (-occurrence[x], x)):
                bit = 1 << e
                child = 1 + _opt(inst, [m for m in rest if not m & bit],
                                 best - 2, lower - 1, cancel)
                if child < best:
                    best = child
                    if best == lower:
                        break
                elif best > room:
                    bound = child if bound is None else min(bound, child)
            value += best if best <= room else bound
    if value <= cap:
        inst._exact[key] = value
    else:
        inst._lower[key] = value
    return value


def _lex_smallest(
    inst: HittingSetInstance, sets: list[int], cancel: Cancel
) -> list[int]:
    """Bits of the lexicographically smallest optimum of one component:
    try the elements in ascending id order, keeping each one that still
    allows an optimal completion of the sets it leaves unhit."""
    need = _opt(inst, sets, len(sets), 0, cancel)
    chosen: list[int] = []
    remaining = sets
    union = reduce(or_, sets)
    for b in sorted(_bits(union), key=inst.ids.__getitem__):
        if not remaining:
            break
        bit = 1 << b
        if not union & bit:
            continue
        t = need - len(chosen) - 1
        rest = [m for m in remaining if not m & bit]
        if _opt(inst, rest, t, t, cancel) == t:
            chosen.append(b)
            remaining = rest
            union = reduce(or_, rest, 0)
    if remaining:  # pragma: no cover - the optimum guarantees progress
        raise AssertionError("lexicographic reconstruction failed")
    return chosen


def min_hitting_set(
    instance: HittingSetInstance, *, cancel: Cancel
) -> frozenset[int]:
    """Minimum-cardinality hitting set; lexicographically smallest optimum.

    The lexicographic order is over the sorted element tuples of the
    equal-size optima.  Deterministic for identical instances; `cancel`
    (a callable raising to abort) is polled between search nodes.
    """
    sets = _minimal_sets(instance.masks)
    forced, rest = _forced_units(sets)
    chosen = list(_bits(forced))
    for component in _components(rest):
        chosen += _lex_smallest(instance, component, cancel)
    return frozenset(instance.ids[b] for b in chosen)
