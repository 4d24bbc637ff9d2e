"""Minimal correction sets and minimal unsatisfiable subsets over soft/hard
clause splits, the model rotation that proves soft clauses necessary without
an oracle call, and the search budget the oracle calls draw on.

Both extractions run on a SatSession workspace: soft clauses are addressed
by their position in ws.soft; hard clauses always hold.  Extraction is
deterministic: candidate clauses are visited in ascending position order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Container, Iterable

from .formula import Clause
from .solver import SatSession

# When True every extraction re-verifies its result by single-element
# perturbation before returning (test builds).
check_minimality = False


class _OutOfTime(Exception):
    """Raised by Budget.check once the deadline has passed."""


class Budget:
    """Deadline and oracle-call count of one search, shared by every
    session the search opens.  seconds=None sets no deadline."""

    def __init__(self, seconds: float | None):
        self.start = time.monotonic()
        self._end = None if seconds is None else self.start + seconds
        self.calls = 0

    def check(self) -> None:
        if self._end is not None and time.monotonic() > self._end:
            raise _OutOfTime


class MinimalSetError(ValueError):
    pass


class NothingToCorrectError(MinimalSetError):
    """hard ∪ soft is satisfiable: there is no correction set to extract."""


class NotUnsatisfiableError(MinimalSetError):
    """hard ∪ soft is satisfiable: there is no unsatisfiable core to shrink."""


@dataclass(frozen=True)
class McsResult:
    ids: frozenset[int]


@dataclass(frozen=True)
class MusResult:
    ids: frozenset[int]


def workspace(num_vars: int, hard: Iterable[Clause], soft: Iterable[Clause] = (), *,
              budget: Budget | None = None) -> SatSession:
    """A session over num_vars problem variables loaded with the hard
    clauses, then the soft ones; every session mrex opens is made here.
    One workspace can serve many extractions, which is what keeps the main
    reconciliation loop incremental.  Loading stays out of
    SatSession.__init__, so a tracer that times construction and every
    add_hard/add_soft call counts each clause load once."""
    ws = SatSession(num_vars, budget=budget)
    for c in hard:
        ws.add_hard(c)
    for c in soft:
        ws.add_soft(c)
    return ws


def extract_mcs(ws: SatSession, seed: Iterable[int] = ()) -> McsResult | None:
    """One minimal correction set disjoint from the seed clauses, or None
    when the seed clauses with the hard clauses are unsatisfiable.

    Linear search: grow a satisfiable subset from the seed in ascending
    position order, admitting for free every clause the current model already
    satisfies; the complement of the final subset is the MCS.  The seed test
    solves with the seed as a list, which keeps the levels of the stack
    entries that the seed still assumes.  From then on each probe pushes its
    one clause and solves under the stack: a refuted probe pops it again,
    and a satisfiable one stays, with the clauses its model admits pushed
    after it.  So the stack ends holding the kept clauses in the order they
    joined.  A model admits only clauses above its probe: an earlier refuted
    probe stays refuted, as the kept set only grows.
    """
    order = sorted(seed)
    kept = set(order)
    res = ws.solve_ids(order)
    if not res.satisfiable:
        return None
    admitted = ws.satisfied_ids(res.model, kept, 0)
    ws.push_ids(admitted)
    kept.update(admitted)
    for i in range(len(ws.soft)):
        if i in kept:
            continue
        ws.push_ids((i,))
        r = ws.solve_ids(None)
        if r.satisfiable:
            kept.add(i)
            admitted = ws.satisfied_ids(r.model, kept, i + 1)
            ws.push_ids(admitted)
            kept.update(admitted)
        else:
            ws.pop(1)
    mcs = frozenset(range(len(ws.soft))) - kept
    if not mcs:
        raise NothingToCorrectError("hard and soft clauses are jointly satisfiable")
    if check_minimality:
        _audit_mcs(ws, mcs, set(seed))
    return McsResult(mcs)


def _audit_mcs(ws: SatSession, mcs: frozenset[int], seed: set[int]) -> None:
    assert not mcs & seed, "correction set overlaps the seed"
    complement = set(range(len(ws.soft))) - mcs
    assert ws.solve_ids(sorted(complement)).satisfiable, "complement of MCS is not satisfiable"
    for i in sorted(mcs):
        assert not ws.solve_ids(sorted(complement | {i})).satisfiable, (
            f"MCS not minimal: restoring clause {i} keeps the set satisfiable"
        )


class Rotation:
    """Recursive model rotation over one workspace's clauses (Belov &
    Marques-Silva, "Accelerating MUS Extraction with Recursive Model
    Rotation", FMCAD 2011).

    A live soft clause is necessary when the hard clauses and the other live
    clauses are satisfiable.  A model of those is a witness for it; flipping
    one variable of the witnessed clause often gives a witness for another
    live clause, with no oracle call.  A flip can only falsify the clauses
    that hold the literal it makes false, so the occurrence lists by literal
    are built once per workspace, here.
    """

    def __init__(self, ws: SatSession):
        self._soft = ws.soft
        self._hard_occ: dict[int, list[Clause]] = {}
        self._soft_occ: dict[int, list[int]] = {}
        for c in ws.hard:
            for l in c:
                self._hard_occ.setdefault(l, []).append(c)
        for j, c in enumerate(ws.soft):
            for l in c:
                self._soft_occ.setdefault(l, []).append(j)

    def mark(self, model: tuple[bool, ...], i: int, live: Container[int],
             necessary: set[int]) -> None:
        """Add i, and every live clause that rotating the model proves
        necessary, to `necessary`.

        The model satisfies the hard clauses and every live clause except
        possibly clause i.  For each literal of the witnessed clause, in
        clause order, flip its variable; when the flipped assignment still
        satisfies every hard clause and falsifies exactly one live clause j,
        it witnesses j.  An unmarked j is marked and rotated from the
        flipped assignment, depth first; a marked one ends the branch.
        """
        necessary.add(i)
        m = list(model)
        soft = self._soft
        # (literals of the witnessed clause left to flip, variable flipped
        # to reach it; 0 for clause i)
        stack = [(iter(soft[i]), 0)]
        while stack:
            lits, entered = stack[-1]
            for l in lits:
                v = l if l > 0 else -l
                made_false = v if m[v] else -v
                m[v] = not m[v]
                j = self._sole_falsified(m, made_false, live)
                if j is not None and j not in necessary:
                    necessary.add(j)
                    stack.append((iter(soft[j]), v))
                    break
                m[v] = not m[v]
            else:
                stack.pop()
                if entered:
                    m[entered] = not m[entered]

    def _sole_falsified(self, m: list[bool], made_false: int,
                        live: Container[int]) -> int | None:
        """The one live clause that m falsifies, when m satisfies every hard
        clause and falsifies exactly one live clause; only the clauses
        holding made_false can have changed."""
        for c in self._hard_occ.get(made_false, ()):
            if not any(m[l] if l > 0 else not m[-l] for l in c):
                return None
        found = None
        for j in self._soft_occ.get(made_false, ()):
            if j in live and not any(m[l] if l > 0 else not m[-l] for l in self._soft[j]):
                if found is not None:
                    return None
                found = j
        return found


def extract_mus(ws: SatSession) -> MusResult:
    """One minimal unsatisfiable subset of the soft clauses (modulo hard).

    One solve over the whole workspace gives a first core; the rest of the
    search runs in a fresh workspace that holds only the core's clauses, with
    the same hard clauses, num_vars and budget ("clause-set refinement",
    Belov & Marques-Silva, "MUSer2", JSAT 2012).  There the pass is
    deletion-based: drop candidates in ascending position order, keeping
    those whose removal restores satisfiability, and shrink to the conflict
    subset of every UNSAT answer.  Every SAT answer proves its candidate
    necessary, and model rotation proves more from the same model; the pass
    skips every candidate already proven necessary, which a solve would only
    have confirmed.  Positions map back to ws.
    """
    res = ws.solve_ids(range(len(ws.soft)))
    if res.satisfiable:
        raise NotUnsatisfiableError("hard and soft clauses are jointly satisfiable")
    core = sorted(ws.core_ids(res))
    sub = workspace(ws.num_vars, ws.hard, [ws.soft[i] for i in core], budget=ws.budget)
    rotation = Rotation(sub)
    current = set(range(len(core)))
    necessary: set[int] = set()
    for i in range(len(core)):
        if i not in current or i in necessary:
            continue
        r = sub.solve_ids(sorted(current - {i}))
        if r.satisfiable:
            rotation.mark(r.model, i, current, necessary)
        else:
            current = sub.core_ids(r)
    mus = frozenset(core[i] for i in current)
    if check_minimality:
        _audit_mus(ws, mus)
    return MusResult(mus)


def _audit_mus(ws: SatSession, mus: frozenset[int]) -> None:
    assert not ws.solve_ids(sorted(mus)).satisfiable, "MUS is not unsatisfiable"
    for i in sorted(mus):
        assert ws.solve_ids(sorted(mus - {i})).satisfiable, (
            f"MUS not minimal: clause {i} is removable"
        )
