"""Minimal correction sets and minimal unsatisfiable subsets over soft/hard
clause splits, and the search budget their oracle calls draw on.

Soft clauses are addressed by their position in the given sequence; hard
clauses always hold.  Extraction is deterministic: candidate clauses are
visited in ascending position order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .formula import Clause
from .solver import SatSession, SolveResult

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


class SeedInconsistentError(MinimalSetError):
    """The seed together with the hard clauses is already unsatisfiable."""


class NothingToCorrectError(MinimalSetError):
    """hard ∪ soft is satisfiable: there is no correction set to extract."""


class NotUnsatisfiableError(MinimalSetError):
    """hard ∪ soft is satisfiable: there is no unsatisfiable core to shrink."""


@dataclass(frozen=True)
class McsResult:
    ids: frozenset[int]
    kind: str = field(default="mcs", compare=False)


@dataclass(frozen=True)
class MusResult:
    ids: frozenset[int]
    kind: str = field(default="mus", compare=False)


class SoftSolver:
    """Selector-guarded workspace over a fixed soft universe.

    num_vars must cover every variable in soft and hard clauses, or the
    session raises SolverUsageError; selectors are allocated above it.  One
    workspace can serve many extractions, which is what keeps the main
    reconciliation loop incremental.  With a budget, every solve first
    polls its deadline and then counts against it.  The workspace keeps its
    hard clauses and num_vars so that a narrower one can be opened beside it.
    """

    def __init__(
        self, soft: Sequence[Clause], hard: Iterable[Clause] = (), *, num_vars: int,
        budget: Budget | None = None,
    ):
        self.budget = budget
        self.num_vars = num_vars
        self.soft = [tuple(c) for c in soft]
        self.hard = [tuple(c) for c in hard]
        self.session = SatSession(num_vars)
        for c in self.hard:
            self.session.add_hard(c)
        self.selectors = [self.session.add_soft(c) for c in self.soft]
        self._positions = {s: i for i, s in enumerate(self.selectors)}

    def __len__(self) -> int:
        return len(self.soft)

    def solve_ids(self, ids: Iterable[int]) -> SolveResult:
        if self.budget is not None:
            self.budget.check()
            self.budget.calls += 1
        return self.session.solve([self.selectors[i] for i in ids])

    def core_ids(self, result: SolveResult) -> set[int]:
        return {self._positions[x] for x in result.conflict_subset if x in self._positions}

    def satisfied_ids(self, model: tuple[bool, ...], skip: set[int]) -> list[int]:
        out = []
        for i, clause in enumerate(self.soft):
            if i in skip:
                continue
            for l in clause:
                if model[l] if l > 0 else not model[-l]:
                    out.append(i)
                    break
        return out


def extract_mcs(
    ws: SoftSolver,
    seed: Iterable[int] = (),
    *,
    first_result: SolveResult | None = None,
) -> McsResult:
    """One minimal correction set disjoint from the seed clauses.

    Linear search: grow a satisfiable subset from the seed in ascending
    position order, admitting for free every clause the current model already
    satisfies; the complement of the final subset is the MCS.
    """
    kept = set(seed)
    res = first_result if first_result is not None else ws.solve_ids(kept)
    if not res.satisfiable:
        raise SeedInconsistentError("seed clauses conflict with the hard clauses")
    kept.update(ws.satisfied_ids(res.model, kept))
    for i in range(len(ws.soft)):
        if i in kept:
            continue
        kept.add(i)
        r = ws.solve_ids(kept)
        if r.satisfiable:
            kept.update(ws.satisfied_ids(r.model, kept))
        else:
            kept.discard(i)
    mcs = frozenset(range(len(ws.soft))) - kept
    if not mcs:
        raise NothingToCorrectError("hard and soft clauses are jointly satisfiable")
    if check_minimality:
        _audit_mcs(ws, mcs, set(seed))
    return McsResult(mcs)


def _audit_mcs(ws: SoftSolver, mcs: frozenset[int], seed: set[int]) -> None:
    assert not mcs & seed, "correction set overlaps the seed"
    complement = set(range(len(ws.soft))) - mcs
    assert ws.solve_ids(complement).satisfiable, "complement of MCS is not satisfiable"
    for i in sorted(mcs):
        assert not ws.solve_ids(complement | {i}).satisfiable, (
            f"MCS not minimal: restoring clause {i} keeps the set satisfiable"
        )


def extract_mus(ws: SoftSolver) -> MusResult:
    """One minimal unsatisfiable subset of the soft clauses (modulo hard).

    One solve over the whole workspace gives a first core; the rest of the
    search runs in a fresh workspace that holds only the core's clauses, with
    the same hard clauses, num_vars and budget ("clause-set refinement",
    Belov & Marques-Silva, "MUSer2", JSAT 2012).  There the pass is
    deletion-based: drop candidates in ascending position order, keeping
    those whose removal restores satisfiability, and shrink to the conflict
    subset of every UNSAT answer.  Positions map back to ws.
    """
    res = ws.solve_ids(range(len(ws.soft)))
    if res.satisfiable:
        raise NotUnsatisfiableError("hard and soft clauses are jointly satisfiable")
    core = sorted(ws.core_ids(res))
    sub = SoftSolver([ws.soft[i] for i in core], ws.hard, num_vars=ws.num_vars,
                     budget=ws.budget)
    current = set(range(len(core)))
    for i in range(len(core)):
        if i not in current:
            continue
        r = sub.solve_ids(current - {i})
        if not r.satisfiable:
            current = sub.core_ids(r)
    mus = frozenset(core[i] for i in current)
    if check_minimality:
        _audit_mus(ws, mus)
    return MusResult(mus)


def _audit_mus(ws: SoftSolver, mus: frozenset[int]) -> None:
    assert not ws.solve_ids(mus).satisfiable, "MUS is not unsatisfiable"
    for i in sorted(mus):
        assert ws.solve_ids(mus - {i}).satisfiable, (
            f"MUS not minimal: clause {i} is removable"
        )
