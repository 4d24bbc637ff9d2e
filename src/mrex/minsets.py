"""Minimal correction sets and minimal unsatisfiable subsets over soft/hard
clause splits, and the search budget their oracle calls draw on.

Both extractions run on a SatSession workspace: soft clauses are addressed
by their position in ws.soft; hard clauses always hold.  Extraction is
deterministic: candidate clauses are visited in ascending position order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

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


@dataclass(frozen=True)
class MusResult:
    ids: frozenset[int]


def workspace(num_vars: int, hard: Iterable[Clause], soft: Iterable[Clause] = (), *,
              budget: Budget | None = None) -> SatSession:
    """A session over num_vars problem variables loaded with the hard
    clauses, then the soft ones.  One workspace can serve many extractions,
    which is what keeps the main reconciliation loop incremental.  Loading
    stays out of SatSession.__init__, so a tracer that times construction
    and every add_hard/add_soft call counts each clause load once."""
    ws = SatSession(num_vars, budget=budget)
    for c in hard:
        ws.add_hard(c)
    for c in soft:
        ws.add_soft(c)
    return ws


def extract_mcs(
    ws: SatSession,
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


def _audit_mcs(ws: SatSession, mcs: frozenset[int], seed: set[int]) -> None:
    assert not mcs & seed, "correction set overlaps the seed"
    complement = set(range(len(ws.soft))) - mcs
    assert ws.solve_ids(complement).satisfiable, "complement of MCS is not satisfiable"
    for i in sorted(mcs):
        assert not ws.solve_ids(complement | {i}).satisfiable, (
            f"MCS not minimal: restoring clause {i} keeps the set satisfiable"
        )


def extract_mus(ws: SatSession) -> MusResult:
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
    sub = workspace(ws.num_vars, ws.hard, [ws.soft[i] for i in core], budget=ws.budget)
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


def _audit_mus(ws: SatSession, mus: frozenset[int]) -> None:
    assert not ws.solve_ids(mus).satisfiable, "MUS is not unsatisfiable"
    for i in sorted(mus):
        assert ws.solve_ids(mus - {i}).satisfiable, (
            f"MUS not minimal: clause {i} is removable"
        )
