from __future__ import annotations

import random

import pytest

from mrex.minsets import (
    Budget,
    McsResult,
    MusResult,
    NothingToCorrectError,
    NotUnsatisfiableError,
    SeedInconsistentError,
    SoftSolver,
    extract_mcs,
    extract_mus,
)
from mrex.solver import SolverUsageError

from oracles import (
    random_unsat_soft,
    tt_all_mcses,
    tt_all_muses,
    tt_satisfiable,
)

# the worked five-clause base: a|b, -b|c, -c, -b|d, -d  (a=1 b=2 c=3 d=4, f=5)
BASE = [(1, 2), (-2, 3), (-3,), (-2, 4), (-4,)]


def test_clause_cannot_alias_a_selector():
    """Clause 0's selector is variable 4, so a soft (4,) over num_vars=3
    would silently name it; the session rejects the clause instead."""
    with pytest.raises(SolverUsageError, match="beyond"):
        SoftSolver([(1,), (4,)], hard=[(-1,)], num_vars=3)
    assert SoftSolver([(1,), (4,)], hard=[(-1,)], num_vars=4).solve_ids([1]).satisfiable


def test_mcs_of_worked_base_with_negated_goal():
    hard = [(-3,), (5,), (-1,)]
    res = extract_mcs(SoftSolver(BASE, hard, num_vars=5))
    assert res.ids in {frozenset({0}), frozenset({1, 3}), frozenset({1, 4})}


def test_mcs_respects_seed():
    hard = [(-3,), (5,), (-1,)]
    res = extract_mcs(SoftSolver(BASE, hard, num_vars=5), seed={1})
    assert res.ids == {0}


def test_mcs_seed_conflict_detected():
    # seed {(-3,)} against hard (3) is already unsatisfiable
    with pytest.raises(SeedInconsistentError):
        extract_mcs(SoftSolver([(-3,), (1,)], [(3,)], num_vars=3), seed={0})


def test_mcs_nothing_to_correct():
    with pytest.raises(NothingToCorrectError):
        extract_mcs(SoftSolver([(1,), (2,)], [(3,)], num_vars=3))


def test_mus_of_worked_support_clauses():
    soft = [(-3,), (5,), (1, 2), (-2, 3)]
    hard = [(-1,)]
    res = extract_mus(SoftSolver(soft, hard, num_vars=5))
    assert res.ids == {0, 2, 3}


def test_mus_requires_unsat():
    with pytest.raises(NotUnsatisfiableError):
        extract_mus(SoftSolver([(1,), (2,)], [], num_vars=2))


def test_enumerate_worked_base_mcses():
    hard = [(-3,), (5,), (-1,)]
    assert tt_all_mcses(BASE, hard, 5) == {
        frozenset({0}),
        frozenset({1, 3}),
        frozenset({1, 4}),
    }


def test_enumerate_worked_base_muses():
    hard = [(-3,), (5,), (-1,)]
    assert tt_all_muses(BASE, hard, 5) == {frozenset({0, 1}), frozenset({0, 3, 4})}


def test_extracted_mcs_is_among_enumerated_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 6)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 5), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        all_mcs = tt_all_mcses(soft, hard, n)
        got = extract_mcs(SoftSolver(soft, hard, num_vars=n))
        assert got.ids in all_mcs


def test_extracted_mus_is_among_enumerated_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(3, 6)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 5), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        all_mus = tt_all_muses(soft, hard, n)
        got = extract_mus(SoftSolver(soft, hard, num_vars=n))
        assert got.ids in all_mus


def test_shared_workspace_reuse():
    hard = [(-3,), (5,), (-1,)]
    budget = Budget(None)
    ws = SoftSolver(BASE, hard, num_vars=5, budget=budget)
    first = extract_mcs(ws)
    second = extract_mcs(ws, seed={1})
    assert first.ids in {frozenset({0}), frozenset({1, 3}), frozenset({1, 4})}
    assert second.ids == {0}
    assert budget.calls > 0


def test_result_kinds():
    assert McsResult(frozenset()).kind == "mcs"
    assert MusResult(frozenset()).kind == "mus"


def test_mcs_deterministic():
    hard = [(-3,), (5,), (-1,)]
    a = extract_mcs(SoftSolver(BASE, hard, num_vars=5))
    b = extract_mcs(SoftSolver(BASE, hard, num_vars=5))
    assert a == b
