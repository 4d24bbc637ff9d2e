from __future__ import annotations

import random

import pytest

from mrex.solver import SatSession, SolverUsageError

from oracles import random_cnf, tt_satisfiable


def test_empty_session_is_sat():
    res = SatSession(0).solve()
    assert res.satisfiable
    assert res.model == (False,)


def test_unit_propagation_chain():
    s = SatSession(4)
    s.add_hard((1,))
    s.add_hard((-1, 2))
    s.add_hard((-2, 3))
    res = s.solve()
    assert res.satisfiable
    assert res.value(1) and res.value(2) and res.value(3)


def test_hard_contradiction_sticks():
    s = SatSession(1)
    s.add_hard((1,))
    s.add_hard((-1,))
    res = s.solve()
    assert not res.satisfiable
    assert res.conflict_subset == frozenset()
    # the session is permanently unsat, even with assumptions
    assert not s.solve([1]).satisfiable


def test_empty_clause_rejected_semantically():
    s = SatSession(2)
    s.add_hard(())
    assert not s.solve().satisfiable


def test_malformed_clauses_raise():
    s = SatSession(2)
    with pytest.raises(SolverUsageError):
        s.add_hard((1, -1))
    with pytest.raises(SolverUsageError):
        s.add_hard((0,))
    with pytest.raises(SolverUsageError):
        s.add_hard((2, 2))


def test_assumptions_do_not_persist():
    s = SatSession(2)
    s.add_hard((1, 2))
    assert not s.solve([-1, -2]).satisfiable
    res = s.solve()
    assert res.satisfiable
    res2 = s.solve([-1])
    assert res2.satisfiable and res2.value(2)


def test_unregistered_assumption_raises():
    s = SatSession(1)
    with pytest.raises(SolverUsageError):
        s.solve([5])


def test_contradictory_assumptions():
    s = SatSession(3)
    res = s.solve([2, -2])
    assert not res.satisfiable
    assert res.conflict_subset == {2, -2}


def test_soft_clauses_toggle():
    s = SatSession(1)
    a = s.add_soft((1,))
    b = s.add_soft((-1,))
    assert s.solve().satisfiable
    assert s.solve([a]).satisfiable
    assert s.solve([b]).satisfiable
    res = s.solve([a, b])
    assert not res.satisfiable
    assert res.conflict_subset == {a, b}
    # still fine afterwards
    assert s.solve([a]).satisfiable


def test_soft_empty_clause_only_blocks_when_assumed():
    s = SatSession(1)
    sel = s.add_soft(())
    assert s.solve().satisfiable
    res = s.solve([sel])
    assert not res.satisfiable
    assert res.conflict_subset == {sel}


def test_conflict_subset_is_relevant():
    # (5,) is irrelevant to the contradiction and must not appear
    s2 = SatSession(5)
    s2.add_hard((-1,))
    sel_nc = s2.add_soft((-3,))
    sel_f = s2.add_soft((5,))
    sel_ab = s2.add_soft((1, 2))
    sel_bc = s2.add_soft((-2, 3))
    res = s2.solve([sel_nc, sel_f, sel_ab, sel_bc])
    assert not res.satisfiable
    assert sel_f not in res.conflict_subset
    assert {sel_nc, sel_ab, sel_bc} >= set(res.conflict_subset)


def test_conflict_subset_soundness_random():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 7)
        clauses = random_cnf(rng, n, rng.randint(4, 18))
        s = SatSession(n)
        sels = {s.add_soft(c): c for c in clauses}
        res = s.solve(sels.keys())
        assert res.satisfiable == tt_satisfiable(clauses, n)
        if res.satisfiable:
            continue
        checked += 1
        core = [sels[x] for x in res.conflict_subset]
        assert not tt_satisfiable(core, n)
        fresh = SatSession(n)
        for c in core:
            fresh.add_hard(c)
        assert not fresh.solve().satisfiable


def test_agreement_with_truth_table_random():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 8)
        clauses = random_cnf(rng, n, rng.randint(1, 24))
        s = SatSession(n)
        for c in clauses:
            s.add_hard(c)
        res = s.solve()
        assert res.satisfiable == tt_satisfiable(clauses, n)
        if res.satisfiable:
            for c in clauses:
                assert any(res.value(l) for l in c)


def test_model_is_total_over_registered_vars():
    s = SatSession(6)
    s.add_hard((2,))
    res = s.solve()
    assert res.satisfiable
    assert len(res.model) == s.num_vars + 1


def test_incremental_additions_between_solves():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 7)
        clauses = random_cnf(rng, n, rng.randint(2, 16))
        s = SatSession(n)
        added: list = []
        for c in clauses:
            s.add_hard(c)
            added.append(c)
            assert s.solve().satisfiable == tt_satisfiable(added, n)


def test_determinism_identical_histories():
    def run():
        rng = random.Random(4242)
        s = SatSession(8)
        outcomes = []
        sels = []
        for c in random_cnf(rng, 8, 30):
            sels.append(s.add_soft(c))
        for _ in range(40):
            chosen = [x for x in sels if rng.random() < 0.6]
            r = s.solve(chosen)
            outcomes.append((r.satisfiable, r.model, r.conflict_subset))
        return outcomes

    assert run() == run()


def test_assumed_literals_respected():
    s = SatSession(4)
    s.add_hard((1, 2, 3, 4))
    res = s.solve([-1, -2, -3])
    assert res.satisfiable
    assert res.value(4)
    assert not res.value(1) and not res.value(2) and not res.value(3)


def test_larger_pigeonhole_unsat():
    # 4 pigeons, 3 holes: var p*3+h+1 means pigeon p in hole h
    s = SatSession(12)
    for p in range(4):
        s.add_hard(tuple(p * 3 + h + 1 for h in range(3)))
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                s.add_hard((-(p1 * 3 + h + 1), -(p2 * 3 + h + 1)))
    assert not s.solve().satisfiable
