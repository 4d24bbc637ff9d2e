"""Backbone extraction against truth-table enumeration."""

import random

import pytest

from mrex.backbone import UnsatisfiableError, compute_backbone
from mrex.formula import CnfFormula
from mrex.solver import SatSession

from oracles import random_cnf, tt_backbone, tt_satisfiable


def test_unit_clauses_are_backbone():
    kb = CnfFormula.from_clauses([(1,), (-2,), (2, 3)])
    assert compute_backbone(kb) == (1, -2, 3)


def test_unconstrained_variables_are_skipped():
    kb = CnfFormula.from_clauses([(1,)], num_vars=6)
    assert compute_backbone(kb) == (1,)


def test_empty_formula_has_empty_backbone():
    assert compute_backbone(CnfFormula.from_clauses([], num_vars=3)) == ()


def test_unsatisfiable_formula_rejected():
    with pytest.raises(UnsatisfiableError):
        compute_backbone(CnfFormula.from_clauses([(1,), (-1,)]))


def test_implication_chain():
    kb = CnfFormula.from_clauses([(1,), (-1, 2), (-2, 3), (-3, 4)])
    assert compute_backbone(kb) == (1, 2, 3, 4)


def test_output_sorted_by_variable():
    kb = CnfFormula.from_clauses([(5,), (-3,), (1,)])
    assert compute_backbone(kb) == (1, -3, 5)


def test_matches_truth_table_enumeration():
    rng = random.Random(20260814)
    done = 0
    while done < 80:
        n = rng.randint(2, 7)
        m = rng.randint(1, n + 5)
        clauses = random_cnf(rng, n, m)
        if not tt_satisfiable(clauses, n):
            continue
        kb = CnfFormula.from_clauses(clauses, n)
        got = compute_backbone(kb)
        assert frozenset(got) == tt_backbone(clauses, n), (clauses, n)
        assert list(got) == sorted(got, key=abs)
        done += 1


def test_deterministic_reruns():
    rng = random.Random(5)
    clauses = random_cnf(rng, 6, 9)
    if not tt_satisfiable(clauses, 6):
        clauses = [(1, 2), (-2, 3)]
    kb = CnfFormula.from_clauses(clauses, 6)
    assert compute_backbone(kb) == compute_backbone(kb)


@pytest.fixture
def solve_spy(monkeypatch):
    """Counts SatSession.solve calls and the fixed() answers, True and
    False; a False one is a candidate that needs a probe."""
    counts = {"solves": 0, "fixed": 0, "unfixed": 0}
    solve, fixed = SatSession.solve, SatSession.fixed

    def counted_solve(self, *args, **kwargs):
        counts["solves"] += 1
        return solve(self, *args, **kwargs)

    def counted_fixed(self, lit):
        answer = fixed(self, lit)
        counts["fixed" if answer else "unfixed"] += 1
        return answer

    monkeypatch.setattr(SatSession, "solve", counted_solve)
    monkeypatch.setattr(SatSession, "fixed", counted_fixed)
    return counts


def test_fixed_literals_need_no_probe(solve_spy):
    """With unit clauses some backbone literals are fixed at level 0; the
    backbone still matches enumeration, and each candidate costs a solve
    only when it is not fixed."""
    rng = random.Random(27)
    done = skipped = 0
    while done < 100:
        n = rng.randint(2, 8)
        clauses = random_cnf(rng, n, rng.randint(1, n + 4))
        clauses += [(l,) for l in rng.sample(range(-n, n + 1), rng.randint(1, 3)) if l]
        if not tt_satisfiable(clauses, n):
            continue
        kb = CnfFormula.from_clauses(clauses, n)
        solve_spy.update(solves=0, fixed=0, unfixed=0)
        got = compute_backbone(kb)
        assert frozenset(got) == tt_backbone(clauses, n), (clauses, n)
        assert solve_spy["solves"] == 1 + solve_spy["unfixed"]
        skipped += solve_spy["fixed"] > 0
        done += 1
    assert skipped > 50


def test_root_propagated_backbone_takes_one_solve(solve_spy):
    # variable 6 occurs in no clause, so it is no candidate
    kb = CnfFormula.from_clauses([(1,), (-1, 2), (-2, -3), (3, 4, 5), (-4,)], num_vars=6)
    assert compute_backbone(kb) == (1, 2, -3, -4, 5)
    assert solve_spy["solves"] == 1


def test_fixed_reads_level_zero_only():
    s = SatSession(3)
    s.add_hard((1,))
    s.add_hard((-1, -2))
    s.add_hard((2, 3))
    assert s.fixed(1) and s.fixed(-2) and s.fixed(3)
    assert not (s.fixed(-1) or s.fixed(2) or s.fixed(-3))
    t = SatSession(2)
    t.add_hard((1, 2))
    assert t.solve([-1]).satisfiable
    assert not (t.fixed(-1) or t.fixed(2))  # true, but above level 0
