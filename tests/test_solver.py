from __future__ import annotations

import copy
import hashlib
import itertools
import random
import types

import pytest

from mrex import minsets, solver
from mrex.minsets import Budget, _OutOfTime
from mrex.solver import SatSession, SolverUsageError, _luby

from oracles import random_clause, random_cnf, tt_satisfiable


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


def test_literal_beyond_num_vars_raises():
    with pytest.raises(SolverUsageError, match="beyond"):
        SatSession(2).add_hard((1, 7))


def test_a_rejected_clause_leaves_the_session_unchanged():
    """A clause that fails the literal checks raises before the session
    changes: no selector, no soft clause, and the trail keeps the last
    solve's assumption levels, so the same solve opens none."""
    s = SatSession(4)
    s.add_hard((1, 2, 3))
    sel = s.add_soft((-1, 4))
    assert s.solve([sel, 2, -3]).satisfiable
    levels = s.assumption_levels
    for add in (s.add_hard, s.add_soft):
        for clause in ((1, -1), (0,), (2, 2), (3, 5), (1, "2")):
            with pytest.raises(SolverUsageError):
                add(clause)
    assert (len(s.hard), len(s.soft), len(s._assign)) == (1, 1, 6)
    assert s.solve([sel, 2, -3]).satisfiable
    assert s.assumption_levels == levels
    assert s.add_soft((4,)) == sel + 1


def _session_state(s: SatSession) -> tuple:
    return (_stack_state(s), list(s.hard), list(s.soft), list(s._assign),
            copy.deepcopy(s._bins), copy.deepcopy(s._watches))


BEYOND = "literal {} is beyond the session's 4 variables"

# (clause, message): each fault after a normal prefix, which passes the
# order test, and inside a clause out of variable order, which goes to the
# full check; then clauses with two faults, where the first in clause order
# names the error
BAD_CLAUSES = [
    ((1, 2, 0), "bad literal 0"),
    ((3, 1, 0), "bad literal 0"),
    ((0,), "bad literal 0"),
    ((1, 2, 3.0), "bad literal 3.0"),
    ((3, 1, 1.0), "bad literal 1.0"),
    ((1, 2, "x"), "bad literal 'x'"),
    ((3, 1, "x"), "bad literal 'x'"),
    ((1, 2, 5), BEYOND.format(5)),
    ((3, 1, -5), BEYOND.format(-5)),
    ((6,), BEYOND.format(6)),
    ((1, 7), BEYOND.format(7)),
    ((2, 2), "duplicate literal in clause (2, 2)"),
    ((1, -1), "tautological clause (1, -1)"),
    ((1, 2, 2), "duplicate literal in clause (1, 2, 2)"),
    ((3, 1, 3), "duplicate literal in clause (3, 1, 3)"),
    ((1, 2, -2), "tautological clause (1, 2, -2)"),
    ((2, 1, -2), "tautological clause (2, 1, -2)"),
    ((1, 0, 5), "bad literal 0"),
    ((1, 5, 0), BEYOND.format(5)),
    ((1, -1, 5), "tautological clause (1, -1, 5)"),
    ((3, 2, 2, -2), "duplicate literal in clause (3, 2, 2, -2)"),
    ((3, 2, -2, 2), "tautological clause (3, 2, -2, 2)"),
    ((4, 2, 9, "x"), BEYOND.format(9)),
]


@pytest.mark.parametrize("clause, message", BAD_CLAUSES)
def test_each_malformed_clause_raises_its_message_and_changes_nothing(clause, message):
    """Every rejection names the first faulty literal in clause order,
    whether the clause is in variable order up to the fault or not, and
    raises before the session changes: stack, trail, clauses, assignment,
    binary lists and watches are as they were."""
    s = SatSession(4)
    s.add_hard((1, 2, 3))
    s.add_hard((-2, 4))
    sel = s.add_soft((-1, 4))
    assert s.solve([sel, 2, -3]).satisfiable
    before = _session_state(s)
    for add in (s.add_hard, s.add_soft):
        with pytest.raises(SolverUsageError) as info:
            add(clause)
        assert str(info.value) == message
        assert _session_state(s) == before


def test_a_valid_clause_out_of_variable_order_loads_as_given():
    """A clause out of variable order passes the full check and is loaded
    in the order given, its literals read at the root like any other."""
    s = SatSession(4)
    s.add_hard((-4,))
    s.add_hard((2, 1))
    s.add_hard((3, -1, 4, 2))
    sel = s.add_soft((4, 3, 1))
    s.add_hard((4, 3))  # 4 is false at the root: the unit 3
    assert s.hard == [(-4,), (2, 1), (3, -1, 4, 2), (4, 3)]
    assert s.soft == [(4, 3, 1)]
    assert s._bins[2] == [1] and s._bins[1] == [2]
    assert s._watches[3] == [[3, -1, 2], [-sel, 3, 1]]
    assert s._watches[-1] == [[3, -1, 2]] and s._watches[-sel] == [[-sel, 3, 1]]
    assert s.fixed(3) and s.fixed(-4)


def test_clauses_out_of_variable_order_answer_as_their_normal_form():
    """Random sessions take clauses in normal form and shuffled out of
    variable order, hard and soft, with solves in between; a twin session
    takes every clause in normal form.  Both answer every solve as the
    truth table does."""
    rng = random.Random(31)
    shuffled = answers = unsat = 0
    for _ in range(80):
        n = rng.randint(4, 9)
        s, twin = SatSession(n), SatSession(n)
        hard: list[tuple[int, ...]] = []
        soft: list[tuple[int, ...]] = []
        for _ in range(rng.randint(10, 40)):
            c = random_clause(rng, n, rng.randint(1, 5))
            lits = c
            if len(c) > 1 and rng.random() < 0.5:
                while lits == c:
                    lits = tuple(rng.sample(c, len(c)))
                shuffled += 1
            if rng.random() < 0.6:
                s.add_hard(lits)
                twin.add_hard(c)
                hard.append(c)
            else:
                assert s.add_soft(lits) == twin.add_soft(c)
                soft.append(c)
            if rng.random() < 0.3:
                ids = [i for i in range(len(soft)) if rng.random() < 0.6]
                want = tt_satisfiable(hard + [soft[i] for i in ids], n)
                assert s.solve_ids(ids).satisfiable == want
                assert twin.solve_ids(ids).satisfiable == want
                answers += 1
                unsat += not want
    assert shuffled >= 700 and answers >= 500 and unsat >= 150


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
    # every assumption is checked before the contradiction check ...
    with pytest.raises(SolverUsageError):
        SatSession(2).solve([1, -1, 99])
    # ... and before a session that is unsat at the root answers
    s.add_hard(())
    assert not s.solve().satisfiable
    with pytest.raises(SolverUsageError):
        s.solve([99])


def test_solve_ids_rejects_positions_outside_the_soft_clauses():
    # id -1 would assume problem variable 3, and id 1 the selector of a
    # soft clause not yet added; both are named in the error
    s = SatSession(3)
    s.add_hard((-3,))
    s.add_soft((1,))
    with pytest.raises(SolverUsageError, match="soft clause id -1 "):
        s.solve_ids([0, -1])
    with pytest.raises(SolverUsageError, match="soft clause id 1 "):
        s.solve_ids([1, 0])
    res = s.solve_ids([0])
    assert res.satisfiable and s.solve_ids([]).satisfiable


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
    assert len(res.model) == len(s._assign)


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


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _random_3sat(seed: int, num_vars: int, num_clauses: int) -> list[tuple[int, ...]]:
    """Clauses of three distinct variables, sorted by variable as the
    DIMACS reader stores them."""
    rng = random.Random(seed)
    out = []
    for _ in range(num_clauses):
        lits = [v if rng.random() >= 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)]
        out.append(tuple(sorted(lits, key=abs)))
    return out


def test_solve_survives_a_restart():
    # the first restart comes after 256 conflicts; this solve needs more
    s = SatSession(90)
    for c in _random_3sat(1, 90, 383):
        s.add_hard(c)
    assert s.solve().satisfiable
    assert s.conflicts > 256
    assert s.decisions > 0


def test_deadline_passing_mid_solve_stops_the_solve(monkeypatch):
    """The restart instance's solve needs more than 256 conflicts; once the
    clock passes the deadline, the solve raises at its 256th conflict, and
    the session still answers its next solve."""
    offset = [0.0]
    real_time = minsets.time
    monkeypatch.setattr(minsets, "time", types.SimpleNamespace(
        monotonic=lambda: real_time.monotonic() + offset[0]))
    budget = Budget(1000.0)
    s = SatSession(90, budget=budget)
    for c in _random_3sat(1, 90, 383):
        s.add_hard(c)
    offset[0] = 1e6
    with pytest.raises(_OutOfTime):
        s.solve()
    assert s.conflicts == 256
    offset[0] = 0.0
    res = s.solve_ids(())  # audited: tests run with check_models on
    assert res.satisfiable and budget.calls == 1
    assert all(any(res.value(l) for l in c) for c in s.hard)


class _StopAtRootUnit:
    """A budget whose check stops the solve right after it learns a unit
    clause: back at level 0 with that unit not yet propagated."""

    session: SatSession

    def check(self):
        s = self.session
        if not s._trail_lim and s._qhead < len(s._trail):
            raise _OutOfTime


def test_solves_after_a_stop_at_a_learnt_root_unit_stay_sound(monkeypatch):
    """The unit a stopped solve learnt is still pending at the root; the
    next solves, with and without assumptions, agree with the truth
    table."""
    monkeypatch.setattr(solver, "_POLL_CONFLICTS", 1)
    rng = random.Random(5)
    stops = unsat = 0
    for _ in range(40):
        n = 12
        clauses = [random_clause(rng, n, 3) for _ in range(rng.randint(45, 60))]
        budget = _StopAtRootUnit()
        s = SatSession(n, budget=budget)
        budget.session = s
        for c in clauses:
            s.add_hard(c)
        try:
            s.solve()
        except _OutOfTime:
            stops += 1
        else:
            continue
        s.budget = None
        sat = tt_satisfiable(clauses, n)
        unsat += not sat
        assert s.solve().satisfiable == sat
        for _ in range(5):
            lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            want = tt_satisfiable(clauses + [(l,) for l in lits], n)
            assert s.solve(lits).satisfiable == want
    assert stops >= 10 and 0 < unsat < stops


def test_learnts_are_reduced_at_a_restart(monkeypatch):
    """A solve that passes the learnt limit reduces at its next restart,
    at level 0, and still proves 7 pigeons do not fit in 6 holes."""
    monkeypatch.setattr(solver, "_MIN_LEARNTS", 0)  # the limit is 2 * 133
    s = SatSession(42)
    for p in range(7):
        s.add_hard(tuple(p * 6 + h + 1 for h in range(6)))
    for h in range(6):
        for p1, p2 in itertools.combinations(range(7), 2):
            s.add_hard((-(p1 * 6 + h + 1), -(p2 * 6 + h + 1)))
    reductions = []
    reduce_db = s._reduce_db

    def spy():
        reductions.append((len(s._trail_lim), len(s._learnts)))
        reduce_db()

    s._reduce_db = spy
    assert not s.solve().satisfiable
    assert s.conflicts > 512
    assert reductions and all(level == 0 and n > 2 * 133 for level, n in reductions)


def test_learnt_clauses_stay_bounded_without_restarts(monkeypatch):
    """Solves that each stay under the first restart still shrink the
    learnt clauses once they pass the limit, at the start of a solve."""
    monkeypatch.setattr(solver, "_MIN_LEARNTS", 20)  # the limit is 2 * 340
    rng = random.Random(3)
    s = SatSession(80)
    for c in _random_3sat(3, 80, 340):
        s.add_hard(c)
    limit = 2 * 340
    for _ in range(1200):
        before = s.conflicts
        s.solve([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 81), 12)])
        assert s.conflicts - before < 256
        assert len(s._learnts) <= limit + (s.conflicts - before)
    assert s.conflicts > 2 * limit


def test_pick_branch_matches_brute_force():
    """Every decision takes the unassigned problem variable of largest
    activity, the smallest one among ties, also across a 1e100 rescale;
    selectors are never decided."""
    rng = random.Random(31)
    picks = conflicts = 0
    for k in range(30):
        n = rng.randint(15, 40)
        s = SatSession(n)
        if k == 0:
            s._var_inc = 1e99
        pick = s._pick_branch

        def checked(s=s, pick=pick):
            nonlocal picks
            free = [(-s._activity[v], v) for v in range(1, s.num_vars + 1)
                    if s._assign[v] == 0]
            v = pick()
            assert v == (min(free)[1] if free else 0)
            assert len(s._order) == s.num_vars
            picks += 1
            return v

        s._pick_branch = checked
        sels = [s.add_soft(c) for c in random_cnf(rng, n, 13 * n) if len(c) == 3]
        for step in range(15):
            if step % 5 == 4:
                s.add_hard(random_cnf(rng, n, 1)[0])
            p = rng.choice((0.5, 0.7, 0.9))
            chosen = [x for x in sels if rng.random() < p]
            chosen += [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), 2)]
            s.solve(chosen)
        conflicts += s.conflicts
        if k == 0:
            assert s._var_inc < 1e50  # the rescale ran
    assert picks > 3000 and conflicts > 300


def test_tied_activities_pick_the_smallest_variable():
    s = SatSession(3)
    s._bump(2)
    assert s._pick_branch() == 2
    s._bump(1)  # same increment: 1 and 2 tie, and 1 now ranks first
    assert s._pick_branch() == 1
    assert s._order == [1, 2, 3]


def _clause3(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))


def test_golden_digest_of_incremental_solves():
    """Models and conflict subsets of a fixed sequence of incremental
    solves, each under the 256 conflicts of the first restart.  A change to
    any decision the solver makes changes the digest."""
    rng = random.Random(7)
    h = hashlib.sha256()
    for k in range(13):
        n = rng.randint(20, 40)
        s = SatSession(n)
        if k == 12:
            s._var_inc = 1e99  # reaches the 1e100 rescale
        for _ in range(2 * n):
            s.add_hard(_clause3(rng, n))
        sels = [s.add_soft(_clause3(rng, n)) for _ in range(3 * n)]
        for step in range(12):
            if step % 4 == 3:
                s.add_hard(_clause3(rng, n))
            chosen = [x for x in sels if rng.random() < 0.7]
            chosen += [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            before = s.conflicts
            r = s.solve(chosen)
            assert s.conflicts - before < 256
            if r.satisfiable:
                line = "sat " + "".join("1" if b else "0" for b in r.model[1:])
            else:
                line = "unsat " + " ".join(map(str, sorted(r.conflict_subset)))
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == "133502a5815897838634f636691fdbf50dc8fecf8f42c0bfe775916c7584b8ba"


def test_a_solve_keeps_the_assumption_levels_still_assumed():
    """Extending the last assumption set by one literal opens one level,
    even when the new literal sorts first; dropping one keeps the levels
    below it, and the rest follow in the caller's order.  add_hard drops to level 0, and an answer leaves the trail in
    place: a failed assumption opens no level, and the same set without
    the failed literal opens none."""
    s = SatSession(10)
    s.add_hard((1, 2, 3))
    assert s.solve([4, 5, 6]).satisfiable
    assert s.assumption_levels == 3
    assert s.solve([4, 5, 6, -1]).satisfiable  # order 4 5 6 -1
    assert s.assumption_levels == 4
    assert s.solve([4, 6, -1]).satisfiable  # keeps 4, then 6 -1
    assert s.assumption_levels == 6
    s.add_hard((-7, -8))
    assert s.solve([4, 6, -1]).satisfiable  # order 4 6 -1
    assert s.assumption_levels == 9
    res = s.solve([-1, 4, 6, 7, 8])  # 7 implies -8
    assert res.conflict_subset == {7, 8}
    assert s.assumption_levels == 10
    assert s.solve([-1, 4, 6, 7]).satisfiable
    assert s.assumption_levels == 10


def _stack_state(s: SatSession) -> tuple:
    return (list(s._assumed), list(s._trail), list(s._trail_lim))


def test_push_ids_checks_a_batch_before_the_stack_changes():
    """A position out of range anywhere in a batch raises, and the stack
    and the trail stay as they were."""
    s = SatSession(3)
    s.add_hard((1, 2))
    for c in ((1,), (2,), (3,)):
        s.add_soft(c)
    s.push_ids([0])
    assert s.solve(None).satisfiable
    before = _stack_state(s)
    for batch, bad in (([1, 3], "3"), ([1, -1], "-1")):
        with pytest.raises(SolverUsageError, match=f"soft clause id {bad} "):
            s.push_ids(batch)
        assert _stack_state(s) == before
    s.push_ids([1, 2])
    assert s._assumed == [4, 5, 6]


def test_a_list_solve_that_fails_its_literal_check_leaves_the_session_as_it_was():
    """The literals a list solve would push are checked before the pop of
    the entries it does not keep: a bad one raises with the stack and the
    trail as they were, and the next solve under the stack opens no level."""
    s = SatSession(3)
    s.add_hard((1, 2))
    for c in ((1,), (2,), (3,)):
        s.add_soft(c)
    s.push_ids([0, 1])
    assert s.solve(None).satisfiable
    before = _stack_state(s)
    with pytest.raises(SolverUsageError, match="assumption 99 "):
        s.solve([4, 99])  # would keep 4 and pop 5
    assert _stack_state(s) == before
    levels = s.assumption_levels
    assert s.solve(None).satisfiable
    assert s.assumption_levels == levels


def test_pop_beyond_the_stack_raises():
    s = SatSession(2)
    s.add_soft((1,))
    s.add_soft((2,))
    s.push_ids([0, 1])
    assert s.solve(None).satisfiable
    before = _stack_state(s)
    for k in (3, -1):
        with pytest.raises(SolverUsageError):
            s.pop(k)
        assert _stack_state(s) == before
    s.pop(2)
    assert s._assumed == [] and not s._trail_lim


def test_a_push_after_a_model_opens_one_level_above_the_placed_ones():
    """A SAT answer leaves decision levels above the assumption levels.
    An entry pushed after it is not placed: the next solve keeps only the
    assumption levels, drops the decisions and opens one level, and it
    answers as a fresh session does; a failed push opens no level.  The
    model audit (on in tests) checks that every pushed clause holds."""
    clauses = [(-1, 2), (-3, -4), (4, 5, 6)]
    soft = [(1,), (3,), (-2,), (-5,)]

    def session():
        s = SatSession(6)
        for c in clauses:
            s.add_hard(c)
        for c in soft:
            s.add_soft(c)
        return s

    s = session()
    s.push_ids([0])
    assert s.solve(None).satisfiable
    assert len(s._trail_lim) > len(s._assumed) == 1  # decisions left on the trail
    for i, sat, opened in ((1, True, 1), (3, True, 1), (2, False, 0)):
        levels, conflicts = s.assumption_levels, s.conflicts
        s.push_ids([i])
        res = s.solve(None)
        assert s.conflicts == conflicts and s.assumption_levels == levels + opened
        fresh = session().solve(list(s._assumed))
        assert res.satisfiable == fresh.satisfiable == sat
    # x1 implies x2, so the selector of (-2,) is false before it is placed
    assert res.conflict_subset == fresh.conflict_subset == {7, 9}


def test_a_list_solve_after_pushes_and_pops_keeps_the_assumed_prefix():
    """solve(list) keeps the longest prefix of placed entries that the list
    still assumes, whatever pushes and pops built the stack."""
    s = SatSession(4)
    for c in ((1,), (2,), (3,), (4,), (-1, -4)):
        s.add_soft(c)
    s.push_ids([0, 1, 2])
    assert s.solve(None).satisfiable
    assert s.assumption_levels == 3
    s.pop(1)
    s.push_ids([3])
    assert s.solve(None).satisfiable
    assert s.assumption_levels == 4  # 5 and 6 kept, 8 opens one
    assert s.solve([5, 6, 7, 9]).satisfiable  # keeps 5 6, pushes 7 9
    assert s._assumed == [5, 6, 7, 9] and s.assumption_levels == 6
    s.pop(2)
    assert s.solve([6, 8, 5]).satisfiable  # 5 and 6 kept, 8 after them
    assert s._assumed == [5, 6, 8] and s.assumption_levels == 7
    assert s.solve([6, 8]).satisfiable  # 5 is gone: every level re-placed
    assert s._assumed == [6, 8] and s.assumption_levels == 9
    assert s.solve([6, 8, 9]).satisfiable  # extends the kept levels by one
    assert s._assumed == [6, 8, 9] and s.assumption_levels == 10


def test_a_session_keeps_its_attributes_inline():
    """CPython 3.11 keeps at most 29 instance attributes inline; a 30th
    slows every attribute access of the solver.  A session holds 27, and
    an attribute added or dropped shows here."""
    assert len(vars(SatSession(1))) == 27


def test_reused_assumption_levels_keep_answers_sound(monkeypatch):
    """Random sessions solve sequences of overlapping assumption sets over
    selectors and problem literals, with clauses added in between,
    complementary pairs, learnt reductions forced often and solves stopped
    at a conflict by a passed deadline.  Some steps pop and push the stack
    and solve under it instead, and the step after a stopped solve pushes
    onto the trail that the stop left.  Every answer agrees with the
    truth table; every conflict subset is a subset of the assumptions and
    unsatisfiable on its own."""
    monkeypatch.setattr(solver, "_MIN_LEARNTS", 6)
    monkeypatch.setattr(solver, "_POLL_CONFLICTS", 1)
    offset = [0.0]
    real_time = minsets.time
    monkeypatch.setattr(minsets, "time", types.SimpleNamespace(
        monotonic=lambda: real_time.monotonic() + offset[0]))
    reductions = []
    real_reduce = SatSession._reduce_db

    def reduce_db(s):
        assert not s._trail_lim
        reductions.append(s)
        real_reduce(s)

    monkeypatch.setattr(SatSession, "_reduce_db", reduce_db)
    rng = random.Random(23)
    answers = unsat = clashes = stopped = reused = 0
    stack_answers = pushes_after_stop = 0
    for _ in range(30):
        n = rng.randint(10, 12)
        s = SatSession(n, budget=Budget(1000.0))
        hard = [_clause3(rng, n) for _ in range(3 * n)]
        for c in hard:
            s.add_hard(c)
        soft = {}  # selector -> clause
        for c in [_clause3(rng, n) for _ in range(2 * n)]:
            soft[s.add_soft(c)] = c
        if rng.random() < 0.5:
            s._n_problem_clauses = 0  # reduce past _MIN_LEARNTS learnts

        def clauses(lits):
            return hard + [soft[x] if x > n else (x,) for x in lits]

        assumed: list[int] = rng.sample(sorted(soft), n // 2)
        stopped_last = False
        for _ in range(80):
            step = rng.random()
            if step < 0.05:
                c = _clause3(rng, n)
                s.add_hard(c)
                hard.append(c)
            elif step < 0.1:
                c = _clause3(rng, n)
                soft[s.add_soft(c)] = c
            on_stack = stopped_last or rng.random() < 0.3
            step = rng.random()
            if on_stack:
                # a pop backtracks below the stack's top, so none follows a
                # stop: the push meets the levels the stopped solve left
                if not stopped_last and step < 0.5:
                    s.pop(rng.randint(0, min(2, len(s._assumed))))
                free = sorted(set(soft) - set(s._assumed))
                pushed = rng.sample(free, min(rng.randint(1, 2), len(free)))
                s.push_ids([x - n - 1 for x in pushed])
                pushes_after_stop += stopped_last and bool(pushed)
                assumed = list(s._assumed)
            elif step < 0.35:
                free = sorted(set(soft) - set(assumed))
                assumed += rng.sample(free, min(2, len(free)))
            elif step < 0.7:
                for x in rng.sample(assumed, min(2, len(assumed))):
                    assumed.remove(x)
            elif step < 0.8:
                assumed.append(rng.choice((1, -1)) * rng.randint(1, n))
            elif step < 0.85:
                lits = [x for x in assumed if abs(x) <= n]
                if lits:
                    assumed.append(-rng.choice(lits))
            elif step < 0.9:
                assumed = rng.sample(sorted(soft), n // 2)
            if rng.random() < 0.15:
                offset[0] = 1e6
            aset = set(assumed)
            before = s.assumption_levels
            stopped_last = False
            try:
                res = s.solve(None if on_stack else aset)
            except _OutOfTime:
                stopped += 1
                stopped_last = True
                continue
            finally:
                offset[0] = 0.0
            answers += 1
            stack_answers += on_stack
            # a SAT answer holds one level per assumption; fewer opened
            # means levels were kept
            reused += res.satisfiable and s.assumption_levels - before < len(aset)
            assert res.satisfiable == tt_satisfiable(clauses(aset), n)
            if not res.satisfiable:
                unsat += 1
                assert res.conflict_subset <= aset
                assert not tt_satisfiable(clauses(res.conflict_subset), n)
                clashes += any(-x in res.conflict_subset for x in res.conflict_subset)
    assert answers >= 2000 and unsat >= 500 and clashes >= 150
    assert stopped >= 30 and reused >= 800 and len(reductions) >= 25
    assert stack_answers >= 600 and pushes_after_stop >= 30


def test_repeated_assumptions_answer_soundly_on_both_paths():
    """Random sessions push batches that repeat a position or re-push one
    already on the stack, and solve lists that repeat a literal.  Each step
    runs on a copy of the session too, without the repeats.  A repeat is
    one more stack entry and nothing else: both copies give the same
    answer, with the same conflicts and decisions, and a SAT answer found
    without a conflict opens one more level per extra entry, an empty one.
    Every answer agrees with the truth table; every conflict subset is a
    subset of the assumptions and unsatisfiable on its own."""
    rng = random.Random(31)
    answers = unsat = pushed_repeats = listed_repeats = empty_levels = 0
    for _ in range(40):
        n = rng.randint(8, 10)
        s = SatSession(n)
        hard = [_clause3(rng, n) for _ in range(3 * n)]
        for c in hard:
            s.add_hard(c)
        sels = [s.add_soft(_clause3(rng, n)) for _ in range(2 * n)]
        clause_of = dict(zip(sels, s.soft))

        def clauses(lits):
            return hard + [clause_of[x] if x > n else (x,) for x in lits]

        for _ in range(25):
            if rng.random() < 0.3:
                s.pop(rng.randint(0, len(s._assumed)))
            twin = copy.deepcopy(s)
            if rng.random() < 0.5:
                batch = rng.sample(sels, rng.randint(1, 3))
                on_stack = [x for x in s._assumed if x > n]
                batch.insert(rng.randint(0, len(batch)), rng.choice(batch + on_stack))
                ids = [x - n - 1 for x in batch]
                s.push_ids(ids)
                twin.push_ids([i for i in dict.fromkeys(ids)
                               if i + n + 1 not in twin._assumed])
                pushed_repeats += len(s._assumed) - len(twin._assumed)
                lits = None
            else:
                lits = rng.sample(sels, rng.randint(1, 4))
                lits += [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 2)]
                lits.insert(rng.randint(0, len(lits)), rng.choice(lits))
            counters = (s.conflicts, s.decisions, s.assumption_levels)
            twin_counters = (twin.conflicts, twin.decisions, twin.assumption_levels)
            res = s.solve(lits)
            twin_res = twin.solve(None if lits is None else list(dict.fromkeys(lits)))
            extra = len(s._assumed) - len(twin._assumed)
            if lits is not None:
                listed_repeats += extra
            assert res == twin_res
            opened = s.assumption_levels - counters[2]
            twin_opened = twin.assumption_levels - twin_counters[2]
            assert s.conflicts - counters[0] == twin.conflicts - twin_counters[0]
            assert s.decisions - counters[1] == twin.decisions - twin_counters[1]
            assumed = set(s._assumed)
            answers += 1
            assert res.satisfiable == tt_satisfiable(clauses(assumed), n)
            if not res.satisfiable:
                unsat += 1
                assert res.conflict_subset <= assumed
                assert not tt_satisfiable(clauses(res.conflict_subset), n)
            elif s.conflicts == counters[0]:
                assert opened == twin_opened + extra
                lim = s._trail_lim + [len(s._trail)]
                for j, x in enumerate(s._assumed):
                    if x in s._assumed[:j]:
                        assert lim[j] == lim[j + 1]  # level j + 1 is empty
                        empty_levels += 1
    assert answers == 1000 and unsat >= 250
    assert pushed_repeats >= 500 and listed_repeats >= 300 and empty_levels >= 800


def test_conflicts_under_assumptions_end_solves_soundly(monkeypatch):
    """Random sessions solve drifting assumption lists, in random order and
    with repeats, so that propagation over the assumption levels alone
    often conflicts.  Such a conflict ends its solve with the learnt
    clause's asserting literal pending on the trail.  Every answer agrees
    with the truth table, every conflict subset is a subset of the
    assumptions and unsatisfiable on its own, and the next solve, which
    often keeps the level the literal waits on, answers soundly too, also
    after a passed deadline stopped a solve at a conflict."""
    monkeypatch.setattr(solver, "_POLL_CONFLICTS", 1)
    offset = [0.0]
    real_time = minsets.time
    monkeypatch.setattr(minsets, "time", types.SimpleNamespace(
        monotonic=lambda: real_time.monotonic() + offset[0]))
    targets: list[int] = []
    real_backtrack = SatSession._backtrack

    def backtrack(s, level):
        targets.append(level)
        real_backtrack(s, level)

    monkeypatch.setattr(SatSession, "_backtrack", backtrack)
    rng = random.Random(5)
    answers = ended = kept_pending = stopped = 0
    for _ in range(50):
        n = rng.randint(9, 12)
        s = SatSession(n, budget=Budget(1000.0))
        hard = [_clause3(rng, n) for _ in range(3 * n)]
        for c in hard:
            s.add_hard(c)
        sels = [s.add_soft(_clause3(rng, n)) for _ in range(3 * n)]
        clause_of = dict(zip(sels, s.soft))

        def clauses(lits):
            return hard + [clause_of[x] if x > n else (x,) for x in lits]

        assumed: list[int] = []
        for _ in range(80):
            if rng.random() < 0.6 or not assumed:
                assumed.append(rng.choice(sels) if rng.random() < 0.7
                               else rng.choice((1, -1)) * rng.randint(1, n))
            else:
                assumed.remove(rng.choice(assumed))
            order = list(assumed)
            if rng.random() < 0.3:
                rng.shuffle(order)
            if order and rng.random() < 0.1:
                order.append(rng.choice(order))
            pending = s._trail_lim and s._qhead < len(s._trail)
            level = len(s._trail_lim)
            conflicts = s.conflicts
            targets.clear()
            offset[0] = 1e6 if rng.random() < 0.2 else 0.0
            try:
                res = s.solve(order)
            except _OutOfTime:
                stopped += 1
                continue
            finally:
                offset[0] = 0.0
            answers += 1
            kept_pending += bool(pending) and targets[0] >= level
            assert res.satisfiable == tt_satisfiable(clauses(order), n)
            if not res.satisfiable:
                assert res.conflict_subset <= set(order)
                assert not tt_satisfiable(clauses(res.conflict_subset), n)
                ended += s.conflicts > conflicts and s._qhead < len(s._trail)
    assert answers >= 3500 and stopped >= 40
    assert ended >= 100 and kept_pending >= 150


def test_propagations_count_the_dequeued_trail_literals():
    """The unit 1 runs down a chain of two binary clauses and a ternary
    one: four trail literals dequeued.  Assuming 5, which nothing watches
    negated, dequeues none; assuming a selector dequeues it and the literal
    its guarded clause, binary after root simplification, implies."""
    s = SatSession(6)
    s.add_hard((-1, 2))
    s.add_hard((-2, 3))
    s.add_hard((-2, -3, 4))
    assert s.propagations == 0
    s.add_hard((1,))
    assert s.propagations == 4
    assert s.solve([5]).satisfiable
    assert s.propagations == 4
    sel = s.add_soft((-4, 6))
    res = s.solve([sel])
    assert res.satisfiable and res.value(6)
    assert s.propagations == 6


def test_only_assumed_selectors_are_true_and_none_is_decided():
    """No decision picks a selector, and a selector is true in a SAT model
    exactly when the solve assumed it true, also when other selectors are
    assumed false.  Every answer agrees with the truth table."""
    rng = random.Random(41)
    sat = decided = 0
    for _ in range(40):
        n = rng.randint(6, 10)
        s = SatSession(n)
        pick = s._pick_branch

        def checked(s=s, pick=pick):
            nonlocal decided
            v = pick()
            assert 0 <= v <= s.num_vars
            decided += v > 0
            return v

        s._pick_branch = checked
        hard = random_cnf(rng, n, n // 2)
        for c in hard:
            s.add_hard(c)
        soft = {s.add_soft(c): c for c in random_cnf(rng, n, 2 * n)}
        sels = sorted(soft)
        for _ in range(25):
            aset = {x for x in sels if rng.random() < 0.25}
            aset |= {-x for x in sels if x not in aset and rng.random() < 0.1}
            aset |= {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2)}
            res = s.solve(aset)
            clauses = hard + [soft[x] for x in aset if x > n]
            clauses += [(x,) for x in aset if abs(x) <= n]
            assert res.satisfiable == tt_satisfiable(clauses, n)
            if res.satisfiable:
                sat += 1
                assert [x for x in sels if res.model[x]] == sorted(aset.intersection(sels))
    assert sat >= 450 and decided >= 1400


def test_binary_heavy_sessions_stay_sound(monkeypatch):
    """Mostly binary hard clauses, soft units (binary once guarded) and soft
    binaries, hard clauses added between solves (among them units that make
    a binary clause unit at level 0) and a learnt reduction at nearly every
    solve.  Every answer agrees with the truth table, and every conflict
    subset is a subset of the assumptions and unsatisfiable on its own."""
    monkeypatch.setattr(solver, "_MIN_LEARNTS", 0)
    reductions = []  # (binary learnts, learnts dropped) per reduction
    real_reduce = SatSession._reduce_db

    def reduce_db(s):
        before = len(s._learnts)
        real_reduce(s)
        reductions.append((sum(len(c) == 2 for c in s._learnts), before - len(s._learnts)))

    monkeypatch.setattr(SatSession, "_reduce_db", reduce_db)
    rng = random.Random(57)
    answers = unsat = root_units = 0
    for _ in range(40):
        n = rng.randint(12, 14)
        s = SatSession(n)
        hard = [random_clause(rng, n, 2) for _ in range(4 * n // 5)]
        hard += [random_clause(rng, n, 3) for _ in range(6 * n // 5)]
        for c in hard:
            s.add_hard(c)
        soft = {}  # selector -> clause
        for _ in range(2 * n):
            c = random_clause(rng, n, rng.choice((1, 1, 2)))
            soft[s.add_soft(c)] = c

        def clauses(lits):
            return hard + [soft[x] if x > n else (x,) for x in lits]

        for _ in range(60):
            if rng.random() < 0.1:
                binaries = [c for c in hard if len(c) == 2]
                c = (-rng.choice(rng.choice(binaries)),)
                if not tt_satisfiable(hard + [c], n):
                    c = random_clause(rng, n, 2)
                root_units += len(c) == 1
                s.add_hard(c)
                hard.append(c)
            s._n_problem_clauses = 0  # reduce once the learnts are not empty
            aset = {x for x in soft if rng.random() < 0.08}
            aset |= {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2)}
            res = s.solve(aset)
            answers += 1
            assert res.satisfiable == tt_satisfiable(clauses(aset), n)
            if not res.satisfiable:
                unsat += 1
                assert res.conflict_subset <= aset
                assert not tt_satisfiable(clauses(res.conflict_subset), n)
    assert answers == 2400 and 1500 <= unsat <= 1900 and root_units >= 100
    # binary learnts survive every reduction; longer ones are dropped
    assert len(reductions) >= 700 and sum(b for b, _ in reductions) >= 1000
    assert sum(d for _, d in reductions) >= 10
