from __future__ import annotations

import random
import types
from pathlib import Path

import pytest

import mrex.reconcile as reconcile_module
from mrex import minsets
from mrex.cli import _build_parser, run_explain_plan
from mrex.formula import CnfFormula
from mrex.minsets import (
    Budget,
    NothingToCorrectError,
    NotUnsatisfiableError,
    Rotation,
    extract_mcs,
    extract_mus,
    workspace,
)
from mrex.reconcile import GENERAL, RESTRICTED, ReconcileProblem, ReconcileTimeout, reconcile
from mrex.solver import SatSession, SolverUsageError

from oracles import (
    extract_mcs_by_lists,
    random_reconcile_instance,
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
        workspace(3, [(-1,)], [(1,), (4,)])
    assert workspace(4, [(-1,)], [(1,), (4,)]).solve_ids([1]).satisfiable


def test_mcs_of_worked_base_with_negated_goal():
    hard = [(-3,), (5,), (-1,)]
    res = extract_mcs(workspace(5, hard, BASE))
    assert res.ids in {frozenset({0}), frozenset({1, 3}), frozenset({1, 4})}


def test_mcs_respects_seed():
    hard = [(-3,), (5,), (-1,)]
    res = extract_mcs(workspace(5, hard, BASE), seed={1})
    assert res.ids == {0}


def test_mcs_seed_conflict_detected():
    # seed {(-3,)} against hard (3) is already unsatisfiable
    assert extract_mcs(workspace(3, [(3,)], [(-3,), (1,)]), seed={0}) is None


def test_mcs_nothing_to_correct():
    with pytest.raises(NothingToCorrectError):
        extract_mcs(workspace(3, [(3,)], [(1,), (2,)]))


def test_mus_of_worked_support_clauses():
    soft = [(-3,), (5,), (1, 2), (-2, 3)]
    hard = [(-1,)]
    res = extract_mus(workspace(5, hard, soft))
    assert res.ids == {0, 2, 3}


def test_mus_requires_unsat():
    with pytest.raises(NotUnsatisfiableError):
        extract_mus(workspace(2, [], [(1,), (2,)]))


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
        got = extract_mcs(workspace(n, hard, soft))
        assert got.ids in all_mcs


def test_extracted_mus_is_among_enumerated_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(3, 6)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 5), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        all_mus = tt_all_muses(soft, hard, n)
        got = extract_mus(workspace(n, hard, soft))
        assert got.ids in all_mus


def test_shared_workspace_reuse():
    hard = [(-3,), (5,), (-1,)]
    budget = Budget(None)
    ws = workspace(5, hard, BASE, budget=budget)
    first = extract_mcs(ws)
    second = extract_mcs(ws, seed={1})
    assert first.ids in {frozenset({0}), frozenset({1, 3}), frozenset({1, 4})}
    assert second.ids == {0}
    assert budget.calls > 0


def test_mcs_deterministic():
    hard = [(-3,), (5,), (-1,)]
    a = extract_mcs(workspace(5, hard, BASE))
    b = extract_mcs(workspace(5, hard, BASE))
    assert a == b


def _log_workspaces(monkeypatch) -> list[SatSession]:
    """The workspace of every solve, in call order."""
    log = []
    real = SatSession.solve_ids

    def solve_ids(ws, ids):
        log.append(ws)
        return real(ws, ids)

    monkeypatch.setattr(SatSession, "solve_ids", solve_ids)
    return log


def test_mus_search_after_the_first_solve_runs_on_the_first_core(monkeypatch):
    """Only the first solve sees every soft clause; the deletion pass runs
    in one workspace of exactly the first core's clauses, same hard ones."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve in ws
    log = _log_workspaces(monkeypatch)
    rng = random.Random(13)
    strict = 0
    for _ in range(80):
        n = rng.randint(3, 6)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 5), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        probe = workspace(n, hard, soft)  # same history, same core
        core = sorted(probe.core_ids(probe.solve_ids(range(len(soft)))))
        if len(core) == len(soft):
            continue
        strict += 1
        ws = workspace(n, hard, soft)
        log.clear()
        got = extract_mus(ws)
        assert log[0] is ws
        inner = set(map(id, log[1:]))
        assert len(inner) == 1 and id(ws) not in inner
        assert log[1].soft == [soft[i] for i in core]
        assert log[1].hard == ws.hard and log[1].num_vars == n
        assert got.ids in tt_all_muses(soft, hard, n)
    assert strict >= 20


def test_rotation_marks_only_necessary_clauses():
    """Every clause that rotation marks from a solver model is necessary:
    the hard clauses and the live clauses without it are satisfiable.  Live
    sets are all soft clauses and the first core."""
    rng = random.Random(14)
    models = beyond = 0
    for _ in range(120):
        n = rng.randint(3, 7)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 6), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        ws = workspace(n, hard, soft)
        rotation = Rotation(ws)
        core = ws.core_ids(ws.solve_ids(range(len(soft))))
        for live in (set(range(len(soft))), core):
            for i in sorted(live):
                r = ws.solve_ids(live - {i})
                if not r.satisfiable:
                    continue
                models += 1
                necessary: set[int] = set()
                rotation.mark(r.model, i, live, necessary)
                assert i in necessary <= live
                beyond += len(necessary) - 1
                for j in necessary:
                    rest = [soft[k] for k in sorted(live - {j})]
                    assert tt_satisfiable(hard + rest, n), (soft, hard, sorted(live), i, j)
    assert models >= 300 and beyond >= 300


# x1, x1->x2, ..., x9->x10, -x10: its own MUS, and every clause is necessary
_TEN_CHAIN = [(1,)] + [(-k, k + 1) for k in range(1, 10)] + [(-10,)]


def test_rotation_saves_the_solves_of_a_chain(monkeypatch):
    """Without rotation the deletion pass makes one solve per chain clause
    (12 with the first); the first SAT answer's model rotates along the
    whole chain."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve too
    budget = Budget(None)
    got = extract_mus(workspace(10, [], _TEN_CHAIN, budget=budget))
    assert got.ids == frozenset(range(len(_TEN_CHAIN)))
    assert budget.calls == 2


def test_rotation_ignores_clauses_outside_the_live_set():
    """The MUS pass's live set shrinks to each core, so the workspace holds
    clauses that no longer count: (-1,) is falsified by the first flip but
    is not live, and the rotation still runs along the whole chain."""
    ws = workspace(10, [], _TEN_CHAIN + [(-1,)])
    live = set(range(len(_TEN_CHAIN)))
    r = ws.solve_ids(live - {0})
    necessary: set[int] = set()
    Rotation(ws).mark(r.model, 0, live, necessary)
    assert necessary == live


def test_mcs_test_keeps_the_seed_assumption_levels(monkeypatch):
    """With the seed x1..x5 of the chain, the first model falsifies only
    x5->x6.  Its test keeps the seed's five assumption levels and opens one
    level per selector up to the one that fails: 10 levels, where assuming
    every selector again would open 15."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve too
    ws = workspace(10, [], _TEN_CHAIN)
    assert extract_mcs(ws, range(5)).ids == {5}
    assert ws.assumption_levels == 10

    # Over y, z, w, x = 1..4 the all-false first model admits clauses 2 and
    # 3, and probe 0 (w) is satisfiable: 3 levels.  Probe 1 (y) goes after
    # the kept clauses 2, 3 and 0, opens its one level, and its conflict
    # answers at once: the learnt clause ¬y ∨ ¬w ∨ ¬s2 ∨ ¬s3 backjumps to
    # level 3 and leaves ¬y pending there.  The last probe, 4, reuses all
    # three kept levels and opens one.
    ws = workspace(4, [], [(3,), (1,), (-3, -1, 2), (-1, -2), (4,)])
    real = ws.solve
    steps = []

    def solve(assumptions):
        before = ws.assumption_levels
        res = real(assumptions)
        steps.append((res.satisfiable, ws.assumption_levels - before,
                      min(len(ws._trail_lim), len(ws._assumed)),
                      ws._qhead < len(ws._trail)))
        return res

    ws.solve = solve
    assert extract_mcs(ws).ids == {1}
    assert steps == [(True, 0, 0, False), (True, 3, 3, False),
                     (False, 1, 3, True), (True, 1, 4, False)]


def _sussman_4_restricted():
    data = Path(__file__).parent / "data"
    return run_explain_plan(_build_parser().parse_args([
        "explain-plan", str(data / "blocksworld.pddl"), str(data / "sussman.pddl"),
        "--mode", RESTRICTED, "--seed", "0", "--scenario", "4"]))


def test_hitting_set_loop_session_counters_on_sussman_scenario_4(monkeypatch):
    """Restricted Sussman scenario 4 (seed 0): the session of the
    hitting-set loop opens 37 042 assumption levels and makes 45 253
    propagations."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve too
    sessions = []
    real = reconcile_module.extract_mcs

    def extract_mcs_logged(ws, *args, **kwargs):
        if "seed" in kwargs and ws not in sessions:
            sessions.append(ws)
        return real(ws, *args, **kwargs)

    monkeypatch.setattr(reconcile_module, "extract_mcs", extract_mcs_logged)
    result = _sussman_4_restricted()
    assert len(result.explanation.update) == 39 and result.verification.ok
    (ws,) = sessions
    assert ws.assumption_levels == 37042
    assert ws.propagations == 45253
    assert ws.decisions == 5297
    assert ws.conflicts == 131


def _with_each_mcs_search(monkeypatch, run) -> list[tuple]:
    """run() once with extract_mcs and once with extract_mcs_by_lists in
    reconcile's place.  For each: the MCSes in call order, the counters of
    every session they ran on, and the run's result."""
    out = []
    for extract in (extract_mcs, extract_mcs_by_lists):
        found, sessions = [], []

        def logged(ws, *args, extract=extract, found=found, sessions=sessions, **kwargs):
            mcs = extract(ws, *args, **kwargs)
            found.append(mcs)
            if ws not in sessions:
                sessions.append(ws)
            return mcs

        monkeypatch.setattr(reconcile_module, "extract_mcs", logged)
        result = run()
        counters = [(ws.decisions, ws.conflicts, ws.propagations,
                     ws.assumption_levels, ws.budget.calls) for ws in sessions]
        out.append((found, counters, result))
    return out


def test_stack_search_matches_the_list_search(monkeypatch):
    """On acceptance criterion 2's 200 random instances and on the
    restricted Sussman scenario 4 loop, extract_mcs on the assumption stack
    finds the MCSes of the list-based search and leaves every session it
    ran on with the same solver counters and oracle calls."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve too
    rng = random.Random(20260814)
    searches = 0
    for trial in range(200):
        kb_a, kb_h, query = (CnfFormula.from_clauses(c, num_vars=8)
                             for c in random_reconcile_instance(rng))
        problem = ReconcileProblem(kb_a, kb_h, query)
        stack, lists = _with_each_mcs_search(monkeypatch, lambda: reconcile(problem))
        assert stack == lists, trial
        searches += len(stack[0])
    assert searches >= 400
    stack, lists = _with_each_mcs_search(monkeypatch, _sussman_4_restricted)
    assert stack[:2] == lists[:2]
    assert len(stack[0]) == 59 and len(stack[1]) == 2


def _stack_ids(ws: SatSession) -> list[int]:
    return [s - ws.num_vars - 1 for s in ws._assumed]


def test_mcs_search_leaves_the_kept_clauses_on_the_stack_in_join_order(monkeypatch):
    """After extract_mcs the assumption stack holds the selectors of the
    kept clauses, and nothing else, in the order they joined: the seed as
    its list solve placed it, then every push that no pop undid.  A refuted
    last probe is popped like every other."""
    monkeypatch.setattr(minsets, "check_minimality", False)  # audits solve too
    # The all-false first model admits clause 2, probe 0 is satisfiable and
    # the last probe, 1, is refuted.
    ws = workspace(2, [], [(1,), (2,), (-1, -2)])
    assert extract_mcs(ws).ids == {1}
    assert _stack_ids(ws) == [2, 0]

    rng = random.Random(26)
    calls = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        soft, hard = random_unsat_soft(rng, n, rng.randint(n + 2, n + 5), rng.randint(0, 2))
        if not tt_satisfiable(hard, n):
            continue
        ws = workspace(n, hard, soft)
        joined: list[int] = []
        real_solve, real_push, real_pop = ws.solve_ids, ws.push_ids, ws.pop

        def solve_ids(ids, ws=ws, joined=joined, real=real_solve):
            res = real(ids)
            if ids is not None:
                joined[:] = _stack_ids(ws)
            return res

        def push_ids(ids, joined=joined, real=real_push):
            ids = list(ids)
            real(ids)
            joined.extend(ids)

        def pop(k, joined=joined, real=real_pop):
            real(k)
            del joined[len(joined) - k:]

        ws.solve_ids, ws.push_ids, ws.pop = solve_ids, push_ids, pop
        for _ in range(4):
            seed = {i for i in range(len(soft)) if rng.random() < 0.3}
            mcs = extract_mcs(ws, seed)
            if mcs is None:
                continue
            calls += 1
            assert _stack_ids(ws) == joined
            assert set(joined) == set(range(len(soft))) - mcs.ids
    assert calls >= 60


# q=4 follows from the chain x1, x1->x2, x2->x3, x3->q; kb_h lacks x2->x3
# and carries clauses over y1..y3 (5..7) that no core needs.
_CHAIN = [(1,), (-1, 2), (-2, 3), (-3, 4)]
_NOISE = [(5, 6), (-5, 7), (-6, 7), (1, 7), (2, -5)]
_MUS_PROBLEM = (CnfFormula.from_clauses(_CHAIN + _NOISE),
                CnfFormula.from_clauses([c for c in _CHAIN if c != (-2, 3)] + _NOISE),
                CnfFormula.from_clauses([(4,)]))


def _mus_workspaces(monkeypatch) -> list[SatSession]:
    """Records the workspace that reconcile hands to extract_mus."""
    outer = []
    real = reconcile_module.extract_mus

    def extract_mus_logged(ws):
        outer.append(ws)
        return real(ws)

    monkeypatch.setattr(reconcile_module, "extract_mus", extract_mus_logged)
    return outer


def _count_solves(monkeypatch) -> list[int]:
    count = [0]
    real = SatSession.solve

    def solve(session, assumptions=()):
        count[0] += 1
        return real(session, assumptions)

    monkeypatch.setattr(SatSession, "solve", solve)
    return count


@pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
def test_budget_counts_the_solves_of_both_mus_workspaces(monkeypatch, mode):
    log = _log_workspaces(monkeypatch)
    outer = _mus_workspaces(monkeypatch)
    solves = _count_solves(monkeypatch)
    expl = reconcile(ReconcileProblem(*_MUS_PROBLEM, mode=mode))
    assert expl.update == ((-2, 3),)
    assert set(expl.support) == set(_CHAIN)
    (ws,) = outer
    inner = [w for w in log if w is not ws and w.hard == ws.hard]
    assert inner and all(w is inner[0] for w in inner)
    assert len(inner[0].soft) == 3 < len(ws.soft)
    assert expl.oracle_calls == solves[0] == ws.budget.calls
    assert inner[0].budget is ws.budget


@pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
def test_deadline_inside_the_core_workspace_times_out(monkeypatch, mode):
    """The clock passes the deadline right after the core workspace's first
    solve; its next solve raises, and the timeout counts every solve."""
    offset = [0.0]
    real_time = minsets.time
    monkeypatch.setattr(minsets, "time", types.SimpleNamespace(
        monotonic=lambda: real_time.monotonic() + offset[0]))
    outer = _mus_workspaces(monkeypatch)
    solves = _count_solves(monkeypatch)
    inner_solves = [0]
    real_solve_ids = SatSession.solve_ids

    def solve_ids(ws, ids):
        res = real_solve_ids(ws, ids)
        if outer and ws is not outer[0] and ws.hard == outer[0].hard:
            inner_solves[0] += 1
            offset[0] = 1e6
        return res

    monkeypatch.setattr(SatSession, "solve_ids", solve_ids)
    with pytest.raises(ReconcileTimeout) as exc:
        reconcile(ReconcileProblem(*_MUS_PROBLEM, mode=mode), timeout=1000.0)
    assert inner_solves[0] == 1
    assert exc.value.oracle_calls == solves[0]
