"""Reconciliation end-to-end: worked example, random cross-checks, modes."""

import random

import pytest

import mrex.minsets as minsets_module
from mrex.formula import CnfFormula
from mrex.minsets import Budget
from mrex.reconcile import (
    GENERAL,
    RESTRICTED,
    Explanation,
    PremiseError,
    ReconcileError,
    ReconcileProblem,
    ReconcileTimeout,
    VerificationReport,
    format_record,
    parse_explanation_records,
    preprocess_consistency,
    reconcile,
    serialize_explanation,
    smallest_support,
    verify_explanation,
)
from mrex.solver import SatSession

from oracles import (
    brute_force_min_update,
    random_reconcile_instance,
    tt_entails,
    tt_min_support_size,
    tt_min_update_size,
    tt_satisfiable,
    verify_by_probing,
)

# Variables: a=1, b=2, c=3, d=4, f=5.
KB_A = CnfFormula.from_clauses([(1, 2), (-2, 3), (-3,), (-2, 4), (-4,)])
KB_H = CnfFormula.from_clauses([(-3,), (5,)])
QUERY_A = CnfFormula.from_clauses([(1,)])
# (3,) and (-1, 4) conflict with KB_A, so preprocessing makes solves too.
KB_H_CONFLICTING = CnfFormula.from_clauses([(-3,), (5,), (3,), (-1, 4)])


def _formula(clauses, num_vars=0):
    return CnfFormula.from_clauses(clauses, num_vars)


class TestWorkedExample:
    def test_support_and_update_exact(self):
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        assert set(expl.support) == {(1, 2), (-2, 3), (-3,)}
        assert set(expl.update) == {(1, 2), (-2, 3)}
        assert expl.removed_from_kb_h == ()
        assert expl.mode == GENERAL

    def test_run_statistics(self):
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        assert expl.iterations == 3
        assert expl.mcs_count == 2
        assert expl.oracle_calls > 0

    def test_restricted_mode_same_answer_here(self):
        # The only kb_h clause the support uses, (-3,), is shared with kb_a.
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A, mode=RESTRICTED))
        assert set(expl.support) == {(1, 2), (-2, 3), (-3,)}
        assert set(expl.update) == {(1, 2), (-2, 3)}

    def test_verifies(self):
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        report = verify_explanation(KB_H, expl.support, QUERY_A)
        assert report.ok
        assert report.failures == ()

    def test_smallest_support_size_three(self):
        expl = smallest_support(KB_A, QUERY_A)
        assert set(expl.support) == {(1, 2), (-2, 3), (-3,)}
        assert expl.update == expl.support


def test_reconcile_submodule_is_not_shadowed():
    import mrex.reconcile as m

    assert m.__name__ == "mrex.reconcile"
    assert callable(m.reconcile)


class TestPremises:
    def test_kb_a_must_entail_query(self):
        with pytest.raises(PremiseError):
            reconcile(ReconcileProblem(KB_A, KB_H, _formula([(5,)])))

    def test_kb_a_must_be_satisfiable(self):
        bad = _formula([(1,), (-1,)])
        with pytest.raises(PremiseError):
            reconcile(ReconcileProblem(bad, KB_H, QUERY_A))

    def test_smallest_support_premises(self):
        with pytest.raises(PremiseError):
            smallest_support(KB_A, _formula([(5,)]))
        with pytest.raises(PremiseError):
            smallest_support(_formula([(1,), (-1,)]), QUERY_A)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReconcileError):
            reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A, mode="fast"))


class TestEdgeCases:
    def test_kb_h_already_entails_query_gives_empty_update(self):
        kb_a = _formula([(1,), (2,)])
        kb_h = _formula([(1,)])
        expl = reconcile(ReconcileProblem(kb_a, kb_h, _formula([(1,)])))
        assert expl.update == ()
        assert set(expl.support) <= kb_h.clause_set()

    def test_inconsistent_kb_h_is_repaired_first(self):
        kb_a = _formula([(1,), (2,)])
        kb_h = _formula([(-1,)])
        expl = reconcile(ReconcileProblem(kb_a, kb_h, _formula([(2,)])))
        assert expl.removed_from_kb_h == ((-1,),)
        assert set(expl.support) == {(2,)}
        assert set(expl.update) == {(2,)}

    def test_empty_kb_h(self):
        expl = reconcile(ReconcileProblem(KB_A, _formula([]), QUERY_A))
        assert set(expl.support) == set(expl.update)
        assert tt_entails(expl.support, [(1,)], 5)

    def test_timeout_raises_with_statistics(self):
        with pytest.raises(ReconcileTimeout) as exc:
            reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A), timeout=0.0)
        assert exc.value.iterations >= 0
        assert exc.value.elapsed >= 0.0
        with pytest.raises(ReconcileTimeout):
            smallest_support(KB_A, QUERY_A, timeout=0.0)

    @pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
    def test_timeout_counts_every_oracle_call(self, monkeypatch, mode):
        """Whichever deadline poll fires, preprocessing's among them, the
        timeout reports as many oracle calls as the run made solves."""
        solves = polls = fire_at = 0
        real_solve = SatSession.solve

        def counted_solve(session, assumptions=()):
            nonlocal solves
            solves += 1
            return real_solve(session, assumptions)

        def check(budget):
            nonlocal polls
            polls += 1
            if polls == fire_at:
                raise minsets_module._OutOfTime

        monkeypatch.setattr(SatSession, "solve", counted_solve)
        monkeypatch.setattr(Budget, "check", check)
        problem = ReconcileProblem(KB_A, KB_H_CONFLICTING, QUERY_A, mode=mode)
        timeouts = 0
        while True:
            fire_at += 1
            solves = polls = 0
            try:
                expl = reconcile(problem)
            except ReconcileTimeout as exc:
                assert exc.oracle_calls == solves, fire_at
                timeouts += 1
                continue
            assert expl.oracle_calls == solves
            break
        assert timeouts == polls >= 4

    @pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
    def test_expired_deadline_stops_before_any_oracle_call(self, mode):
        problem = ReconcileProblem(KB_A, KB_H_CONFLICTING, QUERY_A, mode=mode)
        with pytest.raises(ReconcileTimeout) as exc:
            reconcile(problem, timeout=1e-9)
        assert exc.value.oracle_calls == 0
        assert exc.value.mcs_count == 0

    @pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
    def test_every_solve_follows_a_deadline_poll(self, monkeypatch, mode):
        events = []
        real_solve, real_check = SatSession.solve, Budget.check

        def logged_solve(session, assumptions=()):
            events.append("solve")
            return real_solve(session, assumptions)

        def logged_check(budget):
            events.append("check")
            real_check(budget)

        monkeypatch.setattr(SatSession, "solve", logged_solve)
        monkeypatch.setattr(Budget, "check", logged_check)
        problem = ReconcileProblem(KB_A, KB_H_CONFLICTING, QUERY_A, mode=mode)
        expl = reconcile(problem, timeout=60)
        solves = [i for i, e in enumerate(events) if e == "solve"]
        assert len(solves) == expl.oracle_calls > 0
        assert all(i > 0 and events[i - 1] == "check" for i in solves)

    def test_multi_clause_query(self):
        # query (a ∧ (c ∨ d)) is unattainable from kb_a (it forces ¬c, ¬d),
        # so use kb where a disjunctive query holds.
        kb_a = _formula([(1,), (2, 3)])
        kb_h = _formula([(4,)])
        query = _formula([(1,), (2, 3)])
        expl = reconcile(ReconcileProblem(kb_a, kb_h, query))
        assert set(expl.update) == {(1,), (2, 3)}


class TestModeSeparation:
    KB_A2 = _formula([(1, 2), (-2, 3), (-3,)])
    KB_H2 = _formula([(-2,)], 3)
    QUERY2 = _formula([(1,)])

    def test_general_uses_kb_h_clause(self):
        expl = reconcile(ReconcileProblem(self.KB_A2, self.KB_H2, self.QUERY2))
        assert set(expl.support) == {(1, 2), (-2,)}
        assert set(expl.update) == {(1, 2)}

    def test_restricted_stays_inside_kb_a(self):
        expl = reconcile(
            ReconcileProblem(self.KB_A2, self.KB_H2, self.QUERY2, mode=RESTRICTED)
        )
        assert set(expl.support) == {(1, 2), (-2, 3), (-3,)}
        assert set(expl.support) <= self.KB_A2.clause_set()

    def test_brute_force_agrees_per_mode(self):
        for mode, expected in ((GENERAL, 1), (RESTRICTED, 3)):
            problem = ReconcileProblem(self.KB_A2, self.KB_H2, self.QUERY2, mode=mode)
            size, update = brute_force_min_update(problem)
            assert size == expected
            assert len(reconcile(problem).update) == size


class TestPreprocessing:
    def test_consistent_inputs_untouched(self):
        kept, removed = preprocess_consistency(KB_A, KB_H, 5, Budget(None))
        assert kept == KB_H.clauses
        assert removed == ()

    def test_removal_is_minimal_correction(self):
        kb_a = _formula([(1,), (2,)])
        kb_h = _formula([(-1,), (-2,), (3,)])
        kept, removed = preprocess_consistency(kb_a, kb_h, 3, Budget(None))
        assert set(removed) == {(-1,), (-2,)}
        assert kept == ((3,),)
        assert tt_satisfiable(list(kb_a.clauses) + list(kept), 3)


class TestRandomAgreement:
    def test_update_size_matches_truth_table_and_sweep(self):
        rng = random.Random(20260814)
        for trial in range(60):
            kb_a_l, kb_h_l, query_l = random_reconcile_instance(rng)
            kb_a = _formula(kb_a_l, 8)
            kb_h = _formula(kb_h_l, 8)
            query = _formula(query_l, 8)
            problem = ReconcileProblem(kb_a, kb_h, query)
            expl = reconcile(problem, timeout=60)

            kept, removed = preprocess_consistency(kb_a, kb_h, 8, Budget(None))
            candidates = [c for c in kb_a.clauses if c not in kb_h.clause_set()]
            expected = tt_min_update_size(list(kept), candidates, query_l, 8)
            assert expected is not None
            assert len(expl.update) == expected, (trial, kb_a_l, kb_h_l, query_l)

            size, _update = brute_force_min_update(problem)
            assert size == expected

            report = verify_explanation(kept, expl.support, query)
            assert report.ok, (trial, report.failures, kb_a_l, kb_h_l, query_l)
            assert set(expl.update) <= kb_a.clause_set() - kb_h.clause_set()
            assert expl.removed_from_kb_h == removed

    def test_restricted_random_agreement(self):
        rng = random.Random(99)
        done = 0
        while done < 30:
            kb_a_l, kb_h_l, query_l = random_reconcile_instance(rng)
            kb_a = _formula(kb_a_l, 8)
            kb_h = _formula(kb_h_l, 8)
            query = _formula(query_l, 8)
            problem = ReconcileProblem(kb_a, kb_h, query, mode=RESTRICTED)
            expl = reconcile(problem, timeout=60)
            size, _ = brute_force_min_update(problem)
            assert len(expl.update) == size
            assert set(expl.support) <= kb_a.clause_set()
            done += 1

    @pytest.mark.parametrize("mode", [GENERAL, RESTRICTED])
    def test_kept_kb_h_with_update_is_satisfiable(self, mode):
        """Consistency repair leaves kb_a ∪ kept kb_h satisfiable and the
        update lies in kb_a, so kept kb_h ∪ update is satisfiable in both
        modes without a solve to confirm it."""
        rng = random.Random(20260814)
        repaired = 0
        for trial in range(100):
            kb_a_l, kb_h_l, query_l = random_reconcile_instance(rng)
            problem = ReconcileProblem(_formula(kb_a_l, 8), _formula(kb_h_l, 8),
                                       _formula(query_l, 8), mode=mode)
            expl = reconcile(problem, timeout=60)
            removed = set(expl.removed_from_kb_h)
            kept = [c for c in problem.kb_h.clauses if c not in removed]
            assert tt_satisfiable(kept + list(expl.update), 8), (trial, kb_a_l, kb_h_l)
            repaired += bool(removed)
        assert repaired >= 10

    def test_smallest_support_matches_truth_table(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            kb_a_l, _kb_h_l, query_l = random_reconcile_instance(rng)
            kb_a = _formula(kb_a_l, 8)
            query = _formula(query_l, 8)
            expl = smallest_support(kb_a, query, timeout=60)
            expected = tt_min_support_size(kb_a.clauses, query_l, 8)
            assert len(expl.support) == expected
            assert tt_entails(expl.support, query_l, 8)
            via_loop = reconcile(ReconcileProblem(kb_a, _formula([], 8), query))
            assert (expl.support, expl.iterations, expl.mcs_count) == (
                via_loop.support, via_loop.iterations, via_loop.mcs_count
            )
            done += 1


class TestDeterminismAndSerialization:
    def test_identical_reruns(self):
        first = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        second = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        assert first == second  # elapsed is excluded from comparison

    def test_serialize_parse_round_trip(self):
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        text = serialize_explanation(expl, verify_explanation(KB_H, expl.support, QUERY_A))
        rec = parse_explanation_records(text)
        assert rec["support"] == list(expl.support)
        assert rec["update"] == list(expl.update)
        assert rec["removed"] == []
        assert "verify entailed=true minimal=true consistent=true ok=true" in text

    def test_record_bytes(self):
        """The record format itself, from hand-built inputs: clause names,
        the empty clause as `-` and a failing verification."""
        expl = Explanation(
            support=((-3,), (1, 2)), update=((1, 2),), removed_from_kb_h=((),),
            mcs_count=2, oracle_calls=11, mode=RESTRICTED,
        )
        verification = VerificationReport(
            entailed=True, minimal=False, consistent=True,
            failures=("support clause (-3,) is redundant",),
        )
        names = {1: "a", 2: "b", 3: "c"}
        text = serialize_explanation(
            expl, verification, lambda l: ("-" if l < 0 else "") + names[abs(l)]
        )
        assert text == (
            "explanation mode=restricted\n"
            "clause role=support lits=-3 names=-c\n"
            "clause role=support lits=1,2 names=a;b\n"
            "clause role=update lits=1,2 names=a;b\n"
            "clause role=removed lits=- names=\n"
            "stat support_size=2 update_size=1 removed_size=1 iterations=3"
            " mcs_count=2 oracle_calls=11\n"
            "verify entailed=true minimal=false consistent=true ok=false\n"
        )
        assert parse_explanation_records(text) == {
            "support": [(-3,), (1, 2)], "update": [(1, 2)], "removed": [()],
        }
        assert format_record("error", kind="timeout", elapsed=0.25, ok=True,
                             removed=[-1, 2]) == (
            "error kind=timeout elapsed=0.250 ok=true removed=-1;2"
        )

    def test_explanation_is_sorted(self):
        expl = reconcile(ReconcileProblem(KB_A, KB_H, QUERY_A))
        assert list(expl.support) == sorted(expl.support)
        assert list(expl.update) == sorted(expl.update)


class TestVerifier:
    def test_flags_non_entailing_support(self):
        report = verify_explanation(KB_H, [(1, 2)], QUERY_A)
        assert not report.entailed
        assert not report.ok

    def test_flags_redundant_clause(self):
        report = verify_explanation(KB_H, [(1, 2), (-2, 3), (-3,), (-4,)], QUERY_A)
        assert report.entailed
        assert not report.minimal
        assert any("redundant" in f for f in report.failures)

    def test_flags_inconsistency(self):
        report = verify_explanation(_formula([(-1,)]), [(1,), (2,)], _formula([(2,)]))
        assert not report.consistent
        assert not report.ok

    def test_each_hard_clause_loaded_once(self, monkeypatch):
        """The entailment session loads kb_h ∪ support: kb_h in order, then
        the support clauses kb_h lacks; (-3,) is in both and loads once."""
        loads: dict[int, list] = {}
        real = SatSession.add_hard

        def add_hard(ws, clause):
            loads.setdefault(id(ws), []).append(tuple(clause))
            real(ws, clause)

        monkeypatch.setattr(SatSession, "add_hard", add_hard)
        assert verify_explanation(KB_H, [(1, 2), (-2, 3), (-3,)], QUERY_A).ok
        entailment = next(iter(loads.values()))
        assert entailment == [(-3,), (5,), (-2, 3), (1, 2)]

    def test_report_matches_one_solve_per_clause(self, monkeypatch):
        """Model rotation only skips probe solves that would answer SAT, so
        the report, failures in order, is that of one solve per clause: on
        found supports, on supports padded with redundant clauses and on
        supports that do not entail the query on their own."""
        solves = [0]
        real = SatSession.solve_ids

        def solve_ids(ws, ids):
            solves[0] += 1
            return real(ws, ids)

        monkeypatch.setattr(SatSession, "solve_ids", solve_ids)
        rng = random.Random(20261019)
        redundant = not_entailing = saved = 0
        for trial in range(80):
            kb_a_l, kb_h_l, query_l = random_reconcile_instance(rng)
            kb_a, kb_h, query = _formula(kb_a_l, 8), _formula(kb_h_l, 8), _formula(query_l, 8)
            expl = reconcile(ReconcileProblem(kb_a, kb_h, query))
            kept = [c for c in kb_h.clauses if c not in set(expl.removed_from_kb_h)]
            support = list(expl.support)
            others = [c for c in kb_a.clauses + kb_h.clauses if c not in support]
            padded = support + rng.sample(others, min(len(others), rng.randint(1, 4)))
            weakened = support[:]
            if weakened:
                weakened.remove(rng.choice(weakened))
            weakened += rng.sample(others, min(len(others), rng.randint(0, 2)))
            for candidate in (support, padded, weakened):
                solves[0] = 0
                report = verify_explanation(kept, candidate, query)
                rotated = solves[0]
                solves[0] = 0
                assert report == verify_by_probing(kept, candidate, query), (
                    trial, kept, candidate, query_l)
                saved += solves[0] - rotated
                redundant += any("redundant" in f for f in report.failures)
                not_entailing += not tt_entails(candidate, query_l, 8)
        assert redundant >= 40 and not_entailing >= 40 and saved >= 100

    def test_brute_force_guard(self):
        big_a = _formula([(v,) for v in range(1, 17)])
        with pytest.raises(ReconcileError):
            brute_force_min_update(ReconcileProblem(big_a, _formula([]), _formula([(1,)])))
