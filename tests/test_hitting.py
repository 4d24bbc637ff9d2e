from __future__ import annotations

import random

import pytest

from mrex.hitting import HittingSetInstance, min_hitting_set

from oracles import all_minimal_hitting_sets, brute_min_hitting_set_size


def test_no_sets_empty_answer():
    assert min_hitting_set(HittingSetInstance()) == frozenset()


def test_empty_member_set_rejected():
    inst = HittingSetInstance()
    with pytest.raises(ValueError):
        inst.add_set(())


def test_single_pair_prefers_smaller_id():
    assert min_hitting_set(HittingSetInstance([{2, 4}])) == {2}


def test_two_sets_from_worked_trace():
    assert min_hitting_set(HittingSetInstance([{2, 4}, {1}])) == {1, 2}


def test_chain_example_lexicographic_optimum():
    # {1,3}, {2,3}, {2,4} are the size-2 hitting sets; lexicographic
    # tie-break picks {1,3} (no size-1 solution exists)
    inst = HittingSetInstance([{1, 2}, {2, 3}, {3, 4}])
    got = min_hitting_set(inst)
    assert got == {1, 3}
    assert len(got) == brute_min_hitting_set_size(inst.sets)
    assert got == min(all_minimal_hitting_sets(inst.sets), key=lambda s: sorted(s))


def test_duplicate_and_superset_sets_ignored():
    a = min_hitting_set(HittingSetInstance([{1, 2}, {1, 2}, {1, 2, 3}, {4}]))
    b = min_hitting_set(HittingSetInstance([{1, 2}, {4}]))
    assert a == b


def test_fresh_singleton_grows_optimum_by_one():
    rng = random.Random(31)
    for _ in range(40):
        inst = HittingSetInstance()
        universe = list(range(1, rng.randint(4, 9)))
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, 3)
            inst.add_set(rng.sample(universe, min(size, len(universe))))
        before = min_hitting_set(inst)
        fresh = max(inst.universe) + 1
        inst.add_set({fresh})
        after = min_hitting_set(inst)
        assert len(after) == len(before) + 1
        assert fresh in after


def test_incremental_add_set_monotone():
    rng = random.Random(77)
    for _ in range(30):
        inst = HittingSetInstance()
        universe = list(range(1, 10))
        last = 0
        for _ in range(rng.randint(2, 7)):
            inst.add_set(rng.sample(universe, rng.randint(1, 3)))
            size = len(min_hitting_set(inst))
            assert size >= last
            last = size


def test_exactness_against_brute_force_random():
    rng = random.Random(2024)
    for _ in range(120):
        n_universe = rng.randint(3, 12)
        universe = list(range(1, n_universe + 1))
        inst = HittingSetInstance()
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(1, min(4, n_universe))
            inst.add_set(rng.sample(universe, size))
        got = min_hitting_set(inst)
        assert all(got & s for s in inst.sets)
        assert len(got) == brute_min_hitting_set_size(inst.sets)
        minimal = all_minimal_hitting_sets(inst.sets)
        smallest = min(len(s) for s in minimal)
        lex = min((s for s in minimal if len(s) == smallest), key=lambda s: sorted(s))
        assert got == lex


def test_solution_must_cover_every_set():
    rng = random.Random(555)
    for _ in range(50):
        inst = HittingSetInstance()
        for _ in range(rng.randint(1, 8)):
            inst.add_set(rng.sample(range(1, 15), rng.randint(1, 4)))
        got = min_hitting_set(inst)
        for s in inst.sets:
            assert got & s


def test_element_zero_is_a_valid_member():
    inst = HittingSetInstance()
    inst.add_set({0})
    assert min_hitting_set(inst) == frozenset({0})
    inst.add_set({1, 2})
    assert min_hitting_set(inst) == frozenset({0, 1})


def test_zero_based_random_universe():
    rng = random.Random(42)
    for _ in range(60):
        inst = HittingSetInstance()
        for _ in range(rng.randint(1, 8)):
            inst.add_set(rng.sample(range(0, 9), rng.randint(1, 3)))
        got = min_hitting_set(inst)
        assert all(got & s for s in inst.sets)
        assert len(got) == brute_min_hitting_set_size(inst.sets)


def _lex_smallest_minimum(sets):
    minimal = all_minimal_hitting_sets(sets)
    smallest = min(len(s) for s in minimal)
    return min((s for s in minimal if len(s) == smallest), key=lambda s: sorted(s))


def test_reconcile_growth_pattern_matches_brute_force():
    # reconcile adds MCSes disjoint from the previous answer; ids 0 and
    # >= 64 put set members on both sides of a machine-word boundary
    rng = random.Random(4096)
    pool = [0, 1, 2, 3, 62, 63, 64, 65, 127, 128, 200]
    for _ in range(60):
        universe = rng.sample(pool, rng.randint(4, 9))
        inst = HittingSetInstance()
        answer = min_hitting_set(inst)
        while True:
            free = [e for e in universe if e not in answer]
            if not free:
                break
            inst.add_set(rng.sample(free, rng.randint(1, min(3, len(free)))))
            answer = min_hitting_set(inst)
            assert answer == _lex_smallest_minimum(inst.sets), inst.sets


class _Abort(Exception):
    pass


def _cancel_on_poll(n):
    polls = 0

    def cancel():
        nonlocal polls
        polls += 1
        if polls == n:
            raise _Abort

    return cancel


def test_cancelled_solve_leaves_instance_usable():
    rng = random.Random(808)
    aborted = 0
    for _ in range(8):
        universe = list(range(0, 90, 4))
        sets = [rng.sample(universe, rng.randint(2, 4)) for _ in range(14)]
        for n in (1, 2, 3, 5, 8, 13, 30, 80, 250):
            inst = HittingSetInstance()
            for count, s in enumerate(sets, 1):
                inst.add_set(s)
                try:
                    min_hitting_set(inst, cancel=_cancel_on_poll(n))
                except _Abort:
                    aborted += 1
                expected = min_hitting_set(HittingSetInstance(sets[:count]))
                assert min_hitting_set(inst) == expected
    assert aborted > 100


def test_search_node_count_is_deterministic():
    rng = random.Random(9)
    sets = [rng.sample(range(30), 3) for _ in range(12)]
    counts = []
    for _ in range(2):
        inst = HittingSetInstance()
        for s in sets:
            inst.add_set(s)
            min_hitting_set(inst)
        counts.append(inst.nodes)
    assert counts[0] == counts[1] > 0
