from __future__ import annotations

import random

import pytest

from mrex.hitting import _opt, _undominated, min_hitting_set

from oracles import (
    all_minimal_hitting_sets,
    brute_min_hitting_set_size,
    hitting_instance,
    instance_sets,
    mask_ids,
    no_cancel,
)


def test_no_sets_empty_answer():
    assert min_hitting_set(hitting_instance(), cancel=no_cancel) == frozenset()


def test_empty_member_set_rejected():
    inst = hitting_instance()
    with pytest.raises(ValueError):
        inst.add_set(())


def test_single_pair_prefers_smaller_id():
    assert min_hitting_set(hitting_instance([{2, 4}]), cancel=no_cancel) == {2}


def test_two_sets_from_worked_trace():
    assert min_hitting_set(hitting_instance([{2, 4}, {1}]), cancel=no_cancel) == {1, 2}


def test_chain_example_lexicographic_optimum():
    # {1,3}, {2,3}, {2,4} are the size-2 hitting sets; lexicographic
    # tie-break picks {1,3} (no size-1 solution exists)
    inst = hitting_instance([{1, 2}, {2, 3}, {3, 4}])
    got = min_hitting_set(inst, cancel=no_cancel)
    assert got == {1, 3}
    assert len(got) == brute_min_hitting_set_size(instance_sets(inst))
    assert got == min(all_minimal_hitting_sets(instance_sets(inst)),
                      key=lambda s: sorted(s))


def test_duplicate_and_superset_sets_ignored():
    a = min_hitting_set(hitting_instance([{1, 2}, {1, 2}, {1, 2, 3}, {4}]), cancel=no_cancel)
    b = min_hitting_set(hitting_instance([{1, 2}, {4}]), cancel=no_cancel)
    assert a == b


def test_fresh_singleton_grows_optimum_by_one():
    rng = random.Random(31)
    for _ in range(40):
        inst = hitting_instance()
        universe = list(range(1, rng.randint(4, 9)))
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, 3)
            inst.add_set(rng.sample(universe, min(size, len(universe))))
        before = min_hitting_set(inst, cancel=no_cancel)
        fresh = max(e for s in instance_sets(inst) for e in s) + 1
        inst.add_set({fresh})
        after = min_hitting_set(inst, cancel=no_cancel)
        assert len(after) == len(before) + 1
        assert fresh in after


def test_incremental_add_set_monotone():
    rng = random.Random(77)
    for _ in range(30):
        inst = hitting_instance()
        universe = list(range(1, 10))
        last = 0
        for _ in range(rng.randint(2, 7)):
            inst.add_set(rng.sample(universe, rng.randint(1, 3)))
            size = len(min_hitting_set(inst, cancel=no_cancel))
            assert size >= last
            last = size


def test_exactness_against_brute_force_random():
    rng = random.Random(2024)
    for _ in range(120):
        n_universe = rng.randint(3, 12)
        universe = list(range(1, n_universe + 1))
        inst = hitting_instance()
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(1, min(4, n_universe))
            inst.add_set(rng.sample(universe, size))
        got = min_hitting_set(inst, cancel=no_cancel)
        assert all(got & s for s in instance_sets(inst))
        assert len(got) == brute_min_hitting_set_size(instance_sets(inst))
        minimal = all_minimal_hitting_sets(instance_sets(inst))
        smallest = min(len(s) for s in minimal)
        lex = min((s for s in minimal if len(s) == smallest), key=lambda s: sorted(s))
        assert got == lex


def test_solution_must_cover_every_set():
    rng = random.Random(555)
    for _ in range(50):
        inst = hitting_instance()
        for _ in range(rng.randint(1, 8)):
            inst.add_set(rng.sample(range(1, 15), rng.randint(1, 4)))
        got = min_hitting_set(inst, cancel=no_cancel)
        for s in instance_sets(inst):
            assert got & s


def test_element_zero_is_a_valid_member():
    inst = hitting_instance()
    inst.add_set({0})
    assert min_hitting_set(inst, cancel=no_cancel) == frozenset({0})
    inst.add_set({1, 2})
    assert min_hitting_set(inst, cancel=no_cancel) == frozenset({0, 1})


def test_zero_based_random_universe():
    rng = random.Random(42)
    for _ in range(60):
        inst = hitting_instance()
        for _ in range(rng.randint(1, 8)):
            inst.add_set(rng.sample(range(0, 9), rng.randint(1, 3)))
        got = min_hitting_set(inst, cancel=no_cancel)
        assert all(got & s for s in instance_sets(inst))
        assert len(got) == brute_min_hitting_set_size(instance_sets(inst))


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
        inst = hitting_instance()
        answer = min_hitting_set(inst, cancel=no_cancel)
        while True:
            free = [e for e in universe if e not in answer]
            if not free:
                break
            inst.add_set(rng.sample(free, rng.randint(1, min(3, len(free)))))
            answer = min_hitting_set(inst, cancel=no_cancel)
            assert answer == _lex_smallest_minimum(instance_sets(inst)), instance_sets(inst)


def test_large_ids_get_dense_bits():
    rng = random.Random(10_000)
    ids = [10_000 + 97 * i for i in range(14)]
    sets = [rng.sample(ids, rng.randint(1, 4)) for _ in range(9)]
    inst = hitting_instance(sets)
    distinct = len(set().union(*sets))
    assert max(m.bit_length() for m in inst.masks) <= distinct
    assert min_hitting_set(inst, cancel=no_cancel) == _lex_smallest_minimum(map(frozenset, sets))


def test_sets_added_against_id_order_give_lex_minimum():
    # later sets hold smaller ids, so bit order runs against id order
    inst = hitting_instance([{8, 9}, {6, 7}, {4, 9}, {2, 7}, {0, 5}])
    assert inst.ids == [8, 9, 6, 7, 4, 2, 0, 5]
    assert min_hitting_set(inst, cancel=no_cancel) == {0, 7, 9}
    rng = random.Random(606)
    for _ in range(80):
        universe = list(range(rng.randint(3, 11)))
        sets = [rng.sample(universe, rng.randint(1, 3))
                for _ in range(rng.randint(1, 8))]
        sets.sort(key=min, reverse=True)
        got = min_hitting_set(hitting_instance(sets), cancel=no_cancel)
        assert got == _lex_smallest_minimum(map(frozenset, sets)), sets


def test_domination_deletes_a_member_of_the_lex_smallest_optimum():
    # 5 lies in every set holding 1, and 6 in every set holding 2: the
    # reduction deletes 1 and 2 and forces 5 and 6, which fixes the size,
    # while the answer is still the lexicographically smallest optimum
    inst = hitting_instance([{1, 5}, {2, 6}])
    forced, rest = _undominated(inst.masks)
    assert rest == [] and mask_ids(inst, forced) == {5, 6}
    assert min_hitting_set(inst, cancel=no_cancel) == {1, 2}
    assert min_hitting_set(inst, cancel=no_cancel) == _lex_smallest_minimum(instance_sets(inst))


def test_forced_elements_count_when_the_rest_splits():
    # 9 dominates 10, so {9, 10} shrinks to {9}; forcing 9 hits {1, 4, 9}
    # and leaves two separate triangles, each needing two elements
    inst = hitting_instance(
        [{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}, {1, 4, 9}, {9, 10}]
    )
    forced, rest = _undominated(inst.masks)
    assert mask_ids(inst, forced) == {9} and len(rest) == 6
    got = min_hitting_set(inst, cancel=no_cancel)
    assert len(got) == brute_min_hitting_set_size(instance_sets(inst)) == 5
    assert got == _lex_smallest_minimum(instance_sets(inst))


def test_capped_search_of_two_triangles_stops_above_the_cap():
    """Two element-disjoint triangles, searched as one family: each needs
    two elements, so the optimum is 4.  Under caps 1 and 2 the search
    answers a proven bound above the cap and at most the optimum; under
    cap 4 it answers the optimum."""
    triangles = [{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}]
    optimum = brute_min_hitting_set_size(map(frozenset, triangles))
    for cap in (1, 2, 4):
        inst = hitting_instance(triangles)
        got = _opt(inst, inst.masks, cap, 0, no_cancel)
        if cap < optimum:
            assert cap < got <= optimum == 4
        else:
            assert got == optimum == 4


def _nested_column_family(rng):
    """Sets over a few base ids, plus ids that each lie in some of the sets
    holding an existing id, so their sets nest inside its sets."""
    pool = list(range(40))
    base = rng.sample(pool, rng.randint(3, 6))
    sets = [set(rng.sample(base, rng.randint(1, 3)))
            for _ in range(rng.randint(2, 8))]
    for extra in rng.sample([e for e in pool if e not in base], rng.randint(1, 5)):
        host = rng.choice(sorted(set().union(*sets)))
        holders = [s for s in sets if host in s]
        for s in rng.sample(holders, rng.randint(1, len(holders))):
            s.add(extra)
    rng.shuffle(sets)
    return [sorted(s) for s in sets]


def test_domination_against_brute_force_on_nested_columns():
    rng = random.Random(1998)
    fired = 0
    for _ in range(120):
        sets = _nested_column_family(rng)
        inst = hitting_instance()
        for s in sets:
            inst.add_set(s)
            got = min_hitting_set(inst, cancel=no_cancel)
            family = instance_sets(inst)
            assert len(got) == brute_min_hitting_set_size(family)
            assert got == _lex_smallest_minimum(family), family
        fired += _undominated(inst.masks) != (0, inst.masks)
    assert fired > 100


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
            inst = hitting_instance()
            for count, s in enumerate(sets, 1):
                inst.add_set(s)
                try:
                    min_hitting_set(inst, cancel=_cancel_on_poll(n))
                except _Abort:
                    aborted += 1
                expected = min_hitting_set(hitting_instance(sets[:count]), cancel=no_cancel)
                assert min_hitting_set(inst, cancel=no_cancel) == expected
    assert aborted > 100


def test_search_node_count_is_deterministic():
    rng = random.Random(9)
    sets = [rng.sample(range(30), 3) for _ in range(12)]
    counts = []
    for _ in range(2):
        inst = hitting_instance()
        for s in sets:
            inst.add_set(s)
            min_hitting_set(inst, cancel=no_cancel)
        counts.append(inst.nodes)
    assert counts[0] == counts[1] > 0
