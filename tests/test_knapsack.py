import itertools
import random

import pytest

from liftlab import (KnapsackInstance, Q, greedy, instance_from_json,
                     instance_to_json, lp_value, make_instance,
                     opt_solution, residual, uniform_gap_instance)

from conftest import rand_instance


def enumerate_opt(inst):
    # independent oracle: scan every subset
    best = Q(0)
    for m in range(1 << inst.n):
        if inst.is_feasible(m):
            best = max(best, inst.value(m))
    return best


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_instance([1, 2], [1], 3)
    with pytest.raises(ValueError):
        make_instance([], [], 1)
    with pytest.raises(ValueError):
        make_instance([0], [1], 1)
    with pytest.raises(ValueError):
        make_instance([1], [-1], 1)
    with pytest.raises(ValueError):
        make_instance([1], [1], 0)
    with pytest.raises(ValueError, match="capacity must be non-negative"):
        KnapsackInstance((Q(1),), (Q(1),), Q(-1))
    with pytest.raises(ValueError):
        make_instance([3], [1], 2)  # item larger than the capacity
    with pytest.raises(TypeError):
        make_instance([1.5], [1], 2)  # floats must be passed as strings


def test_cost_value_feasible():
    inst = make_instance([2, 1], [2, 2], 2)
    assert inst.cost(0b11) == 3
    assert inst.value(0b11) == 4
    assert inst.is_feasible(0b10) and not inst.is_feasible(0b11)


def test_greedy_ratio_order_and_stopping():
    inst = make_instance([2, 1], [2, 2], 2)
    sol, val = greedy(inst)
    # ratios are (1, 2); item 1 goes first, item 0 no longer fits
    assert type(sol) is int
    assert sol == 0b10 and val == 2
    assert val == enumerate_opt(inst)


def test_greedy_stops_at_first_misfit_even_if_later_items_fit():
    inst = make_instance([2, 3, 1], [4, 3, 1], 3)
    sol, val = greedy(inst)
    assert sol == 0b001 and val == 4  # item 2 would fit but is skipped


def test_opt_matches_enumeration(rng):
    for _ in range(60):
        inst = rand_instance(rng, rng.randint(1, 8))
        sol, val = opt_solution(inst)
        assert type(sol) is int
        assert val == enumerate_opt(inst)
        assert inst.is_feasible(sol) and inst.value(sol) == val


def test_opt_solution_cap():
    # the search is capped for non-uniform instances only
    skewed = KnapsackInstance((Q(1),) * 24 + (Q(2),), (Q(1),) * 25, Q(3))
    with pytest.raises(ValueError):
        opt_solution(skewed)
    sol, val = opt_solution(KnapsackInstance((Q(1),) * 25, (Q(1),) * 25, Q(3)))
    assert (val, sol) == (3, 0b111)


def test_uniform_opt_closed_form_matches_enumeration():
    # k = min(n, floor(C/c)) items, and the search's tie-break picks the
    # first k; a capacity below the size leaves only the empty set
    for n in range(1, 11):
        for size, value, capacity in ((1, 1, "9/5"), (1, 1, 3), (2, 3, 7),
                                      ("3/2", "5/7", "9/2"), (3, 5, "27/5"),
                                      (2, 1, 40)):
            inst = make_instance([size] * n, [value] * n, capacity)
            sol, val = opt_solution(inst)
            assert val == enumerate_opt(inst)
            k = min(n, int(inst.capacity // inst.sizes[0]))
            assert type(sol) is int and sol == (1 << k) - 1
        below = KnapsackInstance((Q(2),) * n, (Q(3),) * n, Q(3, 2))
        sol, val = opt_solution(below)
        assert (val, sol) == (enumerate_opt(below), 0) == (0, 0)


def test_uniform_opt_at_twelve_hundred_items():
    # far past both the search cap and Python's recursion limit
    sol, val = opt_solution(uniform_gap_instance(1200, "1/10"))
    assert (val, sol) == (1, 1)


def test_lp_value_closed_form(rng):
    # fractional greedy equals brute maximum over the base polytope vertices
    inst = make_instance([2, 1], [2, 2], 2)
    assert lp_value(inst) == 2 + Q(1) * Q(1, 2) * 2  # item 1 whole, half of item 0
    for _ in range(30):
        sub = rand_instance(rng, rng.randint(1, 6))
        assert lp_value(sub) >= opt_solution(sub)[1]


def test_lp_at_most_greedy_plus_max_value(rng):
    for _ in range(100):
        inst = rand_instance(rng, rng.randint(1, 8))
        assert lp_value(inst) <= greedy(inst)[1] + max(inst.values)


def test_residual_relaxes_standing_assumption():
    inst = KnapsackInstance((Q(1),) * 4, (Q(1),) * 4, Q(3, 2))
    sub, keep = residual(inst, {1: 1})
    assert sub.n == 3 and keep == [0, 2, 3]
    assert sub.capacity == Q(1, 2)
    # residual items are larger than the leftover capacity: never packable
    assert all(not sub.is_feasible(1 << i) for i in range(3))
    assert opt_solution(sub)[1] == 0


def test_residual_validation():
    inst = make_instance([1, 1], [1, 1], 1)
    with pytest.raises(ValueError):
        residual(inst, {0: 2})
    with pytest.raises(ValueError):
        residual(inst, {5: 1})
    with pytest.raises(ValueError):
        residual(inst, {0: 1, 1: 1})  # exceeds the capacity
    with pytest.raises(ValueError):
        residual(inst, {0: 0, 1: 0})  # nothing left


def test_residual_bellman_identity(rng):
    # OPT(inst) = max over assignments on S of (value fixed to 1 + OPT(residual))
    for _ in range(25):
        inst = rand_instance(rng, rng.randint(3, 6))
        s = [0, 1]
        best = None
        for bits in itertools.product((0, 1), repeat=len(s)):
            fixed = dict(zip(s, bits))
            used = sum((inst.sizes[j] for j, b in fixed.items() if b), Q(0))
            if used > inst.capacity:
                continue
            sub, _ = residual(inst, fixed)
            total = sum((inst.values[j] for j, b in fixed.items() if b), Q(0))
            total += opt_solution(sub)[1]
            best = total if best is None else max(best, total)
        assert best == opt_solution(inst)[1]


def test_uniform_gap_instance():
    inst = uniform_gap_instance(6, "1/10")
    assert inst.is_uniform()
    assert inst.capacity == Q(9, 5)
    assert opt_solution(inst)[1] == 1
    with pytest.raises(ValueError):
        uniform_gap_instance(6, "1/2")
    with pytest.raises(ValueError):
        uniform_gap_instance(6, "0")


def test_instance_json_round_trip(rng):
    inst = rand_instance(rng, 5)
    back = instance_from_json(instance_to_json(inst))
    assert back == inst


def test_instance_json_validation():
    with pytest.raises(ValueError):
        instance_from_json('{"n": 2, "capacity": "1", '
                           '"items": [{"size": "1", "value": "1"}]}')
