import itertools
import random

import pytest

from liftlab import (Q, DecompositionResult, SetVector, big_items,
                     decompose, extend, family_p_t, integer_to_moment,
                     lasserre_membership, lp_value, make_instance, mask_of,
                     opt_solution, residual, uniform_gap_instance,
                     vanishing_condition, verify_decomposition)
from liftlab.subsets import indices_of, submasks, z_vector

from conftest import (mixture_moment, point_mixture, rand_instance, rand_rat,
                      rand_setvector)


def constrained_mixture(rng, inst, s_mask, k, depth):
    """Mixture over feasible points whose overlap with S stays below k."""
    pool = [m for m in range(1 << inst.n)
            if inst.is_feasible(m) and (m & s_mask).bit_count() < k]
    pts = rng.sample(pool, k=min(3, len(pool)))
    weighted = point_mixture(rng, pts)
    return mixture_moment(inst, weighted, depth), weighted


def oracle_decompose(y, inst, s_mask, k, t):
    """The decomposition by its definition: z^X on all of P_{2t-2k}(V) for
    every X <= S, parts of weight 0 skipped, each z^X divided by z^X_0."""
    yext = extend(y)
    target = family_p_t(inst.n, 2 * (t - k))
    parts = []
    for x_mask in sorted(submasks(s_mask)):
        z = z_vector(yext, s_mask, x_mask, masks=target)
        if z[0] < 0:
            raise ValueError(
                f"negative weight {z[0]} for X={indices_of(x_mask)}: "
                "input is not Lasserre-feasible")
        if z[0] != 0:
            parts.append((x_mask, z[0], {m: v / z[0] for m, v in z.values.items()}))
    return parts


def outcome(split, *args):
    """(parts as (X, weight, w values)) or the ValueError message of split."""
    try:
        parts = split(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(parts, DecompositionResult):
        parts = [(x, wt, w.values) for x, wt, w in parts.parts]
    return parts


def rational_instance(rng, n):
    sizes = [Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    values = [Q(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
    capacity = max(sizes) + Q(rng.randint(0, 12), rng.randint(1, 3))
    return make_instance(sizes, values, capacity)


def test_decompose_matches_the_definitional_oracle():
    # mixtures must split alike; random vectors that vanish on |I n S| >= k
    # must split alike or fail with the same negative weight
    rng = random.Random(20)
    seen = set()
    for trial in range(90):
        n = rng.randint(3, 5)
        inst = rand_instance(rng, n) if trial % 2 else rational_instance(rng, n)
        k = rng.choice([1, 2, 3])
        t = rng.randint(k + 1, 4)
        room = n - (t - k)  # a partial S leaves t-k or more items outside it
        shape = rng.choice(["empty", "partial", "whole"] if room else ["empty", "whole"])
        s_mask = {"empty": 0, "whole": (1 << n) - 1}.get(shape)
        if shape == "partial":
            s_mask = mask_of(rng.sample(range(n), rng.randint(1, room)))
        if trial % 3:
            y, _ = constrained_mixture(rng, inst, s_mask, k, 2 * t)
        else:
            values = {m: Q(0) if (m & s_mask).bit_count() >= k else rand_rat(rng)
                      for m in family_p_t(n, 2 * t)}
            values[0] = Q(1)
            y = SetVector(n, values)
        got = outcome(decompose, y, inst, s_mask, k, t)
        assert got == outcome(oracle_decompose, y, inst, s_mask, k, t), (trial, shape)
        seen.add((shape, k, isinstance(got, str)))
    # every S shape at every k, with both a split and a negative weight
    assert {(shape, k) for shape, k, _ in seen} == {
        (shape, k) for shape in ("empty", "partial", "whole") for k in (1, 2, 3)}
    assert {failed for _, _, failed in seen} == {True, False}


def test_big_items_threshold():
    inst = make_instance([1, 1, 1], [5, 1, 1], 2)
    # OPT = 6; items above 6/2 = 3 form S
    assert opt_solution(inst)[1] == 6
    assert big_items(inst, 2) == 0b001
    assert big_items(inst, 1) == 0
    with pytest.raises(ValueError):
        big_items(inst, 0)


def test_vanishing_condition():
    y = SetVector(3, {0: Q(1), 0b001: Q(1, 2), 0b011: Q(0), 0b010: Q(1, 3)})
    assert vanishing_condition(y, 0b011, 2)
    assert not vanishing_condition(y, 0b011, 1)
    assert vanishing_condition(y, 0, 1)


def test_decompose_single_integer_point(rng):
    inst = rand_instance(rng, 4)
    chosen = 0
    for i in range(inst.n):  # greedy-fill a feasible point
        if inst.cost(chosen | (1 << i)) <= inst.capacity:
            chosen |= 1 << i
    t, k = 3, 1
    s_mask = 0b0011 & ~chosen if (0b0011 & ~chosen) else 0b0001 & ~chosen
    y = integer_to_moment(inst, chosen, 2 * t)
    if not vanishing_condition(y, s_mask, k):
        pytest.skip("sampled point intersects S")
    result = decompose(y, inst, s_mask, k, t)
    assert len(result.parts) == 1
    x_mask, weight, w = result.parts[0]
    assert x_mask == chosen & s_mask and weight == 1
    assert verify_decomposition(result, y, inst, t, k).accepted


def test_decompose_weights_aggregate_mixture_masses(rng):
    for _ in range(10):
        inst = rand_instance(rng, 5)
        t = 3
        k = rng.choice([1, 2])
        s_mask = 0b00011
        y, weighted = constrained_mixture(rng, inst, s_mask, k, 2 * t)
        result = decompose(y, inst, s_mask, k, t)
        expected = {}
        for w, p in weighted:
            key = p & s_mask
            expected[key] = expected.get(key, Q(0)) + w
        got = {x: wt for x, wt, _ in result.parts}
        assert got == {x: wt for x, wt in expected.items() if wt != 0}


def test_decompose_and_verify_mixtures(rng):
    for _ in range(6):
        inst = rand_instance(rng, 5)
        t = 3
        k = rng.choice([1, 2])
        s_mask = big_items(inst, 2)
        y, _ = constrained_mixture(rng, inst, s_mask, k, 2 * t)
        result = decompose(y, inst, s_mask, k, t)
        report = verify_decomposition(result, y, inst, t, k)
        assert report.accepted, report.describe()
        assert sum(w for _, w, _ in result.parts) == 1


def test_decompose_guards():
    inst = uniform_gap_instance(4, "1/10")
    y = integer_to_moment(inst, 0, 6)
    with pytest.raises(ValueError):
        decompose(y, inst, 0b0011, 0, 3)
    with pytest.raises(ValueError):
        decompose(y, inst, 0b0011, 3, 3)
    with pytest.raises(ValueError):
        decompose(y, inst, 1 << 10, 1, 3)
    bad = integer_to_moment(inst, 0b0001, 6)
    with pytest.raises(ValueError):
        decompose(bad, inst, 0b0011, 1, 3)  # vanishing condition fails
    with pytest.raises(ValueError, match=r"\|S\| capped at 16"):
        decompose(y, inst, (1 << 17) - 1, 1, 3)
    # twice the moment vector of {2}: it vanishes on S = {0, 1}, y_0 = 2
    doubled = integer_to_moment(inst, 0b0100, 6)
    doubled = SetVector(4, {m: 2 * v for m, v in doubled.values.items()})
    with pytest.raises(ValueError, match="expected a normalized lifted point"):
        decompose(doubled, inst, 0b0011, 1, 3)


def test_weights_sum_to_y0_identically():
    # the indicator polynomials of the X <= S sum to 1, so the z^X_0 sum to
    # y_0 whatever y holds: decompose needs no test of the sum
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        y = rand_setvector(rng, n)
        s_mask = rng.randrange(1 << n)
        total = sum(z_vector(y, s_mask, x, masks=[0])[0] for x in submasks(s_mask))
        assert total == y[0]


def test_negative_weight_signals_infeasible_input():
    # certificate-shaped vector with singleton mass 3/5: the X = {} weight
    # 1 - y_0 - y_1 comes out negative, proving the input was not a
    # member of the stronger polytope
    n, t, k = 4, 3, 2
    inst = uniform_gap_instance(n, "1/10")
    values = {m: Q(0) for m in range(1 << n)}
    values[0] = Q(1)
    for i in range(n):
        values[1 << i] = Q(3, 5)
    y = SetVector(n, values)
    assert vanishing_condition(y, 0b0011, k)
    with pytest.raises(ValueError, match="not Lasserre-feasible") as exc:
        decompose(y, inst, 0b0011, k, t)
    # the same message, naming the same X, as the definitional split
    assert str(exc.value) == outcome(oracle_decompose, y, inst, 0b0011, k, t)


def test_objective_bounded_by_conditioned_residuals(rng):
    # for mixtures with S = big items at k = t-1: the lifted objective is
    # at most max over parts of (fixed value + base-LP residual value)
    # plus OPT/(t-1)
    for _ in range(8):
        inst = rand_instance(rng, 5)
        t = 3
        k = t - 1
        s_mask = big_items(inst, k)
        if s_mask.bit_count() == inst.n:
            continue
        y, _ = constrained_mixture(rng, inst, s_mask, k, 2 * t)
        result = decompose(y, inst, s_mask, k, t)
        value = sum((inst.values[i] * y[1 << i] for i in range(inst.n)), Q(0))
        best = None
        for x_mask, _, _ in result.parts:
            fixed = {j: 1 if (x_mask >> j) & 1 else 0
                     for j in indices_of(s_mask)}
            sub, _ = residual(inst, fixed)
            term = inst.value(x_mask) + lp_value(sub)
            best = term if best is None else max(best, term)
        assert best is not None
        assert value <= best + opt_solution(inst)[1] / k


def test_verify_reports_reconstruction_mismatch(rng):
    inst = rand_instance(rng, 4)
    t, k = 3, 2
    s_mask = 0b0011
    y, _ = constrained_mixture(rng, inst, s_mask, k, 2 * t)
    result = decompose(y, inst, s_mask, k, t)
    tampered = y.copy()
    tampered.values[mask_of([2])] += Q(1, 97)
    report = verify_decomposition(result, tampered, inst, t, k)
    assert any(v.kind == "reconstruction" for v in report.violations)


def test_verify_rejects_a_tampered_part(rng):
    # items 0 and 1 form S; the part X = {0} leaves capacity 4 - 3 = 1
    # for items 2 and 3, so item 3 (size 3) never fits beside it
    inst = make_instance([3, 1, 1, 3], [5, 1, 1, 2], 4)
    t, k, s_mask = 3, 2, 0b0011
    y = mixture_moment(inst, point_mixture(rng, [0b0001, 0b0010, 0b0110]), 2 * t)
    result = decompose(y, inst, s_mask, k, t)
    assert verify_decomposition(result, y, inst, t, k).accepted
    (at,) = [p for p, (x_mask, _, _) in enumerate(result.parts) if x_mask == 0b0001]
    x_mask, weight, w = result.parts[at]

    def kinds(tampered):
        parts = list(result.parts)
        parts[at] = (x_mask, weight, tampered)
        report = verify_decomposition(
            DecompositionResult(s_mask, tuple(parts)), y, inst, t, k)
        assert not report.accepted
        return {v.kind for v in report.violations}

    off = w.copy()  # item 1 of S is half in, although X says out
    off.values[0b0010] = Q(1, 2)
    assert "w 0/1 pattern on S" in kinds(off)
    pair = w.copy()  # y_{0,1} = 1 with y_1 = 0: M_P1 has the minor [[0, 1], [1, 1]]
    pair.values[0b0011] = Q(1)
    assert "w membership La_{t-k}" in kinds(pair)
    # the 0/1 point X u {3}: item 3 outside S in full, past the residual capacity
    heavy = SetVector(w.n, {m: Q(1) if m & ~0b1001 == 0 else Q(0) for m in w.values})
    assert "w membership La_{t-k}(residual)" in kinds(heavy)
