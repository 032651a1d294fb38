import itertools

import pytest

from liftlab import (Q, SetVector, Solution, all_constraints,
                     certificate_alpha, convex_combination, family_p_t,
                     family_powerset, integer_to_moment, lasserre_membership,
                     make_instance, mask_of, psd_exact, sa_gap_certificate,
                     sa_linear_constraints, sa_membership,
                     uniform_gap_instance, verify_gap_certificate)

from conftest import mixture_moment, point_mixture, rand_instance


def feasible_points(inst):
    return [m for m in range(1 << inst.n) if inst.is_feasible(m)]


def test_integer_moment_values():
    inst = make_instance([1, 2], [3, 2], 2)
    y = integer_to_moment(inst, Solution(0b01), 2)
    assert y[0] == 1 and y[0b01] == 1 and y[0b10] == 0 and y[0b11] == 0


def test_integer_moment_rejects_infeasible():
    inst = make_instance([1, 2], [3, 2], 2)
    with pytest.raises(ValueError):
        integer_to_moment(inst, Solution(0b11), 2)
    with pytest.raises(ValueError):
        integer_to_moment(inst, Solution(0b100), 2)


def test_integer_points_lie_in_every_sa_level(rng):
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 5))
        m = rng.choice(feasible_points(inst))
        for t in range(1, inst.n + 1):
            y = integer_to_moment(inst, Solution(m), t)
            assert sa_membership(y, inst, t).accepted


def test_integer_points_lie_in_every_lasserre_level(rng):
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 5))
        m = rng.choice(feasible_points(inst))
        for t in range(1, inst.n + 1):
            y = integer_to_moment(inst, Solution(m), 2 * t)
            assert lasserre_membership(y, inst, t).accepted


def test_mixtures_of_integer_points_are_members(rng):
    # exact convex combinations stay in both lifted polytopes
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 5))
        t = rng.randint(1, inst.n)
        pts = rng.sample(feasible_points(inst), k=min(3, inst.n))
        y = mixture_moment(inst, point_mixture(rng, pts), 2 * t)
        assert lasserre_membership(y, inst, t).accepted
        assert sa_membership(y, inst, t).accepted  # the weaker polytope too


def test_convex_combination_validation():
    inst = make_instance([1, 1], [1, 1], 1)
    y0 = integer_to_moment(inst, Solution(0), 2)
    y1 = integer_to_moment(inst, Solution(1), 2)
    with pytest.raises(ValueError):
        convex_combination([])
    with pytest.raises(ValueError):
        convex_combination([(Q(1, 2), y0), (Q(1, 4), y1)])
    with pytest.raises(ValueError):
        convex_combination([(Q(3, 2), y0), (Q(-1, 2), y1)])
    short = SetVector(2, {0: Q(1)})
    with pytest.raises(ValueError):
        convex_combination([(Q(1, 2), y0), (Q(1, 2), short)])


def test_membership_argument_validation():
    inst = make_instance([1, 1], [1, 1], 1)
    y = integer_to_moment(inst, Solution(0), 2)
    with pytest.raises(ValueError):
        sa_membership(y, inst, 0)
    with pytest.raises(ValueError):
        lasserre_membership(SetVector(2, {0: Q(1)}), inst, 1)


def test_range_violations_reported():
    inst = make_instance([1, 1], [1, 1], 1)
    y = SetVector(2, {0: Q(1), 0b01: Q(2), 0b10: Q(0)})
    report = sa_membership(y, inst, 1)
    assert not report.accepted
    assert any(v.kind == "range" for v in report.violations)
    bad_unit = SetVector(2, {0: Q(1, 2), 0b01: Q(0), 0b10: Q(0)})
    report = sa_membership(bad_unit, inst, 1)
    assert any(v.kind == "y_empty" for v in report.violations)


def test_range_check_reads_only_the_level():
    # the moment vector of {0} stored to depth 4, with one entry beyond
    # P_2(V) out of range: neither level-2 SA nor level-1 Lasserre reads it
    inst = uniform_gap_instance(4, "1/10")
    y = integer_to_moment(inst, Solution(0b1), 4)
    y.values[0b1111] = Q(2)
    p2 = len(family_p_t(4, 2).masks)
    sa = sa_membership(y, inst, 2)
    assert sa.accepted, sa.describe()
    assert sa.checked == 1 + p2 + 6 + 4  # unit, range on P_2(V), |U| = 2, |W| = 1
    la = lasserre_membership(y, inst, 1)
    assert la.accepted, la.describe()
    assert la.checked == 1 + p2 + 2
    # level-2 Lasserre reads P_4(V), so the entry is rejected there
    report = lasserre_membership(y, inst, 2)
    assert ("range", (0, 1, 2, 3)) in [(v.kind, v.witness) for v in report.violations]


def test_certificate_alpha_and_shape():
    alpha = certificate_alpha(20, Q(1, 10), 5)
    assert alpha == 2 * Q(9, 10) / (20 + 4 * Q(9, 10))
    cert = sa_gap_certificate(10, "1/10", 3)
    assert cert[0] == 1
    assert cert[0b1] == certificate_alpha(10, Q(1, 10), 3)
    assert cert[0b11] == 0
    with pytest.raises(ValueError):
        sa_gap_certificate(10, "1/2", 3)
    with pytest.raises(ValueError):
        sa_gap_certificate(3, "1/10", 3)  # needs t < n


def test_certificate_membership_small():
    check = verify_gap_certificate(6, "1/10", 2, "1/2")
    assert check.report.accepted
    # value = 2(1-eps) n / (n + (t-1)(1-eps)) with n=6, eps=1/10, t=2
    assert check.value == Q(9, 5) * 6 / (6 + Q(9, 10))
    assert check.value == Q(36, 23)
    assert check.bound == Q(19, 10) / Q(3, 2)
    assert check.bound_ok


def test_certificate_guardrails():
    with pytest.raises(ValueError):
        verify_gap_certificate(6, "1/10", 3, "1/10")  # t > delta * n
    with pytest.raises(ValueError):
        verify_gap_certificate(6, "1/10", 2, "0")


def test_inflated_certificate_rejected():
    # singleton mass 3/5 breaks the pairwise moment condition
    inst = uniform_gap_instance(4, "1/10")
    values = {0: Q(1)}
    for size in (1, 2):
        for combo in itertools.combinations(range(4), size):
            values[mask_of(combo)] = Q(3, 5) if size == 1 else Q(0)
    bad = SetVector(4, values)
    assert not sa_membership(bad, inst, 2).accepted


def test_linear_constraints_satisfied_by_members(rng):
    # every linear inequality is valid for integer moments and mixtures
    inst = rand_instance(rng, 4)
    t = 2
    pts = rng.sample(feasible_points(inst), k=3)
    y = mixture_moment(inst, point_mixture(rng, pts), t)
    for ineq in sa_linear_constraints(inst, t):
        assert ineq.evaluate(y) >= 0, ineq.tag


def test_linear_constraints_satisfied_by_certificate():
    inst = uniform_gap_instance(6, "1/10")
    cert = sa_gap_certificate(6, "1/10", 2)
    for ineq in sa_linear_constraints(inst, 2):
        assert ineq.evaluate(cert) >= 0, ineq.tag


def test_linear_constraint_count():
    inst = uniform_gap_instance(4, "1/10")
    cons = sa_linear_constraints(inst, 2)
    # pairs (I, J): 1 with |I|+|J|=0 plus 8 with |I|+|J|=1; each pair
    # emits 1 capacity row and 2 rows per item
    assert len(cons) == 9 * (1 + 2 * 4)


def test_lasserre_rejects_padded_sa_certificate():
    # the level-2 certificate passes the weaker membership but its
    # zero-padded extension fails the full moment-matrix condition
    n = 10
    inst = uniform_gap_instance(n, "1/10")
    cert = sa_gap_certificate(n, "1/10", 2)
    assert sa_membership(cert, inst, 2).accepted
    alpha = certificate_alpha(n, Q(1, 10), 2)
    values = {0: Q(1)}
    for size in range(1, 5):
        for combo in itertools.combinations(range(n), size):
            values[mask_of(combo)] = alpha if size == 1 else Q(0)
    padded = SetVector(n, values)
    assert not lasserre_membership(padded, inst, 2).accepted


def _psd_on(values, masks):
    return psd_exact([[values(a | b) for b in masks] for a in masks])


def _dense_oracle(y, inst, t, lasserre):
    """Membership straight from the definition: y_0 = 1, 0 <= y <= 1, and
    every moment and localizing matrix, over all 2n+1 constraints, PSD."""
    if y[0] != 1 or not all(0 <= v <= 1 for v in y.values.values()):
        return False
    # (g*y)_K = b y_K + sum_i a_i y_{K u i} on every K a localizer reads
    reach = family_p_t(inst.n, (2 * t if lasserre else t) - 1).masks
    shifted = [{m: g.offset * y[m] + sum((a * y[m | 1 << i] for i, a in
                                          enumerate(g.coefficients)), Q(0))
                for m in reach}.__getitem__
               for g in all_constraints(inst)]
    if lasserre:
        fam_t, fam_tm1 = family_p_t(inst.n, t).masks, family_p_t(inst.n, t - 1).masks
        return (_psd_on(y.__getitem__, fam_t)
                and all(_psd_on(g, fam_tm1) for g in shifted))
    return (all(_psd_on(y.__getitem__, family_powerset(u).masks)
                for u in family_p_t(inst.n, t))
            and all(_psd_on(g, family_powerset(w).masks)
                    for w in family_p_t(inst.n, t - 1) for g in shifted))


def test_membership_agrees_with_the_dense_definition(rng):
    # mixtures of feasible 0/1 points, every other one nudged off the hull
    # in a few coordinates (kept inside [0, 1] so the PSD tests decide)
    verdicts = {"sa": set(), "lasserre": set()}
    for case in range(500):
        inst = rand_instance(rng, rng.randint(1, 5))
        t = rng.randint(1, inst.n)
        pts = rng.sample(feasible_points(inst), k=min(inst.n, rng.randint(1, 4)))
        y = mixture_moment(inst, point_mixture(rng, pts), 2 * t)
        if case % 2:
            for m in rng.sample(sorted(y.values)[1:], k=min(2, len(y.values) - 1)):
                nudged = y.values[m] + Q(rng.randint(-3, 3), rng.randint(5, 40))
                y.values[m] = min(max(nudged, Q(0)), Q(1))
        y_sa = SetVector(inst.n, {m: v for m, v in y.values.items()
                                  if m.bit_count() <= t})
        for name, point, check in (("sa", y_sa, sa_membership),
                                   ("lasserre", y, lasserre_membership)):
            expected = _dense_oracle(point, inst, t, name == "lasserre")
            assert check(point, inst, t).accepted == expected, (name, case)
            verdicts[name].add(expected)
    assert verdicts == {"sa": {True, False}, "lasserre": {True, False}}


def test_sa_checks_one_family_per_maximal_set():
    # y_0 and range (1 + |P_2(V)| = 23), C(6,2) moment and C(6,1)
    # capacity families
    check = verify_gap_certificate(6, "1/10", 2, "1/2")
    assert check.report.accepted
    assert check.report.checked == 1 + 22 + 15 + 6


def test_sa_margin_is_the_most_negative_moebius_difference():
    # at U = {0, 1}: B({0},{1}) = B({1},{0}) = 3/5, B({0,1},{}) = 0 and
    # B({},{0,1}) = 1 - 3/5 - 3/5 = -1/5
    inst = uniform_gap_instance(2, "1/10")
    y = SetVector(2, {0: Q(1), 0b01: Q(3, 5), 0b10: Q(3, 5), 0b11: Q(0)})
    report = sa_membership(y, inst, 2)
    moment = [v for v in report.violations if v.kind == "moment M_P(U)"]
    assert [(v.witness, v.margin) for v in moment] == [((0, 1), Q(-1, 5))]
