import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from liftlab import (Q, SetVector, certificate_alpha,
                     certificate_membership, convex_combination, family_p_t,
                     family_powerset, instance_to_json, integer_to_moment,
                     lasserre_membership, make_instance, mask_of,
                     moment_matrix, psd_exact, sa_gap_certificate,
                     sa_membership, setvector_to_json,
                     uniform_gap_instance, verify_gap_certificate)
from liftlab.cli import main
from liftlab.hierarchy import (MembershipReport, _lasserre_membership_dense,
                               _lasserre_orbit_tests, _orbit_blocks,
                               _sa_membership_dense)

from conftest import (mixture_moment, point_mixture, rand_instance,
                      sa_linear_constraints)
from test_psd import fraction_witness


def feasible_points(inst):
    return [m for m in range(1 << inst.n) if inst.is_feasible(m)]


def test_integer_moment_values():
    inst = make_instance([1, 2], [3, 2], 2)
    y = integer_to_moment(inst, 0b01, 2)
    assert y[0] == 1 and y[0b01] == 1 and y[0b10] == 0 and y[0b11] == 0


def test_integer_moment_rejects_infeasible():
    inst = make_instance([1, 2], [3, 2], 2)
    with pytest.raises(ValueError):
        integer_to_moment(inst, 0b11, 2)
    with pytest.raises(ValueError):
        integer_to_moment(inst, 0b100, 2)


def test_integer_points_lie_in_every_sa_level(rng):
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 5))
        m = rng.choice(feasible_points(inst))
        for t in range(1, inst.n + 1):
            y = integer_to_moment(inst, m, t)
            assert sa_membership(y, inst, t).accepted


def test_integer_points_lie_in_every_lasserre_level(rng):
    for _ in range(10):
        inst = rand_instance(rng, rng.randint(2, 5))
        m = rng.choice(feasible_points(inst))
        for t in range(1, inst.n + 1):
            y = integer_to_moment(inst, m, 2 * t)
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
    y0 = integer_to_moment(inst, 0, 2)
    y1 = integer_to_moment(inst, 1, 2)
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
    y = integer_to_moment(inst, 0, 2)
    with pytest.raises(ValueError):
        sa_membership(y, inst, 0)
    with pytest.raises(ValueError, match="ground-set size mismatch"):
        sa_membership(SetVector(3, {0: Q(1)}), inst, 1)
    with pytest.raises(ValueError, match="level t must be >= 1"):
        sa_linear_constraints(inst, 0)
    with pytest.raises(ValueError):
        lasserre_membership(SetVector(2, {0: Q(1)}), inst, 1)
    # as many entries as P_1(V), but [1] is missing and [0, 1] is above it
    y = SetVector(2, {0: Q(1), 0b01: Q(1, 2), 0b11: Q(0)})
    for check in (sa_membership, lasserre_membership):
        with pytest.raises(ValueError, match=r"missing \[1\]"):
            check(y, inst, 1)


def test_range_violations_reported():
    inst = make_instance([1, 1], [1, 1], 1)
    y = SetVector(2, {0: Q(1), 0b01: Q(2), 0b10: Q(0)})
    report = sa_membership(y, inst, 1)
    assert not report.accepted
    assert any(v.kind == "range" for v in report.violations)
    bad_unit = SetVector(2, {0: Q(1, 2), 0b01: Q(0), 0b10: Q(0)})
    report = sa_membership(bad_unit, inst, 1)
    assert any(v.kind == "y_empty" for v in report.violations)
    # 0 and 1 are in range; values just outside are reported with
    # themselves as the margin
    edge = SetVector(4, {0: Q(1), 0b0001: Q(0), 0b0010: Q(1),
                         0b0100: Q(-1, 7), 0b1000: Q(8, 7)})
    report = sa_membership(edge, make_instance([1] * 4, [1] * 4, 2), 1)
    assert [(v.witness, v.margin) for v in report.violations
            if v.kind == "range"] == [((2,), Q(-1, 7)), ((3,), Q(8, 7))]
    # a long report lists 20 violations and counts the rest
    many = MembershipReport()
    for i in range(23):
        many.add("range", (i,), Q(2))
    lines = many.describe().splitlines()
    assert len(lines) == 22 and lines[-1] == "  ... 3 more"


def test_range_check_reads_only_the_level():
    # the moment vector of {0} stored to depth 4, with one entry beyond
    # P_2(V) out of range: neither level-2 SA nor level-1 Lasserre reads it
    inst = uniform_gap_instance(4, "1/10")
    y = integer_to_moment(inst, 0b1, 4)
    y.values[0b1111] = Q(2)
    p2 = len(family_p_t(4, 2))
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
    # (g*y)_K = b y_K + sum_i a_i y_{K u i} on every K a localizer reads, for
    # g = b + a.x: the capacity C - sum c_i x_i, then x_i and 1 - x_i
    n = inst.n
    unit = [tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]
    constraints = ([(inst.capacity, tuple(-c for c in inst.sizes))]
                   + [(Q(0), e) for e in unit]
                   + [(Q(1), tuple(-a for a in e)) for e in unit])
    reach = family_p_t(n, (2 * t if lasserre else t) - 1)
    shifted = [{m: b * y[m] + sum((a * y[m | 1 << i] for i, a in
                                   enumerate(coefficients)), Q(0))
                for m in reach}.__getitem__
               for b, coefficients in constraints]
    if lasserre:
        fam_t, fam_tm1 = family_p_t(inst.n, t), family_p_t(inst.n, t - 1)
        return (_psd_on(y.__getitem__, fam_t)
                and all(_psd_on(g, fam_tm1) for g in shifted))
    return (all(_psd_on(y.__getitem__, family_powerset(u))
                for u in family_p_t(inst.n, t))
            and all(_psd_on(g, family_powerset(w))
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
    report = _sa_membership_dense(sa_gap_certificate(6, "1/10", 2),
                                  uniform_gap_instance(6, "1/10"), 2)
    assert report.accepted
    assert report.checked == 1 + 22 + 15 + 6


def test_sa_checks_one_test_per_orbit_value():
    # on the symmetric certificate every |U| = 2 is one orbit with three
    # Moebius values (|I| = 0, 1, 2), every |W| = 1 one with two
    check = verify_gap_certificate(6, "1/10", 2, "1/2")
    assert check.report.accepted and check.report.reduced
    assert check.report.checked == 3 + 2
    report = sa_membership(sa_gap_certificate(6, "1/10", 2),
                           uniform_gap_instance(6, "1/10"), 2)
    assert report.accepted and report.reduced
    assert report.checked == 1 + 22 + 3 + 2
    assert "orbit-reduced" in report.describe()


def test_sa_margin_is_the_most_negative_moebius_difference():
    # at U = {0, 1}: B({0},{1}) = B({1},{0}) = 3/5, B({0,1},{}) = 0 and
    # B({},{0,1}) = 1 - 3/5 - 3/5 = -1/5
    inst = uniform_gap_instance(2, "1/10")
    y = SetVector(2, {0: Q(1), 0b01: Q(3, 5), 0b10: Q(3, 5), 0b11: Q(0)})
    report = sa_membership(y, inst, 2)
    moment = [v for v in report.violations if v.kind == "moment M_P(U)"]
    assert [(v.witness, v.margin) for v in moment] == [((0, 1), Q(-1, 5))]


# a point on P_4 of 4 items whose entries have denominators 3 and 7, and an
# instance with capacity 19/10 and sizes 1, 3/2, 1/2, 4/5: both dense checks
# run on ints scaled by 21 and 10 and must report the unscaled margins
MARGIN_POINT = {(): "1", (0,): "6/7", (1,): "2/3", (2,): "6/7", (3,): "1",
                (0, 1): "3/7", (0, 2): "2/3", (0, 3): "0", (1, 2): "2/7",
                (1, 3): "1/7", (2, 3): "2/3", (0, 1, 2): "2/7",
                (0, 1, 3): "1/3", (0, 2, 3): "1/7", (1, 2, 3): "2/3",
                (0, 1, 2, 3): "1/7"}
MARGIN_LINES = {
    "sa": ["rejected (10 violations / 22 checks)",
           "  moment M_P(U) at [0, 1] (margin -2/21)",
           "  moment M_P(U) at [0, 2] (margin -1/21)",
           "  moment M_P(U) at [0, 3] (margin -6/7)",
           "  moment M_P(U) at [1, 2] (margin -5/21)",
           "  moment M_P(U) at [1, 3] (margin -11/21)",
           "  moment M_P(U) at [2, 3] (margin -4/21)",
           "  constraint[0] M_P(W)(g*y) at [0] (margin -103/105)",
           "  constraint[0] M_P(W)(g*y) at [1] (margin -23/30)",
           "  constraint[0] M_P(W)(g*y) at [2] (margin -53/70)",
           "  constraint[0] M_P(W)(g*y) at [3] (margin -73/42)"],
    "lasserre": ["rejected (2 violations / 19 checks)",
                 "  moment M_Pt(V) at [2] (margin -3062/1323)",
                 "  constraint[0] M_Pt-1(V)(g*y) at [1] (margin -83/70)"],
}


def _margin_case():
    inst = make_instance(["1", "3/2", "1/2", "4/5"], [3, 4, 2, 3], "19/10")
    y = SetVector(4, {mask_of(k): Fraction(v) for k, v in MARGIN_POINT.items()})
    return inst, y


def test_dense_margins_are_the_unscaled_values(tmp_path, capsys):
    inst, y = _margin_case()
    n, t = inst.n, 2

    def capacity(mask):  # (g*y)_K = C y_K - sum_i c_i y_{K u i}, on Fractions
        return inst.capacity * y[mask] - sum(
            (c * y[mask | 1 << i] for i, c in enumerate(inst.sizes)), Fraction(0))

    def low_moebius(values, combo):  # min over I <= U of B(I, U\I)
        u = mask_of(combo)
        return min(sum((-1) ** l.bit_count() * values(i | l)
                       for l in range(1 << n) if l & ~(u & ~i) == 0)
                   for i in range(1 << n) if i & ~u == 0)

    want = []
    for kind, values, size in (("moment M_P(U)", y.__getitem__, t),
                               ("constraint[0] M_P(W)(g*y)", capacity, t - 1)):
        for combo in itertools.combinations(range(n), size):
            low = low_moebius(values, combo)
            if low < 0:
                want.append((kind, combo, low))
    report = sa_membership(y, inst, t)
    assert not report.reduced
    assert [(v.kind, v.witness, v.margin) for v in report.violations] == want
    assert {kind for kind, _, _ in want} == {"moment M_P(U)",
                                            "constraint[0] M_P(W)(g*y)"}

    fam = family_p_t(n, t - 1)
    want = [("moment M_Pt(V)", (t,),
             fraction_witness(moment_matrix(y, family_p_t(n, t)))[1]),
            ("constraint[0] M_Pt-1(V)(g*y)", (t - 1,),
             fraction_witness([[capacity(a | b) for b in fam] for a in fam])[1])]
    report = lasserre_membership(y, inst, t)
    assert not report.reduced
    assert [(v.kind, v.witness, v.margin) for v in report.violations] == want

    inst_path, point = tmp_path / "inst.json", tmp_path / "pt.json"
    inst_path.write_text(instance_to_json(inst), encoding="utf-8")
    point.write_text(setvector_to_json(y), encoding="utf-8")
    for mode, lines in MARGIN_LINES.items():
        code = main(["verify", "--instance", str(inst_path), "--point", str(point),
                     "--mode", mode, "--t", str(t)])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == lines


def _profile_point(n, profile, extended=False):
    """The vector with y_K = profile[|K|] on P_{len(profile)-1}(V)."""
    return SetVector(n, {m: profile[m.bit_count()]
                         for m in family_p_t(n, len(profile) - 1)}, extended)


def _orbit_mixture(n, weights, t):
    """Profile of a mixture of the uniform distributions on k-subsets,
    weights[k] on k: y_K = sum_k weights[k] C(n-|K|, k-|K|) / C(n, k)."""
    return [sum((w * Q(math.comb(n - j, k - j), math.comb(n, k))
                 for k, w in weights.items() if k >= j), Q(0))
            for j in range(t + 1)]


def _assert_same_as_dense(y, inst, t):
    fast = sa_membership(y, inst, t)
    dense = _sa_membership_dense(y, inst, t)
    assert fast.reduced and not dense.reduced
    assert fast.accepted == dense.accepted
    # y_0 and range violations are per entry on both paths
    scalar = ("y_empty", "range")
    assert ([v for v in fast.violations if v.kind in scalar]
            == [v for v in dense.violations if v.kind in scalar])
    # one violation per failing orbit, at the first member, with the
    # margin every member reports
    for kind in ("moment M_P(U)", "constraint[0] M_P(W)(g*y)"):
        got = [v for v in fast.violations if v.kind == kind]
        want = [v for v in dense.violations if v.kind == kind]
        assert len(got) == (1 if want else 0), (kind, got, want)
        if want:
            assert got[0].witness == want[0].witness
            assert {v.margin for v in want} == {got[0].margin}
    return fast


def test_orbit_tests_agree_with_the_dense_families(rng):
    instances = [uniform_gap_instance(n, eps) for n in range(1, 9)
                 for eps in ("1/10", "1/5")]
    # sizes 3 with C' = 9/5; the values play no part in membership
    instances += [make_instance([3] * n, [5] * n, "27/5") for n in (4, 6)]
    instances.append(make_instance([2] * 5, [1, 2, 3, 4, 5], 3))
    verdicts = {"moment M_P(U)": set(), "constraint[0] M_P(W)(g*y)": set(),
                "range": set(), "y_empty": set(), "accepted": set()}
    for inst in instances:
        n = inst.n
        fits = int(inst.capacity / inst.sizes[0])
        for t in range(1, min(n, 4) + 1):
            profiles = [_orbit_mixture(n, {k: Q(1, fits + 1) for k in range(fits + 1)}, t),
                        _orbit_mixture(n, {0: Q(1, 3), min(fits + 1, n): Q(2, 3)}, t),
                        [Q(1)] + [Q(rng.randint(0, 9), 10) for _ in range(t)],
                        [Q(1), Q(6, 5)] + [Q(0)] * (t - 1),
                        [Q(9, 10)] + [Q(1, 10)] * t]
            if 2 <= t < n and inst.sizes[0] == 1:
                # the certificate is tight on the capacity orbit; the level
                # t-1 alpha overshoots it and fails nothing else
                for level in (t, t - 1):
                    alpha = certificate_alpha(n, 1 - inst.capacity / 2, level)
                    profiles.append([Q(1), alpha] + [Q(0)] * (t - 1))
            for profile in profiles:
                report = _assert_same_as_dense(_profile_point(n, profile), inst, t)
                verdicts["accepted"].add(report.accepted)
                for v in report.violations:
                    verdicts[v.kind].add(t)
    assert verdicts["accepted"] == {True, False}
    assert all(verdicts[k] for k in verdicts), verdicts


def test_capacity_orbit_alone_rejects_an_overshooting_certificate():
    inst = uniform_gap_instance(8, "1/10")
    alpha = certificate_alpha(8, Q(1, 10), 2)
    report = sa_membership(_profile_point(8, [Q(1), alpha, Q(0), Q(0)]), inst, 3)
    assert [v.kind for v in report.violations] == ["constraint[0] M_P(W)(g*y)"]
    assert report.violations[0].witness == (0, 1)
    assert report.violations[0].margin < 0
    assert sa_membership(_profile_point(8, [Q(1), alpha, Q(0)]), inst, 2).accepted


def test_orbit_path_needs_equal_sizes_and_a_symmetric_point():
    profile = [Q(1), Q(1, 5), Q(0)]
    uniform = uniform_gap_instance(5, "1/10")
    assert sa_membership(_profile_point(5, profile), uniform, 2).reduced
    skewed = make_instance([1, 1, 1, 1, 2], [1] * 5, 2)
    assert not sa_membership(_profile_point(5, profile), skewed, 2).reduced
    y = _profile_point(5, profile)
    y.values[0b11] = Q(1, 50)
    assert not sa_membership(y, uniform, 2).reduced
    # an extended vector's missing entries read as 0 ...
    sparse = SetVector(5, {m: v for m, v in _profile_point(5, profile).values.items()
                           if m.bit_count() <= 1}, extended=True)
    report = _assert_same_as_dense(sparse, uniform, 2)
    assert report.accepted
    # ... so storing some of a size's entries, non-zero, breaks the symmetry
    sparse.values[0b11] = Q(1, 50)
    assert not sa_membership(sparse, uniform, 2).reduced


def test_certificate_at_two_hundred_items():
    check = verify_gap_certificate(200, "1/10", 40, "1/4")
    assert check.report.accepted and check.bound_ok and check.report.reduced
    assert check.value == 200 * certificate_alpha(200, Q(1, 10), 40)
    assert check.report.checked == 41 + 40
    assert certificate_membership(20, "1/10", 5).checked == 6 + 5


def _assert_lasserre_same_as_dense(y, inst, t):
    fast = lasserre_membership(y, inst, t)
    dense = _lasserre_membership_dense(y, inst, t)
    assert fast.reduced and not dense.reduced
    assert fast.accepted == dense.accepted, (fast.describe(), dense.describe())
    # the same violations by kind and witness; y_0 and range margins too
    assert ([(v.kind, v.witness) for v in fast.violations]
            == [(v.kind, v.witness) for v in dense.violations])
    scalar = ("y_empty", "range")
    assert ([v for v in fast.violations if v.kind in scalar]
            == [v for v in dense.violations if v.kind in scalar])
    return fast


def test_lasserre_orbit_blocks_agree_with_the_dense_matrices(rng):
    instances = [uniform_gap_instance(n, eps) for n in range(1, 9)
                 for eps in ("1/10", "1/3")]
    instances += [make_instance([3] * n, [5] * n, "27/5") for n in (4, 6)]
    instances.append(make_instance([2] * 5, [1, 2, 3, 4, 5], 3))
    counts = {True: 0, False: 0}
    kinds = set()
    for inst in instances:
        n = inst.n
        fits = min(int(inst.capacity / inst.sizes[0]), n)
        for t in range(1, min(n, 3) + 1):
            depth = min(2 * t, n)
            for _ in range(2 if n < 8 or t < 3 else 1):
                # symmetrized feasible points pass by construction ...
                weights = {k: Q(rng.randint(0, 3)) for k in range(fits + 1)}
                weights[rng.randint(0, fits)] += 1
                total = sum(weights.values())
                profile = _orbit_mixture(n, {k: w / total for k, w in weights.items()},
                                         depth)
                report = _assert_lasserre_same_as_dense(
                    _profile_point(n, profile), inst, t)
                assert report.accepted
                counts[True] += 1
                # ... and one entry moved by 1/q may not
                m = rng.randint(1, depth)
                profile[m] += Q(rng.choice((-1, 1)), rng.randint(3, 40))
                report = _assert_lasserre_same_as_dense(
                    _profile_point(n, profile), inst, t)
                counts[report.accepted] += 1
                kinds.update(v.kind for v in report.violations)
    # the exactly verified points above OPT = 1: 31/25 at n=4 and 6/5 at n=8
    for n, y1, y2 in ((4, Q(31, 100), Q(13, 250)), (8, Q(3, 20), Q(9, 1000))):
        point = _profile_point(n, [Q(1), y1, y2, Q(0), Q(0)])
        report = _assert_lasserre_same_as_dense(point, uniform_gap_instance(n, "1/10"), 2)
        assert report.accepted and report.checked == 1 + len(point.values) + 3 + 2
        counts[True] += 1
    assert counts[True] >= 20 and counts[False] >= 20, counts
    assert {"moment M_Pt(V)", "constraint[0] M_Pt-1(V)(g*y)", "range"} <= kinds


def test_orbit_blocks_reproduce_the_dense_spectrum(rng):
    # Schrijver's blocks, scaled by C(n-2k, i-k)^(-1/2) on both sides and
    # counted C(n, k) - C(n, k-1) times, carry the dense matrix's eigenvalues
    for _ in range(120):
        n = rng.randint(1, 8)
        top = rng.randint(0, min(n, 3))
        x = [rng.uniform(-1, 1) for _ in range(min(2 * top, n) + 1)]
        fam = family_p_t(n, top)
        dense = np.linalg.eigvalsh(np.array([[x[(a | b).bit_count()] for b in fam]
                                             for a in fam]))
        spectrum = []
        for k, block in enumerate(_orbit_blocks(x, n, top)):
            scale = np.array([math.comb(n - 2 * k, i - k) ** -0.5
                              for i in range(k, k + len(block))])
            scaled = np.array(block, dtype=float) * np.outer(scale, scale)
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            spectrum += list(np.linalg.eigvalsh(scaled)) * mult
        assert len(spectrum) == len(fam)
        assert np.allclose(np.sort(spectrum), dense, atol=1e-9), (n, top, x)


def test_lasserre_orbit_tests_at_two_hundred_items():
    # level 10 at n = 200 on the profile alone: no SetVector over P_20(V)
    inst = uniform_gap_instance(200, "1/10")
    singletons = [Q(1), Q(1, 200)] + [Q(0)] * 19
    report = MembershipReport()
    _lasserre_orbit_tests(singletons, inst, 10, report)
    assert report.accepted and report.reduced
    assert report.checked == 11 + 10
    # pairs at 1/100 exceed singletons at 1/200: [[y_i, y_ij], [y_ij, y_ij]] fails
    pairs = singletons[:2] + [Q(1, 100)] + singletons[3:]
    report = MembershipReport()
    _lasserre_orbit_tests(pairs, inst, 10, report)
    assert not report.accepted
    assert "moment M_Pt(V)" in [v.kind for v in report.violations]


def test_lasserre_orbit_path_needs_equal_sizes_and_a_symmetric_point():
    profile = [Q(1), Q(1, 5), Q(0), Q(0), Q(0)]
    uniform = uniform_gap_instance(5, "1/10")
    assert lasserre_membership(_profile_point(5, profile), uniform, 2).reduced
    skewed = make_instance([1, 1, 1, 1, 2], [1] * 5, 2)
    assert not lasserre_membership(_profile_point(5, profile), skewed, 2).reduced
    y = _profile_point(5, profile)
    y.values[0b11] = Q(1, 50)
    assert not lasserre_membership(y, uniform, 2).reduced
