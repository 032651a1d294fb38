"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every exact claim is checked with zero tolerance; the semidefinite
solver is a lower estimate, so its criteria are one-sided by design.
"""

import functools
import random

import numpy as np

from liftlab import (Q, SetVector, big_items, convex_combination,
                     decompose, extend, family_p_t, greedy, integer_to_moment,
                     lasserre_membership, lasserre_value, lp_value,
                     make_instance, moment_matrix, psd_exact,
                     sa_gap_certificate, sa_lp_problem, sa_value, shift,
                     simplex_exact,
                     uniform_gap_instance, verify_decomposition,
                     verify_gap_certificate, z_vector)
from liftlab.hierarchy import _sa_membership_dense
from liftlab.simplex import LPProblem
from liftlab.subsets import is_closed_under_shifting, submasks

from conftest import rand_setvector, sa_linear_constraints


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@functools.lru_cache(maxsize=None)
def _sa_uniform12(t):
    return sa_value(uniform_gap_instance(12, Q(1, 10)), t)


@functools.lru_cache(maxsize=None)
def _lasserre_uniform8(t):
    return lasserre_value(uniform_gap_instance(8, Q(1, 10)), t)


def test_criterion_1_certificate_exact():
    check = verify_gap_certificate(20, Q(1, 10), 5, Q(1, 4))
    # oracle: one Moebius test per |U| = 5 and |W| = 4 on the full vector
    dense = _sa_membership_dense(sa_gap_certificate(20, Q(1, 10), 5),
                                 uniform_gap_instance(20, Q(1, 10)), 5)
    ok = (check.report.accepted
          and check.value == Q(90, 59)
          and check.bound == Q(38, 25)
          and check.bound_ok
          and dense.accepted)
    _report(1, ok, f"value {check.value} >= bound {check.bound}, "
                   f"{check.report.checked} exact orbit checks "
                   f"({dense.checked} dense), "
                   f"{len(check.report.violations)} violations")


def test_criterion_2_certificate_satisfies_linear_system():
    inst = uniform_gap_instance(10, Q(1, 10))
    cert = sa_gap_certificate(10, Q(1, 10), 3)
    constraints = sa_linear_constraints(inst, 3)
    worst = min(ineq.evaluate(cert) for ineq in constraints)
    ok = worst >= 0
    _report(2, ok, f"{len(constraints)} lifted inequalities, "
                   f"minimum slack {worst}")


def test_criterion_3_sa_value_trend():
    v1, v2, v3 = (_sa_uniform12(t) for t in (1, 2, 3))
    # oracle: the dense LP over all lifted variables
    inst = uniform_gap_instance(12, Q(1, 10))
    dense = [simplex_exact(sa_lp_problem(inst, t))[0] for t in (1, 2, 3)]
    ok = (v1 == Q(9, 5) and v3 >= Q(36, 23) and v1 >= v2 >= v3
          and dense == [v1, v2, v3])
    _report(3, ok, f"levels 1..3 exact values {v1}, {v2}, {v3}; "
                   f"floor 36/23; dense LP {', '.join(map(str, dense))}")


def test_criterion_4_lasserre_upper_bound_uniform8():
    est3 = _lasserre_uniform8(3)
    est2 = _lasserre_uniform8(2)
    disclaimer = any("lower estimate" in n for n in est3.notes)
    ok = (1 - 1e-4 <= est3.value <= 1.5 + 1e-3
          and est2.value <= 2 + 1e-3
          and disclaimer)
    _report(4, ok, f"t=3 estimate {est3.value:.6f} in [1, 1.5], "
                   f"t=2 estimate {est2.value:.6f} <= 2 "
                   f"(lower estimates, corroboration only)")


def test_lasserre_uniform8_t2_leaves_the_integer_optimum():
    # the symmetric point y_K = 3/20 (|K| = 1), 9/1000 (|K| = 2), 0 above
    # lies in the level-2 Lasserre polytope and has value 6/5
    inst = uniform_gap_instance(8, Q(1, 10))
    level = {0: Q(1), 1: Q(3, 20), 2: Q(9, 1000)}
    point = SetVector(8, {m: level.get(m.bit_count(), Q(0))
                          for m in family_p_t(8, 4)})
    assert lasserre_membership(point, inst, 2).accepted
    assert 8 * point[1] == Q(6, 5)
    est = _lasserre_uniform8(2)
    assert est.value >= 6 / 5, est.describe()


def test_criterion_5_hierarchy_separation_uniform12():
    sa3 = _sa_uniform12(3)
    est = lasserre_value(uniform_gap_instance(12, Q(1, 10)), 3)
    ok = sa3 >= Q(36, 23) and est.value <= 1.5 + 1e-3
    _report(5, ok, f"linear level-3 value {sa3} ~ {float(sa3):.4f} keeps the "
                   f"gap; moment level-3 estimate {est.value:.6f} <= 1.5")


def test_criterion_6_decomposition_suite():
    rng = random.Random(6)
    t = 3
    failures = []
    for rep in range(100):
        sizes = [rng.randint(1, 6) for _ in range(6)]
        values = [rng.randint(1, 6) for _ in range(6)]
        inst = make_instance(sizes, values, rng.randint(max(sizes), sum(sizes)))
        k = 1 if rep % 2 == 0 else 2
        s_mask = big_items(inst, t - 1)
        pool = [m for m in range(64)
                if inst.is_feasible(m) and (m & s_mask).bit_count() < k]
        pts = rng.sample(pool, k=min(rng.randint(1, 4), len(pool)))
        raw = [rng.randint(1, 5) for _ in pts]
        total = sum(raw)
        y = convex_combination(
            [(Q(w, total), integer_to_moment(inst, p, 2 * t))
             for w, p in zip(raw, pts)])
        try:
            result = decompose(y, inst, s_mask, k, t)
            report = verify_decomposition(result, y, inst, t, k)
            if not report.accepted:
                failures.append((rep, report.describe()))
                continue
            expected = {}
            for w, p in zip(raw, pts):
                key = p & s_mask
                expected[key] = expected.get(key, Q(0)) + Q(w, total)
            got = {x: wt for x, wt, _ in result.parts}
            if got != {x: wt for x, wt in expected.items() if wt != 0}:
                failures.append((rep, "weights differ from aggregated masses"))
        except ValueError as exc:
            failures.append((rep, str(exc)))
    ok = not failures
    _report(6, ok, f"100 seeded mixtures (n=6, t=3, k in {{1,2}}): "
                   f"{len(failures)} failures"
                   + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_7_algebra_property_suite():
    rng = random.Random(7)
    checked = {"commutativity": 0, "inversion": 0, "structure": 0,
               "carryover": 0}

    for _ in range(200):
        n = rng.randint(1, 4)
        x, y, z = (rand_setvector(rng, n) for _ in range(3))
        assert shift(x, shift(y, z)) == shift(y, shift(x, z))
        checked["commutativity"] += 1

    for _ in range(200):
        n = rng.randint(1, 4)
        y = rand_setvector(rng, n)
        s = rng.randrange(1 << n)
        total = {m: Q(0) for m in range(1 << n)}
        for xm in submasks(s):
            zx = z_vector(y, s, xm)
            for m in total:
                total[m] += zx[m]
        assert all(total[m] == y[m] for m in total)
        checked["inversion"] += 1

    for _ in range(200):
        n = rng.randint(1, 4)
        y = rand_setvector(rng, n)
        s = rng.randrange(1 << n)
        xm = rng.choice(list(submasks(s)))
        zx = z_vector(y, s, xm)
        for i in range(1 << n):
            assert zx[i] == zx[i & ~xm]
            if i & ~xm == 0:
                assert zx[i] == zx[0]
            if i & (s & ~xm):
                assert zx[i] == 0
        checked["structure"] += 1

    for _ in range(200):
        n = rng.randint(2, 4)
        # non-negative mixture of 0/1 points: its moment matrices are
        # exactly positive semidefinite on any family
        pts = [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))]
        wts = [Q(rng.randint(0, 4), rng.randint(1, 4)) for _ in pts]
        values = {m: sum((w for w, p in zip(wts, pts) if m & ~p == 0), Q(0))
                  for m in range(1 << n)}
        y = SetVector(n, values, extended=True)
        s = rng.randrange(1 << n)
        r = rng.randint(0, n)
        fam = tuple(a for a in range(1 << n) if (a & ~s).bit_count() <= r)
        assert is_closed_under_shifting(fam, s)
        assert psd_exact(moment_matrix(y, fam))
        for xm in submasks(s):
            zx = z_vector(y, s, xm)
            assert psd_exact(moment_matrix(extend(zx), fam))
        checked["carryover"] += 1

    ok = all(v >= 200 for v in checked.values())
    _report(7, ok, f"exact property checks: {checked}")


def test_criterion_8_base_lp_oracles():
    rng = random.Random(8)
    mismatches = 0
    bound_failures = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        sizes = [rng.randint(1, 20) for _ in range(n)]
        values = [rng.randint(1, 20) for _ in range(n)]
        inst = make_instance(sizes, values, rng.randint(max(sizes), sum(sizes)))
        problem = LPProblem({i: inst.values[i] for i in range(n)})
        problem.add({i: inst.sizes[i] for i in range(n)}, "<=", inst.capacity)
        for i in range(n):
            problem.add({i: 1}, "<=", 1)
        simplex_opt, _ = simplex_exact(problem)
        if simplex_opt != lp_value(inst):
            mismatches += 1
        if lp_value(inst) > greedy(inst)[1] + max(inst.values):
            bound_failures += 1
    ok = mismatches == 0 and bound_failures == 0
    _report(8, ok, f"500 instances: closed form vs simplex mismatches "
                   f"{mismatches}, greedy bound failures {bound_failures}")


def test_criterion_9_psd_exact_vs_float():
    rng = random.Random(9)
    disagreements = 0
    for i in range(1000):
        d = rng.randint(1, 12)
        kind = i % 3
        if kind == 0:
            a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        elif kind == 1:
            width = rng.randint(1, d)  # rank-deficient on purpose
            a = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(d)]
        if kind in (0, 1):
            rows = [[sum((Q(ai * bj) for ai, bj in zip(a[r], a[c])), Q(0))
                     for c in range(d)] for r in range(d)]
        else:
            rows = [[Q(0)] * d for _ in range(d)]
            for r in range(d):
                for c in range(r, d):
                    rows[r][c] = rows[c][r] = Q(rng.randint(-5, 5))
        exact = psd_exact(rows)
        approx = np.linalg.eigvalsh(np.array(rows, dtype=float))[0] >= -1e-9
        if exact != approx:
            disagreements += 1
    ok = disagreements == 0
    _report(9, ok, f"1000 seeded matrices (d <= 12): "
                   f"{disagreements} disagreements")
