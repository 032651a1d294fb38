import math
import time
from fractions import Fraction

import numpy as np
import pytest

from liftlab import (LPProblem, Q, certificate_alpha, family_p_t, greedy,
                     lasserre_value, lp_value, make_instance, opt_solution,
                     residual, sa_lp_problem, sa_value,
                     signed_base, simplex_exact, uniform_gap_instance)

from liftlab import simplex, solvers
from liftlab.hierarchy import (_capacity_profile, _capacity_row, _disjoint_pairs,
                               _orbit_blocks, _orbit_matrices)
from liftlab.solvers import (SA_DENSE_CAP, _barrier, _bordered, _dense_problem,
                             _forced_zero, _orbit_problem, check_lasserre_size,
                             sa_lp_size)

from conftest import rand_instance, sa_linear_constraints


def test_sa_value_level_one_is_the_base_lp(rng):
    for _ in range(15):
        inst = rand_instance(rng, rng.randint(1, 6))
        assert sa_value(inst, 1) == lp_value(inst)


def _full_sa_lp(inst, t):
    """Every row of sa_linear_constraints as an LP, y_0 substituted by 1."""
    problem = LPProblem({1 << i: inst.values[i] for i in range(inst.n)})
    for ineq in sa_linear_constraints(inst, t):
        coeffs = dict(ineq.coeffs)
        const = coeffs.pop(0, Q(0))
        if coeffs:
            problem.add(coeffs, ">=", -const)
        else:
            assert const >= 0, ineq.tag
    return problem


def _normalized(coeffs: dict, rhs):
    return tuple(sorted((m, c) for m, c in coeffs.items() if c != 0)), rhs


def test_reduced_system_matches_full(rng):
    for _ in range(6):
        inst = rand_instance(rng, 4)
        for t in (1, 2):
            full = simplex_exact(_full_sa_lp(inst, t))[0]
            fast = simplex_exact(sa_lp_problem(inst, t))[0]
            assert full == fast
    uni = uniform_gap_instance(5, "1/10")
    assert simplex_exact(_full_sa_lp(uni, 2))[0] == sa_value(uni, 2)


def test_sa_lp_rows_are_rows_of_the_linear_system(rng):
    # each kept LP row, constant moved to the right-hand side, is one of
    # the inequalities of the full linear system
    cases = [(rand_instance(rng, rng.randint(1, 5)), t)
             for _ in range(8) for t in (1, 2, 3)]
    cases.append((uniform_gap_instance(6, "1/10"), 3))
    for inst, t in cases:
        full = set()
        for ineq in sa_linear_constraints(inst, t):
            coeffs = dict(ineq.coeffs)
            full.add(_normalized(coeffs, -coeffs.pop(0, Q(0))))
        problem = sa_lp_problem(inst, t)
        assert problem.constraints
        for coeffs, sense, rhs in problem.constraints:
            assert sense == ">="
            assert _normalized(coeffs, rhs) in full, (inst, t, coeffs, rhs)


def test_sa_lp_rows_have_no_zero_coefficients(rng):
    # one item filling the knapsack: its level-2 capacity row at
    # I = {0}, J = {} is (C - c_0) y_{0} = 0 y_{0}
    cases = [(make_instance([1], [6], 1), 2)]
    cases += [(rand_instance(rng, rng.randint(1, 5)), t)
              for _ in range(4) for t in (1, 2, 3)]
    for inst, t in cases:
        problem = sa_lp_problem(inst, t)
        for coeffs, _, _ in problem.constraints:
            assert all(c != 0 for c in coeffs.values()), (inst, t, coeffs)
        assert sa_value(inst, t) == simplex_exact(_full_sa_lp(inst, t))[0]
    assert sa_value(cases[0][0], 2) == 6


def _lp_with_base_rows(inst, t):
    """The dense SA LP with the rows y_U >= 0, |U| = min(t, n), kept: every
    capacity row at |I u J| = t - 1, then every base row at |I u J| = t.
    Returns it and its rows without those y_U >= 0, in order."""
    n = inst.n
    problem = LPProblem({1 << i: inst.values[i] for i in range(n)})
    rows = [(_capacity_row(inst, i, j), False)
            for i, j in _disjoint_pairs(n, min(t - 1, n))]
    rows += [(signed_base(i, j), not j) for i, j in _disjoint_pairs(n, min(t, n))]
    kept = []
    for coeffs, is_y_u in rows:
        const = coeffs.pop(0, 0)
        coeffs = {m: c for m, c in coeffs.items() if c != 0}
        if coeffs:
            problem.add(coeffs, ">=", -const)
            if not is_y_u:
                kept.append(problem.constraints[-1])
    return problem, kept


def test_dropped_base_rows_keep_the_pivot_path(rng, monkeypatch):
    # sa_lp_problem leaves out B(U, 0) >= 0, i.e. y_U >= 0, which the
    # simplex keeps anyway; putting the rows back in their places gives
    # the same pivots, the same value and the same optimal vertex
    pivots = []
    pivot = simplex._Dictionary.pivot
    monkeypatch.setattr(simplex._Dictionary, "pivot",
                        lambda d, i, j: pivots.append(None) or pivot(d, i, j))

    def solve(problem):
        pivots.clear()
        return simplex_exact(problem), len(pivots)

    rational = make_instance(["3/2", 1, "1/2", "4/5", 1, "6/5"],
                             [3, "5/2", 1, 4, "7/3", 2], "19/10")
    for case in range(200):
        t = rng.randint(1, 3)
        n = rng.randint(1, 6 if case % 2 or t < 3 else 4)
        if case % 2:
            keep = sorted(rng.sample(range(6), n))
            inst = make_instance([rational.sizes[i] for i in keep],
                                 [rational.values[i] for i in keep], rational.capacity)
        else:
            inst = rand_instance(rng, n)
        problem = sa_lp_problem(inst, t)
        full, kept = _lp_with_base_rows(inst, t)
        assert kept == problem.constraints, case
        assert len(full.constraints) - len(kept) == math.comb(n, min(t, n))
        result, count = solve(problem)
        assert solve(full) == (result, count), (case, n, t)
        if case % 4 < 2:
            # the same LP with Fraction and str coefficients
            for form in (Fraction, str):
                alt = LPProblem({v: form(c) for v, c in problem.objective.items()})
                for coeffs, sense, rhs in problem.constraints:
                    alt.add({m: form(c) for m, c in coeffs.items()}, sense, form(rhs))
                assert simplex_exact(alt) == result, (case, form)


def test_integral_sa_lp_stays_on_ints(rng):
    # integral capacity and sizes: the rows never touch Fraction, and the
    # dictionary starts with denominator 1 on every row
    for n, t in ((4, 2), (5, 3), (6, 2)):
        inst = rand_instance(rng, n)
        assert not inst.is_uniform()
        problem = sa_lp_problem(inst, t)
        for coeffs, _, rhs in problem.constraints:
            assert all(type(c) is int for c in coeffs.values()), coeffs
            assert type(rhs) is int, rhs
        variables = problem.variables()
        rows, den = simplex._build_rows(problem, {v: k for k, v in enumerate(variables)})
        assert den == [1] * len(rows)
        assert all(type(v) is int for row in rows for v in row)


def test_every_lp_liftlab_builds_holds_at_the_origin(rng):
    # simplex_exact starts from the all-slack basis at y = 0, so every
    # dictionary row of both SA LPs must have a constant >= 0 there
    def origin_constants(problem):
        variables = problem.variables()
        rows, _ = simplex._build_rows(problem, {v: k for k, v in enumerate(variables)})
        return [row[-1] for row in rows]

    rational = make_instance(["3/2", 1, "1/2", "4/5", 1, "6/5"],
                             [3, "5/2", 1, 4, "7/3", 2], "19/10")
    for case in range(40):
        t = rng.randint(1, 3)
        n = rng.randint(1, 6 if case % 2 or t < 3 else 4)
        if case % 2:
            keep = sorted(rng.sample(range(6), n))
            inst = make_instance([rational.sizes[i] for i in keep],
                                 [rational.values[i] for i in keep], rational.capacity)
        else:
            inst = rand_instance(rng, n)
        assert min(origin_constants(sa_lp_problem(inst, t))) >= 0, (case, n, t)
    for n, levels in ((3, range(1, 6)), (8, range(1, 11)), (200, (1, 2, 40, 199, 200, 202))):
        for eps in ("1/10", "2/5"):
            inst = uniform_gap_instance(n, eps)
            for t in levels:
                assert min(origin_constants(solvers._uniform_sa_problem(inst, t))) >= 0, (n, t)


def test_sa_value_dominates_certificate():
    # the certificate is feasible for the linear system, so the optimum
    # cannot be smaller than its objective
    inst = uniform_gap_instance(6, "1/10")
    assert sa_value(inst, 2) >= 6 * certificate_alpha(6, Q(1, 10), 2)


def test_sa_value_monotone_in_level():
    inst = uniform_gap_instance(5, "1/10")
    values = [sa_value(inst, t) for t in (1, 2, 3)]
    assert values[0] == lp_value(inst)
    assert values[0] >= values[1] >= values[2]


def test_sa_value_caps():
    # the cap bounds the dense LP only; a uniform instance is solved in
    # t + 1 orbit variables at any n
    skewed = make_instance([1] * 39 + [2], [1] * 40, 2)
    with pytest.raises(ValueError):
        sa_value(skewed, 4)
    assert sa_value(uniform_gap_instance(40, "1/10"), 4) == _closed_form(40, Q(9, 5), 4)
    with pytest.raises(ValueError):
        sa_value(uniform_gap_instance(40, "1/10"), 0)


def test_sa_value_at_a_huge_level_is_that_of_level_n_plus_one():
    # above n every level has the same LP; sizing it must not loop over
    # the 10**9 levels (it took about a minute)
    inst = make_instance([2, 3, 4, 5, 6], [3, 4, 5, 6, 8], 10)
    assert not inst.is_uniform()
    start = time.perf_counter()
    huge = sa_value(inst, 10**9)
    assert time.perf_counter() - start < 1
    assert huge == sa_value(inst, inst.n + 1)


def _closed_form(n, capacity, t):
    return n * capacity / (n + (t - 1) * (capacity - 1))


def test_uniform_sa_value_closed_form():
    """For unit sizes and values with 1 < C < 2, t = 1 or 3 <= t <= n-1,
    the level-t SA value is n C / (n + (t-1)(C-1)).

    Proof, in the orbit variables z_i of `solvers._uniform_sa_problem`:
    for 2 <= i <= t-1 the capacity row (C-i) z_i + (C-i-n+t-1) z_{i+1} >= 0
    has two negative coefficients (C < 2 and t <= n), so z_i = z_{i+1} = 0,
    i.e. z_j = 0 for every j >= 2 once t >= 3. The row at i = 1 is then
    (C-1) z_1 >= 0, and what is left is: maximize n z_1 subject to
    z_0 + t z_1 = 1 and C z_0 + (C-n+t-1) z_1 >= 0, i.e.
    z_1 <= C / (n + (t-1)(C-1)). That z_1 leaves z_0 >= 0 exactly when
    n - t + 1 >= C, which holds for t <= n-1. At t = 1 the same two
    conditions are all there is. At t = n the bound z_0 >= 0 binds
    instead (n - t + 1 = 1 < C): z_1 = 1/n and the value is 1. At t = 2
    the row at i = 1 is (C-1) z_1 + (C-n) z_2 >= 0, which lets z_2 > 0.
    """
    capacity = Q(9, 5)  # eps = 1/10
    for n in (12, 50, 200):
        inst = uniform_gap_instance(n, "1/10")
        for t in (1, 3, 5, 10, 20, 40):
            if t <= n - 1:
                assert sa_value(inst, t) == _closed_form(n, capacity, t), (n, t)
    assert sa_value(uniform_gap_instance(200, "1/10"), 40) == Q(450, 289)
    # in level masses the LP holds no binomial coefficient, such as
    # C(100, 50) ~ 1e29, so level 100 solves in milliseconds
    start = time.perf_counter()
    assert sa_value(uniform_gap_instance(200, "1/10"), 100) == Q(450, 349)
    assert time.perf_counter() - start < 1.0
    assert sa_value(uniform_gap_instance(12, "1/10"), 2) == Q(9, 5)
    assert _closed_form(12, capacity, 2) == Q(27, 16)
    assert sa_value(uniform_gap_instance(8, "1/10"), 8) == 1
    assert _closed_form(8, capacity, 8) == Q(18, 17)


def test_uniform_sa_value_matches_the_dense_lp():
    # every uniform gap instance with n <= 8, t <= 4, plus levels above n
    # and an instance with sizes 3, values 5 and capacity 27/5 (C' = 9/5)
    cases = [(uniform_gap_instance(n, eps), t)
             for eps in ("1/10", "1/5") for n in range(1, 9)
             for t in range(1, min(4, n) + 1)]
    cases += [(uniform_gap_instance(n, "1/10"), t) for n, t in ((1, 2), (2, 3), (3, 5))]
    cases += [(make_instance([3] * n, [5] * n, "27/5"), t)
              for n, t in ((4, 1), (4, 2), (5, 3), (5, 6), (6, 4))]
    for inst, t in cases:
        assert inst.is_uniform()
        assert sa_value(inst, t) == simplex_exact(sa_lp_problem(inst, t))[0], (inst, t)


def test_lasserre_reaches_the_hull_on_two_items():
    inst = make_instance([1, 2], [3, 2], 2)
    est = lasserre_value(inst, 2)
    assert abs(est.value - float(opt_solution(inst)[1])) <= 1e-4
    assert est.residual < 1e-6
    assert any("lower estimate" in n for n in est.notes)


def test_lasserre_notes_an_estimate_stuck_at_the_integer_optimum():
    # the level-2 value is OPT = 3 (see the test above): the barrier point,
    # strictly inside, falls short of it, and the 0/1 start stands
    inst = make_instance([1, 2], [3, 2], 2)
    est = lasserre_value(inst, 2, tol=0.5, max_sweeps=10)
    assert est.value == float(opt_solution(inst)[1])
    assert any("integer optimum 3" in n for n in est.notes)


def test_lasserre_starts_from_greedy_above_the_search_cap():
    # 25 non-uniform items: opt_solution refuses the instance
    inst = make_instance([1] * 24 + [2], [1] * 24 + [3], "5/2")
    with pytest.raises(ValueError):
        opt_solution(inst)
    est = lasserre_value(inst, 1, tol=1e-3)
    assert greedy(inst)[1] == 3 and lp_value(inst) == Q(7, 2)
    assert 3 < est.value <= 3.5 + 1e-3
    # greedy already attains the base LP here: the barrier point falls short
    # of it, and the note says the greedy value stands
    flat = make_instance([1] * 24 + [2], [1] * 25, 2)
    est = lasserre_value(flat, 1, tol=1e-3)
    assert est.value == 2.0
    assert any("is the greedy value 2" in n for n in est.notes)


def test_lasserre_value_at_least_opt_minus_tol(rng):
    for _ in range(2):
        inst = rand_instance(rng, 3)
        est = lasserre_value(inst, 1, tol=1e-3, max_sweeps=3000)
        assert est.value >= float(opt_solution(inst)[1]) - 1e-3


def test_lasserre_never_exceeds_sa_at_equal_level():
    for inst in (make_instance([1, 2, 2], [2, 3, 1], 3),
                 uniform_gap_instance(4, "1/10")):
        for t in (1, 2):
            est = lasserre_value(inst, t, tol=1e-3, max_sweeps=5000)
            assert est.value <= float(sa_value(inst, t)) + 1e-3


def test_lasserre_monotone_within_tolerance():
    inst = uniform_gap_instance(4, "1/10")
    tol = 1e-3
    values = [lasserre_value(inst, t, tol=tol, max_sweeps=5000).value
              for t in (1, 2, 3)]
    assert values[0] + 2 * tol >= values[1]
    assert values[1] + 2 * tol >= values[2]


def test_lasserre_output_satisfies_the_box_localizers():
    # the barrier holds the moment and capacity blocks only; the box
    # localizers M_{P_1}(x_i*y) and M_{P_1}((1-x_i)*y) are congruences of
    # the moment matrix and must come out PSD as well
    inst = uniform_gap_instance(4, "1/10")
    est = lasserre_value(inst, 2, tol=0.1)
    assert est.value > 1.1  # the estimate leaves the integer optimum
    assert est.residual < 1e-7
    # the point holds y_m at (1 << m) - 1; y_K = y_|K|
    profile = [est.point[(1 << m) - 1] for m in range(5)]
    fam = family_p_t(4, 1)

    def y(mask):
        return profile[mask.bit_count()]
    for i in range(4):
        bit = 1 << i
        lifted = np.array([[y(a | b | bit) for b in fam] for a in fam])
        rest = np.array([[y(a | b) - y(a | b | bit) for b in fam] for a in fam])
        for mat in (lifted, rest):
            assert np.linalg.eigvalsh(mat)[0] >= -1e-6


def test_lasserre_validation(monkeypatch):
    inst = uniform_gap_instance(4, "1/10")
    with pytest.raises(ValueError):
        lasserre_value(inst, 0)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            lasserre_value(inst, 2, tol=tol)
    # a uniform instance factors (t+1)^2 orbit-block rows once n >= 2t,
    # whatever n is: t = 19 is the last level under the cap of 400
    with pytest.raises(ValueError, match="orbit blocks at n=40, t=20 have "
                                         "441 rows, over 400"):
        lasserre_value(uniform_gap_instance(40, "1/10"), 20)
    for n in (38, 1000):
        check_lasserre_size(uniform_gap_instance(n, "1/10"), 19)
    with pytest.raises(ValueError):
        lasserre_value(inst, 2, max_sweeps=0)
    # n = 12, t = 3 off the uniform family: the dense blocks would hold
    # |P_6| |P_3|^2 = 2510 * 299^2 floats; the uniform instance is solved
    # on its orbit blocks
    skewed = make_instance([1] * 11 + ["3/2"], [1] * 12, "19/10")
    with pytest.raises(ValueError, match="hold 224396510 floats"):
        lasserre_value(skewed, 3)
    check_lasserre_size(uniform_gap_instance(12, "1/10"), 3)
    # the cap sums the rows of Schrijver's moment and localizer blocks
    # exactly as `_orbit_matrices` builds them on a profile
    for n in range(1, 13):
        inst = uniform_gap_instance(n, "1/10")
        for t in range(1, min(6, n) + 1):
            profile = [Q(1, m + 1) for m in range(min(2 * t, n) + 1)]
            rows = sum(len(block) for blocks in _orbit_matrices(
                profile, n, inst.capacity, inst.sizes[0], t) for block in blocks)
            monkeypatch.setattr(solvers, "LASSERRE_DIM_CAP", rows)
            check_lasserre_size(inst, t)
            monkeypatch.setattr(solvers, "LASSERRE_DIM_CAP", rows - 1)
            with pytest.raises(ValueError, match=f"have {rows} rows, over"):
                check_lasserre_size(inst, t)


def test_lasserre_reduces_exactly_the_uniform_instances():
    # equal sizes and equal values make the instance invariant under item
    # permutations, whatever the common size and value are
    reduced = "solved on Schrijver's blocks in the cardinality profile"
    cases = [(uniform_gap_instance(4, "1/10"), True),
             (make_instance([2, 2, 2], [3, 3, 3], 5), True),
             (make_instance([1, 1, 1], [1, 1, 2], 2), False),
             (make_instance([1, 2], [3, 2], 2), False)]
    for inst, uniform in cases:
        est = lasserre_value(inst, 1, tol=0.5, max_sweeps=300)
        assert any(reduced in n for n in est.notes) == uniform, inst
        if uniform:  # the point moved, and holds one entry per cardinality
            assert est.value > float(opt_solution(inst)[1])
            assert list(est.point) == [(1 << m) - 1 for m in range(3)]


def _barrier_value(build, inst, t):
    c, blocks, degree, _, _ = build(inst, t)
    y, _, _, _ = _barrier(c, [a[:, None] for a in blocks],
                          sum(a.shape[1] for a in blocks), degree, 1e-8, 50000)
    return float(c @ y)


def test_orbit_and_dense_barriers_agree_on_uniform_instances():
    # the two builders state one problem; at a tight gap their values meet
    for eps in ("1/10", "1/4"):
        for n in range(3, 7):
            for t in range(1, 4):
                inst = uniform_gap_instance(n, eps)
                orbit = _barrier_value(_orbit_problem, inst, t)
                dense = _barrier_value(_dense_problem, inst, t)
                assert abs(orbit - dense) <= 1e-6, (eps, n, t, orbit, dense)


def test_the_identity_border_changes_nothing():
    # diag(B, I) has B's log det, gradient and Hessian: Schrijver's blocks
    # bordered into one stack run the path of one unbordered stack per width.
    # At tol = nu / 8^5 the path ends in stage 6 only if nu leaves the
    # border's rows out
    for eps in ("1/10", "1/4"):
        for n in (4, 8, 20):
            for t in (2, 3):
                c, blocks, degree, _, _ = _orbit_problem(uniform_gap_instance(n, eps), t)
                rows = sum(a.shape[1] for a in blocks)
                widths = sorted({a.shape[1] for a in blocks})
                per_width = [np.stack([a for a in blocks if a.shape[1] == d], axis=1)
                             for d in widths]
                for tol in (1e-4, (rows + 2 * len(c)) / 8 ** 5):
                    runs = [_barrier(c, stacks, rows, degree, tol, 50000)
                            for stacks in ([_bordered(blocks)], per_width)]
                    (y, *path), (y_ref, *path_ref) = runs
                    assert path == path_ref, (eps, n, t, tol, path, path_ref)
                    value, ref = float(c @ y), float(c @ y_ref)
                    assert abs(value - ref) <= 1e-12 * abs(ref), (eps, n, t, value, ref)
                assert path[1:] == [6, None], (eps, n, t, path)


def _cholesky_shapes(monkeypatch, inst, t):
    """The shapes np.linalg.cholesky receives during lasserre_value."""
    shapes, cholesky = [], np.linalg.cholesky

    def spy(a):
        shapes.append(a.shape)
        return cholesky(a)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", spy)
        lasserre_value(inst, t)
    return shapes


def test_the_barrier_factors_stacks_not_blocks(monkeypatch):
    # uniform: all of Schrijver's blocks in one bordered stack per call
    inst = uniform_gap_instance(8, "1/10")
    blocks = _orbit_problem(inst, 2)[1]
    width = max(a.shape[1] for a in blocks)
    shapes = _cholesky_shapes(monkeypatch, inst, 2)
    assert shapes and set(shapes) == {(len(blocks), width, width)}
    # dense: M_{P_2} and M_{P_1}(g*y) of 5 items, |P_2| = 16 and |P_1| = 6
    # wide, each a stack of one and never bordered to 16
    inst = make_instance([3, 5, 2, 7, 4], [2, 6, 3, 8, 5], 11)
    shapes = _cholesky_shapes(monkeypatch, inst, 2)
    assert shapes and set(shapes) == {(1, 16, 16), (1, 6, 6)}


def _trimmed(tensors):
    """Each tensor without the rows and columns zero in every A_j; empty ones go."""
    out = []
    for a in tensors:
        keep = np.flatnonzero(np.abs(a).sum(axis=(0, 1)))
        if keep.size:
            out.append(a[:, keep][:, :, keep])
    return out


def _orbit_tensors_per_moment(inst, t):
    """The orbit blocks built one exact unit profile at a time, each entry
    rounded by float(): the oracle of `_orbit_problem`'s one-pass build."""
    n = inst.n
    top = min(2 * t, n)
    free = [m for m in range(1, top + 1)
            if not _forced_zero(inst, (1 << m) - 1, t)]
    units = [[int(k == m) for k in range(top + 1)] for m in [0] + free]
    moment = [_orbit_blocks(u, n, t) for u in units]
    localizer = [_orbit_blocks(_capacity_profile(u, n, inst.capacity, inst.sizes[0],
                                                 min(2 * t - 2, n)), n, t - 1)
                 for u in units]
    return _trimmed([np.array([[[float(v) for v in row] for row in per_unit[b]]
                               for per_unit in mats])
                     for mats in (moment, localizer) for b in range(len(mats[0]))])


def _dense_tensors_per_entry(inst, t):
    """The dense blocks filled entry by entry from the capacity terms: the
    oracle of `_dense_problem`'s build on the exact checker's matrices."""
    n = inst.n
    free = [m for m in family_p_t(n, 2 * t)[1:] if not _forced_zero(inst, m, t)]
    col = {m: j for j, m in enumerate([0] + free)}

    def block(level, terms):  # entry (I, J) = sum of coef * y_{I u J u bit}
        fam = family_p_t(n, level)
        a = np.zeros((len(col), len(fam), len(fam)))
        for r, ra in enumerate(fam):
            for s, sb in enumerate(fam):
                for bit, coef in terms:
                    j = col.get(ra | sb | bit)
                    if j is not None:
                        a[j, r, s] += coef
        return a

    capacity = [(0, float(inst.capacity))] + [(1 << i, -float(c))
                                              for i, c in enumerate(inst.sizes)]
    return _trimmed([block(t, [(0, 1.0)]), block(t - 1, capacity)])


def _same_tensors(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))


def test_orbit_blocks_are_built_once_and_rounded_once():
    # one pass on int unit vectors gives the tensors of one exact pass per
    # free moment, bit for bit, though Schrijver's coefficients pass 2^53
    cases = [(uniform_gap_instance(n, eps), t) for n in (3, 8, 40, 200)
             for eps in ("1/10", "1/4") for t in range(1, min(n, 5) + 1)]
    cases += [(make_instance([1] * n, [1] * n, Q(2 * n - 1, 2)), t)
              for n, t in ((200, 3), (63, 5), (40, 10))]
    for inst, t in cases:
        assert _same_tensors(_orbit_problem(inst, t)[1],
                             _orbit_tensors_per_moment(inst, t)), (inst.n, t)


def test_dense_blocks_are_the_exact_checkers_matrices(rng):
    for _ in range(20):
        n = rng.randint(1, 7)
        inst = rand_instance(rng, n)
        for t in range(1, min(n, 3) + 1):
            if t == 3 and n > 6:
                continue
            assert _same_tensors(_dense_problem(inst, t)[1],
                                 _dense_tensors_per_entry(inst, t)), (inst, t)


def test_lasserre_uniform_build_at_the_orbit_cap_is_fast():
    # (t+1)^2 = 400 rows at t = 19: one build of the blocks, not one per
    # free moment (8.7 to 11.4 s on a 2-core x86-64 box)
    inst = make_instance([1] * 40, [1] * 40, 38)
    start = time.perf_counter()
    est = lasserre_value(inst, 19)
    assert time.perf_counter() - start < 5
    assert est.value == 38.0, est.describe()


def test_lasserre_uniform8_t2_reaches_81_over_65():
    # the profile y_1 = 81/(65n), y_2 = 216/(325 n (n-1)), y_3 = 0, with
    # y_4 rounded from the barrier point, passes lasserre_membership at
    # n = 8: the value is at least 81/65, and the barrier reads it
    est = lasserre_value(uniform_gap_instance(8, "1/10"), 2, tol=1e-6)
    assert abs(est.value - 81 / 65) <= 1e-4, est.describe()


def test_lasserre_forced_zeros_are_dropped():
    # at t = 3 and C = 9/5 a pair costs 2 > C, so every y_K with |K| >= 2
    # is 0 and the profile keeps y_1 alone; at t = 2 nothing is forced
    inst = uniform_gap_instance(8, "1/10")
    for t, free in ((3, 1), (2, 4)):
        objective = _orbit_problem(inst, t)[0]
        assert len(objective) == free
    # a single item filling the knapsack: cost {0} = C forces y_{0,1} = 0
    edge = make_instance([2, 1], [1, 1], 2)
    assert [m for m in family_p_t(2, 4)[1:]
            if _forced_zero(edge, m, 2)] == [0b11]


def test_lasserre_with_every_variable_forced_to_zero():
    # a residual instance may hold only items over its capacity: no y_K is
    # left free, and the estimate is the empty knapsack
    uniform = residual(uniform_gap_instance(4, "1/10"), {0: 1})[0]
    dense = residual(make_instance([3, 5, 4, 6], [2, 6, 3, 8], 6), {3: 1})[0]
    for inst, t, build in ((uniform, 2, _orbit_problem), (dense, 1, _dense_problem),
                           (dense, 2, _dense_problem)):
        assert build(inst, t)[0].size == 0
        est = lasserre_value(inst, t)
        assert est.value == 0.0 and est.residual == 0.0 and est.sweeps == 0
        assert est.point[0] == 1.0 and set(est.point.values()) == {0.0, 1.0}
        assert len(est.notes) == 1 + inst.is_uniform(), est.notes


def _level2_closed_form(eps):
    delta = 1 - 2 * eps
    return 1 + delta ** 3 / (4 - 3 * delta ** 2)


def test_lasserre_uniform_t2_meets_the_closed_form_at_any_n():
    # float evidence for Las_2(uniform(n, eps)) = 1 + d^3 / (4 - 3 d^2),
    # d = 1 - 2 eps: a lower estimate, so at most the value, and within
    # 1e-8 of it once the path completes at tol 1e-9
    for eps in ("1/100", "1/20", "1/10", "1/5", "1/4", "2/5"):
        closed = _level2_closed_form(float(Q(eps)))
        for n in (4, 8, 200):
            est = lasserre_value(uniform_gap_instance(n, eps), 2, tol=1e-9)
            assert closed - 1e-8 <= est.value <= closed + 1e-9, (eps, n, est.describe())


def test_lasserre_uniform_t3_at_two_hundred_items_is_one():
    # a pair costs 2 > C = 9/5, and the moment minor then caps sum y_i at 1;
    # the 0/1 start wins, its point averaged over item permutations
    est = lasserre_value(uniform_gap_instance(200, "1/10"), 3)
    assert est.value == 1.0, est.describe()
    assert est.point == {0: 1.0, 1: 1 / 200, 3: 0.0, 7: 0.0, 15: 0.0,
                         31: 0.0, 63: 0.0}


def test_lasserre_uniform_path_never_enumerates_the_subsets(monkeypatch):
    def refuse(*args):
        raise AssertionError("family_p_t called on the uniform path")
    monkeypatch.setattr(solvers, "family_p_t", refuse)
    est = lasserre_value(uniform_gap_instance(8, "1/10"), 2)
    assert abs(est.value - 81 / 65) <= 1e-4, est.describe()
    with pytest.raises(AssertionError):
        lasserre_value(make_instance([1, 2], [3, 2], 2), 1)


def test_lasserre_notes_a_completed_path_below_the_start():
    # unit sizes and values, C = n - 1/2: OPT = n - 1. On these, rounding can
    # end a completed path far below the 0/1 start, against its gap bound
    flag = "more than tol below the 0/1 start"
    for n, t in ((200, 3), (63, 5), (40, 10)):
        inst = make_instance([1] * n, [1] * n, Q(2 * n - 1, 2))
        est = lasserre_value(inst, t)
        opt = float(opt_solution(inst)[1])
        assert est.value >= opt
        assert est.value > opt or any(flag in note for note in est.notes), (
            n, t, est.describe())
    est = lasserre_value(uniform_gap_instance(8, "1/10"), 2)
    assert not any(flag in note for note in est.notes), est.describe()


def test_lasserre_stall_case_returns_in_the_window():
    # sizes 2..9, values 3..10, capacity 21 at a tight gap: a path that can
    # stall near the optimum must still end in seconds inside [OPT, SA]
    inst = make_instance(range(2, 10), range(3, 11), 21)
    start = time.perf_counter()
    est = lasserre_value(inst, 2, tol=1e-7)
    assert time.perf_counter() - start <= 10
    opt = float(opt_solution(inst)[1])
    assert opt <= est.value <= float(sa_value(inst, 2)), est.describe()


def test_sa_cap_counts_the_dense_lp(rng):
    # the closed form is the size of the LP sa_value would solve; above
    # t = n a capacity row (C - c(I)) B(I, J) >= 0 vanishes when c(I) = C
    for n in range(1, 7):
        for t in range(1, n + 2):
            problem = sa_lp_problem(rand_instance(rng, n), t)
            rows, nvars = sa_lp_size(n, t)
            assert nvars == len(problem.variables()), (n, t)
            assert (rows == len(problem.constraints) if t <= n
                    else rows >= len(problem.constraints)), (n, t)
    assert sa_lp_size(10, 3) == (1020, 175)
    assert sa_lp_size(12, 3) == (1804, 298)
    # n = 12, t = 4 has 793 variables, under the old cap of 2000 variables,
    # but 9185 rows: refused up front, where the dense solve ran for minutes
    assert sa_lp_size(12, 4) == (9185, 793)
    skewed = make_instance([1] * 11 + ["3/2"], [1] * 12, "19/10")
    with pytest.raises(ValueError, match="9185 rows x 793 variables"):
        sa_value(skewed, 4)
    # leaving out the C(n, min(t, n)) rows y_U >= 0 admits no new (n, t)
    # under SA_DENSE_CAP, nor refuses one the count with them admitted
    for n in range(1, 25):
        for t in range(1, n + 2):
            rows, nvars = sa_lp_size(n, t)
            with_base = rows + math.comb(n, min(t, n))
            assert (rows * nvars > SA_DENSE_CAP) == (with_base * nvars > SA_DENSE_CAP), (n, t)
    assert sa_value(uniform_gap_instance(12, "1/10"), 4) == _closed_form(12, Q(9, 5), 4)
