import numpy as np
import pytest

from liftlab import (LPProblem, Q, certificate_alpha, family_p_t, gap_table,
                     lasserre_value, lp_value, make_instance, opt_bruteforce,
                     sa_linear_constraints, sa_lp_problem, sa_value,
                     simplex_exact, uniform_gap_instance)

from conftest import rand_instance


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
    big = uniform_gap_instance(40, "1/10")
    with pytest.raises(ValueError):
        sa_value(big, 4)
    with pytest.raises(ValueError):
        sa_value(big, 0)


def test_lasserre_reaches_the_hull_on_two_items():
    inst = make_instance([1, 2], [3, 2], 2)
    est = lasserre_value(inst, 2)
    assert abs(est.value - float(opt_bruteforce(inst))) <= 1e-4
    assert est.residual < 1e-6
    assert any("lower estimate" in n for n in est.notes)


def test_lasserre_notes_an_estimate_stuck_at_the_integer_optimum():
    # ten sweeps cannot reach the residual threshold, so no step succeeds
    inst = uniform_gap_instance(4, "1/10")
    est = lasserre_value(inst, 2, tol=0.5, max_sweeps=10)
    assert est.bisections == 1
    assert est.value == float(opt_bruteforce(inst))
    assert any("integer optimum 1" in n for n in est.notes)


def test_lasserre_value_at_least_opt_minus_tol(rng):
    for _ in range(2):
        inst = rand_instance(rng, 3)
        est = lasserre_value(inst, 1, tol=1e-3, max_sweeps=3000)
        assert est.value >= float(opt_bruteforce(inst)) - 1e-3


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
    # the optimizer projects onto the moment and capacity blocks only; the
    # box localizers M_{P_1}(x_i*y) and M_{P_1}((1-x_i)*y) are congruences
    # of the moment matrix and must come out PSD as well
    inst = uniform_gap_instance(4, "1/10")
    est = lasserre_value(inst, 2, symmetry=True, tol=0.1)
    assert est.value > 1.1  # the estimate leaves the integer optimum
    assert est.residual < 1e-7
    fam = family_p_t(4, 1).masks
    for i in range(4):
        bit = 1 << i
        lifted = np.array([[est.point[a | b | bit] for b in fam] for a in fam])
        rest = np.array([[est.point[a | b] - est.point[a | b | bit] for b in fam]
                         for a in fam])
        for mat in (lifted, rest):
            assert np.linalg.eigvalsh(mat)[0] >= -1e-6


def test_lasserre_validation():
    inst = uniform_gap_instance(4, "1/10")
    with pytest.raises(ValueError):
        lasserre_value(inst, 0)
    with pytest.raises(ValueError):
        lasserre_value(inst, 2, tol=0.0)
    with pytest.raises(ValueError):
        lasserre_value(uniform_gap_instance(30, "1/10"), 3)
    with pytest.raises(ValueError):
        lasserre_value(make_instance([1, 2], [1, 1], 2), 2, symmetry=True)
    with pytest.raises(ValueError):
        lasserre_value(inst, 2, max_sweeps=0)


def test_gap_table_sa():
    inst = uniform_gap_instance(5, "1/10")
    rows = gap_table(inst, 2, "sa")
    assert [r.t for r in rows] == [1, 2]
    assert rows[0].value == lp_value(inst)
    assert rows[0].status == "exact"
    assert rows[0].ratio == rows[0].value / opt_bruteforce(inst)
    assert rows[0].value_str() == "9/5"


def test_gap_table_lasserre():
    inst = make_instance([1, 2], [3, 2], 2)
    rows = gap_table(inst, 1, "lasserre", tol=1e-3)
    assert rows[0].status == "approx"
    assert rows[0].value <= float(lp_value(inst)) + 1e-3
    with pytest.raises(ValueError):
        gap_table(inst, 1, "sdp")
