import collections
import itertools
import random
from fractions import Fraction

import pytest

from liftlab import LPProblem, LPUnbounded, Q, simplex_exact


def check_point(problem, point, tol=0):
    # exactness invariant: the returned point satisfies every row with
    # zero violation and every variable is non-negative
    assert all(v >= 0 for v in point.values())
    for coeffs, sense, rhs in problem.constraints:
        lhs = sum((Q(c) * point[v] for v, c in coeffs.items()), Q(0))
        if sense == "<=":
            assert lhs <= rhs
        elif sense == ">=":
            assert lhs >= rhs
        else:
            assert lhs == rhs


def test_simple_box():
    p = LPProblem({"x": Q(1), "y": Q(1)})
    p.add({"x": 1}, "<=", 2)
    p.add({"y": 1}, "<=", 3)
    value, point = simplex_exact(p)
    assert value == 5 and point == {"x": Q(2), "y": Q(3)}
    check_point(p, point)


def test_fractional_optimum_is_exact():
    p = LPProblem({"x": Q(3), "y": Q(2)})
    p.add({"x": 1, "y": 1}, "<=", Q(3, 2))
    p.add({"x": 1}, "<=", 1)
    p.add({"y": 1}, "<=", 1)
    value, point = simplex_exact(p)
    assert value == 4
    assert point == {"x": Q(1), "y": Q(1, 2)}


def test_a_row_violated_at_the_origin_is_refused():
    # the solve starts from the all-slack basis at x = 0, so each sense
    # with a right-hand side that x = 0 fails is refused before any pivot
    for sense, rhs in (("<=", -1), (">=", 2), ("==", 4), ("==", Q(-1, 3))):
        p = LPProblem({"x": Q(1)})
        p.add({"x": 1, "y": 1}, "<=", 5)
        p.add({"x": 1, "y": 1}, sense, rhs)
        with pytest.raises(ValueError, match="every row to hold at x = 0"):
            simplex_exact(p)


def test_unbounded():
    p = LPProblem({"x": Q(1)})
    p.add({"y": 1}, "<=", 1)
    with pytest.raises(LPUnbounded):
        simplex_exact(p)


def test_bad_sense_rejected():
    p = LPProblem({"x": Q(1)})
    with pytest.raises(ValueError):
        p.add({"x": 1}, "<", 1)


def test_degenerate_cycling_example_terminates():
    # classic cycling instance for the steepest-coefficient rule; the
    # Bland fallback must break the cycle
    p = LPProblem({"x1": Q(3, 4), "x2": Q(-150), "x3": Q(1, 50), "x4": Q(-6)})
    p.add({"x1": Q(1, 4), "x2": Q(-60), "x3": Q(-1, 25), "x4": Q(9)}, "<=", 0)
    p.add({"x1": Q(1, 2), "x2": Q(-90), "x3": Q(-1, 50), "x4": Q(3)}, "<=", 0)
    p.add({"x3": Q(1)}, "<=", 1)
    value, point = simplex_exact(p)
    assert value == Q(1, 20)
    check_point(p, point)


def test_variables_only_in_constraints_are_tracked():
    p = LPProblem({"x": Q(1)})
    p.add({"x": 1, "slack": 1}, "<=", 5)
    value, point = simplex_exact(p)
    assert value == 5 and "slack" in point


# --- an independent oracle: exact vertex enumeration -----------------------

def _solve_square(mat, rhs):
    """x with mat x = rhs by Fraction Gaussian elimination, or None if singular."""
    size = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for col in range(size):
        piv = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] / aug[r][r] for r in range(size)]


def _holds(vec, sense, rhs, x):
    lhs = sum(a * v for a, v in zip(vec, x))
    return lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs


def _vertices(rows, nv):
    """Feasible points where nv of the rows (vec, sense, rhs) are tight."""
    for tight in itertools.combinations(rows, nv):
        x = _solve_square([vec for vec, _, _ in tight], [rhs for _, _, rhs in tight])
        if x is not None and all(_holds(*row, x) for row in rows):
            yield x


def _oracle(obj, rows, nv):
    """'infeasible', 'unbounded' or the optimum of max obj.x over rows, x >= 0.

    The polyhedron has no line (x >= 0), so it is empty exactly when it has
    no vertex; it is unbounded in obj exactly when an extreme ray of its
    recession cone, a vertex of the cone cut by sum(d) = 1, has obj.d > 0.
    """
    nonneg = [([int(k == v) for k in range(nv)], ">=", 0) for v in range(nv)]
    points = list(_vertices(rows + nonneg, nv))
    if not points:
        return "infeasible"
    cone = [(vec, sense, 0) for vec, sense, _ in rows] + nonneg + [([1] * nv, "==", 1)]
    if any(sum(c * d for c, d in zip(obj, ray)) > 0 for ray in _vertices(cone, nv)):
        return "unbounded"
    return max(sum(c * v for c, v in zip(obj, x)) for x in points)


def _as_input(rng, value):
    """The same rational as str, Fraction, Q or (when integral) int."""
    forms = [str(value), Fraction(value), Q(value)]
    if value.denominator == 1:
        forms.append(int(value))
    return rng.choice(forms)


def _check_against_oracle(rng, obj, rows, nv):
    names = [f"x{v}" for v in range(nv)]
    problem = LPProblem({names[v]: _as_input(rng, c)
                         for v, c in enumerate(obj) if c != 0})
    for vec, sense, rhs in rows:
        problem.add({names[v]: _as_input(rng, a) for v, a in enumerate(vec) if a != 0},
                    sense, _as_input(rng, rhs))
    expected = _oracle(obj, rows, nv)
    if expected == "unbounded":
        with pytest.raises(LPUnbounded):
            simplex_exact(problem)
    else:
        value, point = simplex_exact(problem)
        assert value == expected
        x = [point.get(name, 0) for name in names]
        assert all(v >= 0 for v in x) and all(_holds(*row, x) for row in rows)
        assert sum(c * v for c, v in zip(obj, x)) == value
    return expected if isinstance(expected, str) else "optimal"


def test_simplex_agrees_with_vertex_enumeration():
    # small LPs with mixed senses, each row holding at x = 0 (rhs >= 0 for
    # '<=', <= 0 for '>=', 0 for '=='), rational and occasionally 30-digit
    # denominators, inputs given as str/Fraction/Q/int
    rng = random.Random(8)

    def coefficient():
        den = rng.choice([1, 1, 2, 3, 7, 10**30 + rng.randint(1, 99)])
        return Fraction(rng.randint(-9, 9), den)

    def row(nv):
        sense = rng.choice(["<=", ">=", "=="])
        rhs = abs(coefficient()) * {"<=": 1, ">=": -1, "==": 0}[sense]
        return [coefficient() for _ in range(nv)], sense, rhs

    outcomes = collections.Counter()
    for _ in range(250):
        nv, m = rng.randint(1, 4), rng.randint(1, 6)
        obj = [coefficient() for _ in range(nv)]
        rows = [row(nv) for _ in range(m)]
        outcomes[_check_against_oracle(rng, obj, rows, nv)] += 1
    assert min(outcomes[k] for k in ("unbounded", "optimal")) >= 20, outcomes


def test_bland_switch_on_thirty_digit_denominators(monkeypatch):
    # the cycling instance of test_degenerate_cycling_example_terminates with
    # every coefficient moved by about 1e-30: Dantzig's rule still cycles, so
    # the solve must switch to Bland's rule, on integers of about 60 digits
    from liftlab import simplex

    switched = []
    entering = simplex._Dictionary._entering

    def spy(self):
        switched.append(self.degen >= simplex._DEGENERATE_STREAK)
        return entering(self)

    monkeypatch.setattr(simplex._Dictionary, "_entering", spy)
    tiny = [Fraction(1, 10**30 + k) for k in range(7)]
    obj = [Fraction(3, 4) + tiny[1], Fraction(-150), Fraction(1, 50) - tiny[2], Fraction(-6)]
    rows = [([Fraction(1, 4) - tiny[3], Fraction(-60), Fraction(-1, 25) + tiny[4],
              Fraction(9)], "<=", 0),
            ([Fraction(1, 2), -90 + tiny[5], Fraction(-1, 50), 3 - tiny[6]], "<=", 0),
            ([0, 0, 1, 0], "<=", 1)]
    assert _check_against_oracle(random.Random(3), obj, rows, 4) == "optimal"
    assert any(switched)
