"""Exact rational one-phase primal simplex (dictionary form) with anti-cycling.

Variables are implicitly non-negative; upper bounds are ordinary rows.
x = 0 must be feasible: the solve starts from the all-slack basis
there, so a row that fails at x = 0 is refused, not repaired by a
phase one. Every LP this package builds holds at y = 0 (the proofs are
in `solvers.sa_lp_problem` and `solvers._uniform_sa_problem`).
Pivoting uses Dantzig's rule while the objective improves and falls
back to Bland's rule during degenerate stretches, so termination is
guaranteed.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row,
the objective row last, holds Python integers over one positive integer
denominator. Int coefficients and right-hand sides come in as they are,
so an integral LP is built without rational arithmetic; a row with any
other coefficient is coerced with `rat` and cleared of its
denominators. A pivot with pivot entry P and new row N rewrites only
the rows R with a non-zero entry f in the pivot column: with
g = gcd(P, f) it forms ((P/g)*R + (f/g)*N) / (D*P/g), then divides the
row by the gcd of its numerators and denominator, so no per-entry gcd
is paid. Every rule still decides on exact values: objective
coefficients share one denominator and compare as integers, and ratios
compare by cross-multiplication. So the pivots, the optimal point and
the value are those of a tableau of rationals. Rationals appear only
where non-integral rows or objective coefficients come in and where
(value, point) go out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rationals import Q, ZERO, integer_row, rat


class LPUnbounded(Exception):
    pass


@dataclass
class LPProblem:
    """max sum objective[v] * x_v  s.t.  rows, x >= 0.

    Variables are hashable ids (subset bitmasks for lifted LPs).
    Each constraint is (coeffs: dict, sense: '<=' | '>=' | '==', rhs).
    """

    objective: dict
    constraints: list = field(default_factory=list)

    def add(self, coeffs: dict, sense: str, rhs):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        self.constraints.append((coeffs, sense, rhs if type(rhs) is int else rat(rhs)))

    def variables(self) -> list:
        seen = dict.fromkeys(self.objective)
        for coeffs, _, _ in self.constraints:
            seen.update(dict.fromkeys(coeffs))
        return list(seen)


# consecutive degenerate pivots tolerated before switching to Bland's rule
_DEGENERATE_STREAK = 12


class _Dictionary:
    """x_basic[i] = (rows[i][-1] + sum_j rows[i][j] * x_nonbasic[j]) / den[i].

    Entries are integers and each den[i] > 0. The last row is the
    objective, in the same form; it has no basic variable, so `basic` is
    one entry shorter than `rows`, and a pivot updates it like any other
    row. It starts at x = 0: the slacks, numbered after the variables, are
    basic and the objective row is the objective itself.
    """

    def __init__(self, rows, den):
        nvars = len(rows[-1]) - 1
        self.rows = rows
        self.den = den
        self.basic = list(range(nvars, nvars + len(rows) - 1))
        self.nonbasic = list(range(nvars))
        self.degen = 0

    def pivot(self, i, j):
        rows, den = self.rows, self.den
        old = rows[i]
        p = old[j]
        # den[i] * x_basic[i] = old . (x_nonbasic, 1), solved for x_nonbasic[j]
        # over the positive denominator |p|
        if p > 0:
            newrow = [-v for v in old]
            newrow[j] = den[i]
        else:
            newrow = old[:]
            newrow[j] = -den[i]
            p = -p
        g = math.gcd(p, *newrow)
        if g > 1:
            newrow = [v // g for v in newrow]
            p //= g
        # substitute x_nonbasic[j]: row <- (a*row + b*newrow) / (den*a),
        # with (a, b) = (p, f) / gcd(p, f), then to lowest terms
        for r, row in enumerate(rows):
            f = row[j]
            if f == 0 or r == i:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            row[j] = 0
            row = [a * u + b * v for u, v in zip(row, newrow)]
            d = den[r] * a
            g = math.gcd(d, *row)
            if g > 1:
                row = [v // g for v in row]
                d //= g
            rows[r], den[r] = row, d
        rows[i], den[i] = newrow, p
        self.basic[i], self.nonbasic[j] = self.nonbasic[j], self.basic[i]

    def _entering(self):
        # one denominator for the whole objective row: compare numerators
        obj = self.rows[-1][:-1]
        if self.degen >= _DEGENERATE_STREAK:
            best = None
            for j, c in enumerate(obj):
                if c > 0 and (best is None or self.nonbasic[j] < self.nonbasic[best]):
                    best = j
            return best
        best = None
        for j, c in enumerate(obj):
            if c > 0 and (best is None or c > obj[best]):
                best = j
        return best

    def _leaving(self, j):
        # the ratio -b[i] / a[i][j] is rows[i][-1] / -rows[i][j]: den[i] cancels
        rows = self.rows
        best = None
        for i in range(len(self.basic)):  # the constraint rows
            a = rows[i][j]
            if a < 0:
                num, d = rows[i][-1], -a
                if (best is None or num * best_d < best_num * d
                        or (num * best_d == best_num * d
                            and self.basic[i] < self.basic[best])):
                    best, best_num, best_d = i, num, d
        return best

    def optimize(self):
        while True:
            j = self._entering()
            if j is None:
                return
            i = self._leaving(j)
            if i is None:
                raise LPUnbounded("objective unbounded above")
            degenerate = self.rows[i][-1] == 0
            self.pivot(i, j)
            self.degen = self.degen + 1 if degenerate else 0


def _build_rows(problem: LPProblem, var_index):
    """Dictionary rows (-A, then b) as integer numerators over a denominator.

    A '<=' row gives one row, '>=' its negation and '==' both. Int
    entries are taken as they are; a row with any other entry is coerced
    with `rat` and cleared of its denominators by `integer_row`.
    """
    rows, den = [], []
    for coeffs, sense, rhs in problem.constraints:
        row = [0] * (len(var_index) + 1)
        integral = True
        for v, c in coeffs.items():
            if type(c) is not int:
                c, integral = rat(c), False
            row[var_index[v]] = -c
        if type(rhs) is not int:
            rhs, integral = rat(rhs), False
        row[-1] = rhs
        row, d = (row, 1) if integral else integer_row(row)
        if sense != ">=":
            rows.append(row)
            den.append(d)
        if sense in (">=", "=="):
            rows.append([-x for x in row])
            den.append(d)
    return rows, den


def simplex_exact(problem: LPProblem):
    """Exact optimum of an LPProblem; returns (value, point dict).

    x = 0 must be feasible: each '<=' row needs rhs >= 0, each '>=' row
    rhs <= 0 and each '==' row rhs = 0, else ValueError. Raises
    LPUnbounded if the objective has no maximum.
    """
    variables = problem.variables()
    nvars = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    rows, den = _build_rows(problem, var_index)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("simplex_exact needs every row to hold at x = 0")
    obj = [0] * (nvars + 1)
    for v, c in problem.objective.items():
        obj[var_index[v]] = c if type(c) is int else rat(c)
    obj, oden = integer_row(obj)
    d = _Dictionary(rows + [obj], den + [oden])
    d.optimize()

    point = {v: ZERO for v in variables}
    for i, bs in enumerate(d.basic):
        if bs < nvars:
            point[variables[bs]] = Q(d.rows[i][-1], d.den[i])
    return Q(d.rows[-1][-1], d.den[-1]), point
