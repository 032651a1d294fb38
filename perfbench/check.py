"""Answer checks for the benchmark jobs.

Each check returns None when the answer is right and a one-line reason
when it is not. References are independent of the code under test:
exact constants of the uniform family, verdicts that hold by
construction, and SA LP values re-derived here and solved with HiGHS.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import mask_of

LP_REL_TOL = 1e-9
# the Lasserre optimizer accepts points whose residual is below 1e-7
SDP_REL_TOL = 1e-6


def sa_lp_reference(inst, t: int) -> float:
    """Level-t linear SA value, solved in floating point by HiGHS.

    Variables are y_S for 1 <= |S| <= t (y_0 = 1). For every disjoint
    (I, J) the lifted box rows read sum_{L <= J} (-1)^|L| y_{I u L} >= 0
    when |I| + |J| <= t, and the lifted capacity rows
    sum_{L <= J} (-1)^|L| (C y_{I u L} - sum_i c_i y_{I u L u i}) >= 0
    when |I| + |J| <= t - 1.
    """
    from scipy.optimize import linprog

    n = inst.n
    var = {mask_of(c): k for k, c in enumerate(
        c for size in range(1, t + 1) for c in itertools.combinations(range(n), size))}
    rows, rhs = [], []

    def add(terms):  # terms: mask -> coefficient of sum >= 0
        row = [0.0] * len(var)
        const = 0.0
        for m, c in terms.items():
            if m == 0:
                const += c
            else:
                row[var[m]] -= c
        rows.append(row)
        rhs.append(const)

    for total in range(t + 1):
        for union in itertools.combinations(range(n), total):
            for i_size in range(total + 1):
                for i_items in itertools.combinations(union, i_size):
                    i_mask = mask_of(i_items)
                    j_items = [x for x in union if not i_mask >> x & 1]
                    signed = [(i_mask | mask_of(l), (-1) ** len(l))
                              for size in range(len(j_items) + 1)
                              for l in itertools.combinations(j_items, size)]
                    add({m: s for m, s in signed})
                    if total == t:
                        continue
                    cap: dict[int, float] = {}
                    for m, s in signed:
                        cap[m] = cap.get(m, 0.0) + s * float(inst.capacity)
                        for i, c in enumerate(inst.sizes):
                            cap[m | 1 << i] = cap.get(m | 1 << i, 0.0) - s * float(c)
                    add(cap)
    objective = [0.0] * len(var)
    for i, v in enumerate(inst.values):
        objective[var[1 << i]] = -float(v)
    res = linprog(objective, A_ub=rows, b_ub=rhs, bounds=(None, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the reference LP: {res.message}")
    return -res.fun


def lp_value(got, inst, t: int, expected=None) -> str | None:
    if expected is not None and got != expected:
        return f"sa_value {got} != expected {expected}"
    ref = sa_lp_reference(inst, t)
    if abs(float(got) - ref) > LP_REL_TOL * max(1.0, abs(ref)):
        return f"sa_value {got} ~ {float(got):.12g} disagrees with HiGHS {ref:.12g}"
    return None


def verdict(report, accept: bool) -> str | None:
    if report.accepted != accept:
        want = "accept" if accept else "reject"
        return f"expected {want}, got {report.describe().splitlines()[0]}"
    return None


def certificate(check, value, bound) -> str | None:
    if check.value != value or check.bound != bound:
        return f"certificate value/bound {check.value}/{check.bound} != {value}/{bound}"
    if not check.bound_ok or not check.report.accepted:
        return "certificate not verified: " + check.describe()
    return None


def sdp_window(estimate, opt, upper: float) -> str | None:
    """The lower estimate must lie in [OPT, SA value] (up to solver residual)."""
    value = estimate.value
    slack = SDP_REL_TOL * max(1.0, abs(upper))
    if not float(opt) - slack <= value <= upper + slack:
        return f"estimate {value:.9g} outside [OPT {float(opt):.9g}, SA {upper:.9g}]"
    return None


def decomposition(result, report, y, masses, t: int, k: int) -> str | None:
    """Weights equal the aggregated mixture masses, the program's own
    verification accepts, and the parts rebuild y exactly on P_{2t-2k}."""
    got = {x: w for x, w, _ in result.parts}
    if got != masses:
        return f"weights {got} differ from aggregated masses {masses}"
    if not report.accepted:
        return "verify_decomposition rejected: " + report.describe().splitlines()[0]
    for m in range(1 << y.n):
        if m.bit_count() <= 2 * (t - k):
            if sum((w * part[m] for _, w, part in result.parts), Fraction(0)) != y[m]:
                return f"parts do not rebuild y at subset mask {m}"
    return None
