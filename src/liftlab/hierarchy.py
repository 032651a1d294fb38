"""Sherali-Adams and Lasserre lifted-polytope membership, linear SA
constraints, and the uniform-knapsack gap certificate.

Lifted points are SetVectors over P_t(V) (SA) or P_2t(V) (Lasserre)
with y_0 = 1. Both membership checkers test the moment condition and
the capacity localizer; the box localizers are implied (see their
docstrings), and the moment condition alone keeps each y_i in [0, 1]
(SA base values y_i and 1 - y_i; Lasserre minor [[1, y_i], [y_i, y_i]]).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .knapsack import KnapsackInstance, Solution, uniform_gap_instance
from .psd import psd_exact_witness
from .rationals import Q, ZERO, ONE, rat, rat_str
from .subsets import (SetVector, count_p_t, family_p_t, indices_of, mask_of,
                      moment_matrix, submasks)


@dataclass(frozen=True)
class Violation:
    kind: str          # which matrix or inequality family failed
    witness: tuple     # item indices of the witnessing subset family / pair
    margin: object = None  # offending value (negative pivot or Moebius difference, ...)

    def describe(self) -> str:
        margin = "" if self.margin is None else f" (margin {self.margin})"
        return f"{self.kind} at {list(self.witness)}{margin}"


@dataclass
class MembershipReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def accepted(self) -> bool:
        return not self.violations

    def add(self, kind, witness, margin=None):
        self.violations.append(Violation(kind, tuple(witness), margin))

    def describe(self) -> str:
        if self.accepted:
            return f"accepted ({self.checked} checks)"
        head = f"rejected ({len(self.violations)} violations / {self.checked} checks)"
        lines = [head] + ["  " + v.describe() for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def integer_to_moment(inst: KnapsackInstance, sol: Solution, depth: int) -> SetVector:
    """Moment vector of a feasible 0/1 point: y_I = 1 iff I is contained in it."""
    chosen = sol.chosen if isinstance(sol, Solution) else sol
    if chosen >> inst.n:
        raise ValueError("solution uses items outside the instance")
    if not inst.is_feasible(chosen):
        raise ValueError("solution is infeasible")
    values = {}
    for size in range(depth + 1):
        for combo in itertools.combinations(range(inst.n), size):
            m = mask_of(combo)
            values[m] = ONE if m & ~chosen == 0 else ZERO
    return SetVector(inst.n, values)


def convex_combination(parts) -> SetVector:
    """Coordinate-wise mixture of lifted vectors with matching supports."""
    parts = [(rat(w), y) for w, y in parts]
    if not parts:
        raise ValueError("empty combination")
    if any(w < 0 for w, _ in parts):
        raise ValueError("weights must be non-negative")
    if sum(w for w, _ in parts) != 1:
        raise ValueError("weights must sum to 1")
    support = set(parts[0][1].values)
    n = parts[0][1].n
    for _, y in parts[1:]:
        if y.n != n or set(y.values) != support:
            raise ValueError("supports must be identical")
    values = {m: sum((w * y.values[m] for w, y in parts), ZERO) for m in support}
    return SetVector(n, values)


def _capacity_shift(y: SetVector, inst: KnapsackInstance):
    """Memoized entries of g*y for the capacity g: C y_K - sum_i c_i y_{K u i}."""
    sizes = [(1 << i, c) for i, c in enumerate(inst.sizes)]
    memo = {}

    def value(mask: int):
        v = memo.get(mask)
        if v is None:
            v = memo[mask] = inst.capacity * y[mask] - sum(
                (c * y[mask | bit] for bit, c in sizes), ZERO)
        return v
    return value


def _mobius_min(values, u_mask: int):
    """Smallest B(I, U\\I) = sum_{L <= U\\I} (-1)^|L| v_{I u L} over I <= U.

    `values` maps a bitmask to a rational. M_P(U)(v) = Z diag(B) Z^T
    with Z[A, I] = [A <= I] unit triangular (Laurent 2003), so the
    matrix is PSD iff this minimum is >= 0. The 2^|U| values on P(U)
    are differenced in place, one item of U at a time.
    """
    # in numeric order, bit j of a submask's position is the j-th item of U
    v = [values(m) for m in sorted(submasks(u_mask))]
    step = 1
    while step < len(v):
        for base in range(0, len(v), 2 * step):
            for s in range(base, base + step):
                v[s] -= v[s + step]
        step *= 2
    return min(v)


def _check_unit_and_range(y: SetVector, depth: int, report: MembershipReport):
    # entries beyond P_depth(V) are never read by the level's definition
    if y.get(0) != 1:
        report.add("y_empty", (), y.get(0) - 1)
    level = [(m, v) for m, v in y.values.items() if m.bit_count() <= depth]
    for m, v in level:
        if not (0 <= v <= 1):
            report.add("range", indices_of(m), v)
    report.checked += 1 + len(level)


def _require_support(y: SetVector, n: int, depth: int, what: str):
    if y.n != n:
        raise ValueError(f"{what}: ground-set size mismatch")
    if not y.extended and len(y.values) < count_p_t(n, depth):
        raise ValueError(f"{what}: vector must be defined on all subsets of size <= {depth}")


def sa_membership(y: SetVector, inst: KnapsackInstance, t: int) -> MembershipReport:
    """Membership in the level-t Sherali-Adams lifted polytope.

    Checks y_0 = 1, 0 <= y_K <= 1 on P_t(V), M_P(U)(y) PSD for |U| = t and
    M_P(W)(g*y) PSD for the capacity constraint g and |W| = t-1, each as
    a sign test on Moebius differences (`_mobius_min`). Smaller U and W
    need no check: they give principal submatrices. Nor do the box
    localizers: the Moebius differences of x_i*y over P(W) are
    B(I u i, W\\I) if i is not in W, and B(I, W\\I) or 0 if it is; those
    of (1-x_i)*y are B(I, (W\\I) u i), or 0 or B(I, W\\I). All are
    base values of y over a U with |U| <= t.
    """
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    _require_support(y, inst.n, t, "sa_membership")
    n = inst.n
    report = MembershipReport()
    _check_unit_and_range(y, t, report)

    capacity = _capacity_shift(y, inst)
    for kind, values, size in (("moment M_P(U)", y.__getitem__, t),
                               ("constraint[0] M_P(W)(g*y)", capacity, t - 1)):
        for combo in itertools.combinations(range(n), size):
            low = _mobius_min(values, mask_of(combo))
            report.checked += 1
            if low < 0:
                report.add(kind, combo, low)
    return report


def lasserre_membership(y: SetVector, inst: KnapsackInstance, t: int) -> MembershipReport:
    """Membership in the level-t Lasserre lifted polytope.

    Checks y_0 = 1, 0 <= y_K <= 1 on P_2t(V), M_{P_t(V)}(y) PSD, and
    M_{P_{t-1}(V)}(g*y) PSD for the capacity constraint g; y must live
    on P_2t(V). The box localizers are congruences of M = M_{P_t(V)}(y),
    hence PSD whenever M is:
    - M_{P_{t-1}}(x_i*y) = P^T M P with P[I u i, I] = 1, since its
      (I, J) entry is y_{I u J u i} = M[I u i, J u i];
    - M_{P_{t-1}}((1-x_i)*y) = Q^T M Q with column I of Q equal to
      e_I - e_{I u i}, since M[I, J] - M[I, J u i] - M[I u i, J]
      + M[I u i, J u i] = y_{I u J} - y_{I u J u i}.
    """
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    _require_support(y, inst.n, 2 * t, "lasserre_membership")
    n = inst.n
    report = MembershipReport()
    _check_unit_and_range(y, 2 * t, report)

    ok, bad = psd_exact_witness(moment_matrix(y, family_p_t(n, t)))
    report.checked += 1
    if not ok:
        report.add("moment M_Pt(V)", (t,), bad)

    fam = family_p_t(n, t - 1).masks
    shifted = _capacity_shift(y, inst)
    ok, bad = psd_exact_witness([[shifted(a | b) for b in fam] for a in fam])
    report.checked += 1
    if not ok:
        report.add("constraint[0] M_Pt-1(V)(g*y)", (t - 1,), bad)
    return report


@dataclass(frozen=True)
class LiftedInequality:
    """sum_mask coeffs[mask] * y_mask >= 0, with y_0 a regular variable."""

    coeffs: tuple  # ((mask, coefficient), ...) sorted by mask
    tag: str

    def evaluate(self, y: SetVector):
        return sum((c * y[m] for m, c in self.coeffs), ZERO)


def _signed_base(i_mask: int, j_mask: int, extra_bit: int = 0) -> dict:
    """Coefficients of sum_{L <= J} (-1)^|L| y_{I u L u extra}."""
    out = {}
    for l in submasks(j_mask):
        m = i_mask | l | extra_bit
        c = Q(-1 if l.bit_count() % 2 else 1)
        out[m] = out.get(m, ZERO) + c
    return out


def _merge(into: dict, other: dict, scale):
    for m, c in other.items():
        into[m] = into.get(m, ZERO) + scale * c
    return into


def _as_ineq(coeffs: dict, tag: str) -> LiftedInequality:
    items = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
    return LiftedInequality(items, tag)


def _disjoint_pairs(n: int, k: int):
    """Disjoint (I, J) as bitmasks with |I u J| = k.

    Unions U come in combination order; within U, I runs over the
    subsets of U by size, then in combination order, and J = U minus I.
    """
    for union in itertools.combinations(range(n), k):
        u_mask = mask_of(union)
        for i_size in range(k + 1):
            for i_combo in itertools.combinations(union, i_size):
                i_mask = mask_of(i_combo)
                yield i_mask, u_mask & ~i_mask


def _capacity_row(inst: KnapsackInstance, i_mask: int, j_mask: int) -> dict:
    """Lifted capacity row C * B(I, J) - sum_i c_i * B(I u i, J) >= 0,
    where B(I, J) = sum_{L <= J} (-1)^|L| y_{I u L}."""
    cap = _merge({}, _signed_base(i_mask, j_mask), inst.capacity)
    for item in range(inst.n):
        _merge(cap, _signed_base(i_mask, j_mask, 1 << item), -inst.sizes[item])
    return cap


def sa_linear_constraints(inst: KnapsackInstance, t: int) -> list[LiftedInequality]:
    """Level-t linear SA system for Knapsack over y in P_t(V).

    For every disjoint pair (I, J) with |I| + |J| <= t - 1 emits the
    lifted capacity inequality and, per item, the lifted bounds
    0 <= x_i <= 1. The normalization y_0 = 1 is the consumer's to add.
    """
    if t < 1:
        raise ValueError("level t must be >= 1")
    n = inst.n
    out = []
    for total in range(t):
        for i_mask, j_mask in _disjoint_pairs(n, total):
            pair = f"I={indices_of(i_mask)},J={indices_of(j_mask)}"
            out.append(_as_ineq(_capacity_row(inst, i_mask, j_mask), f"cap {pair}"))
            base = _signed_base(i_mask, j_mask)
            for item in range(n):
                lifted_i = _signed_base(i_mask, j_mask, 1 << item)
                out.append(_as_ineq(lifted_i, f"lb i={item} {pair}"))
                ub = dict(base)
                _merge(ub, lifted_i, Q(-1))
                out.append(_as_ineq(ub, f"ub i={item} {pair}"))
    return out


def certificate_alpha(n: int, eps, t: int):
    eps = rat(eps)
    capacity = 2 * (1 - eps)
    return capacity / (n + (t - 1) * (1 - eps))


def sa_gap_certificate(n: int, eps, t: int) -> SetVector:
    """The uniform-knapsack SA certificate: y_0 = 1, singletons alpha, rest 0."""
    eps = rat(eps)
    if not (0 < eps < Q(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    if not 2 <= t < n:
        raise ValueError("level must satisfy 2 <= t < n")
    alpha = certificate_alpha(n, eps, t)
    values = {0: ONE}
    for size in range(1, t + 1):
        for combo in itertools.combinations(range(n), size):
            values[mask_of(combo)] = alpha if size == 1 else ZERO
    return SetVector(n, values)


@dataclass(frozen=True)
class CertificateCheck:
    value: object              # n * alpha, exact
    report: MembershipReport
    bound: object              # (2 - eps) / (1 + delta), exact
    bound_ok: bool

    def describe(self) -> str:
        status = "holds" if self.bound_ok else "FAILS"
        return (f"certificate value {rat_str(self.value)} ~ {float(self.value):.6f}; "
                f"target {rat_str(self.bound)} ~ {float(self.bound):.6f}: {status}; "
                f"membership {self.report.describe()}")


def verify_gap_certificate(n: int, eps, t: int, delta) -> CertificateCheck:
    """Construct the certificate, check SA membership exactly, compare its
    value n*alpha against (2-eps)/(1+delta) (the uniform instance has OPT 1)."""
    eps, delta = rat(eps), rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t > delta * n:
        raise ValueError("level t must satisfy t <= delta * n")
    cert = sa_gap_certificate(n, eps, t)
    inst = uniform_gap_instance(n, eps)
    report = sa_membership(cert, inst, t)
    value = n * certificate_alpha(n, eps, t)
    bound = (2 - eps) / (1 + delta)
    return CertificateCheck(value, report, bound, value >= bound)
