"""Sherali-Adams and Lasserre lifted-polytope membership, the rows of
the linear SA system, and the uniform-knapsack gap certificate.

Lifted points are SetVectors over P_t(V) (SA) or P_2t(V) (Lasserre)
with y_0 = 1. Both membership checkers test the moment condition and
the capacity localizer; the box localizers are implied (see their
docstrings), and the moment condition alone keeps each y_i in [0, 1]
(SA base values y_i and 1 - y_i; Lasserre minor [[1, y_i], [y_i, y_i]]).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .knapsack import KnapsackInstance, uniform_gap_instance
from .psd import psd_exact_witness
from .rationals import Q, ZERO, ONE, integer_row, rat, rat_str
from .subsets import (SetVector, count_p_t, family_p_t, indices_of, mask_of,
                      moment_matrix, signed_base, submasks)


# longest exact margin `Violation.describe` prints; a rejected pivot can run
# to thousands of characters
MARGIN_CHARS = 40


@dataclass(frozen=True)
class Violation:
    kind: str          # which matrix or inequality family failed
    witness: tuple     # item indices of the witnessing subset family / pair
    margin: object = None  # offending value (negative pivot or Moebius difference, ...)

    def describe(self) -> str:
        """One line; a margin whose exact form is longer than MARGIN_CHARS
        prints as ~ and its float to 6 significant digits."""
        if self.margin is None:
            return f"{self.kind} at {list(self.witness)}"
        margin = rat_str(self.margin)
        if len(margin) > MARGIN_CHARS:
            margin = f"~{float(self.margin):.6g}"
        return f"{self.kind} at {list(self.witness)} (margin {margin})"


@dataclass
class MembershipReport:
    violations: list = field(default_factory=list)
    checked: int = 0
    reduced: bool = False  # one test per orbit of item permutations

    @property
    def accepted(self) -> bool:
        return not self.violations

    def add(self, kind, witness, margin=None):
        self.violations.append(Violation(kind, tuple(witness), margin))

    def describe(self) -> str:
        checks = f"{self.checked} checks" + (", orbit-reduced" if self.reduced else "")
        if self.accepted:
            return f"accepted ({checks})"
        head = f"rejected ({len(self.violations)} violations / {checks})"
        lines = [head] + ["  " + v.describe() for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def integer_to_moment(inst: KnapsackInstance, chosen: int, depth: int) -> SetVector:
    """Moment vector on P_depth(V) of the feasible 0/1 point whose items
    are the bitmask `chosen`: y_I = 1 iff I is contained in it."""
    if chosen >> inst.n:
        raise ValueError("solution uses items outside the instance")
    if not inst.is_feasible(chosen):
        raise ValueError("solution is infeasible")
    return SetVector(inst.n, {m: ONE if m & ~chosen == 0 else ZERO
                              for m in family_p_t(inst.n, depth)})


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


def _capacity_shift(values: dict, capacity, sizes):
    """Memoized entries of g*y for the capacity g: C y_K - sum_i c_i y_{K u i},
    y_K read from values, a missing entry as 0."""
    get = values.get
    bits = [(1 << i, c) for i, c in enumerate(sizes)]
    memo = {}

    def value(mask: int):
        v = memo.get(mask)
        if v is None:
            v = memo[mask] = capacity * get(mask, 0) - sum(
                c * get(mask | bit, 0) for bit, c in bits)
        return v
    return value


def _on_integers(y: SetVector, inst: KnapsackInstance):
    """y and its capacity shift over positive common denominators, on ints.

    Returns Y = L_y * y, L_y the lcm of y's denominators; the memoized
    capacity shift of Y for the capacity scaled by the lcm L_c of the
    denominators of C and the sizes; and the divisors L_y and L_y * L_c
    that take a value of either back to y. Positive scaling keeps every
    sign and every PSD verdict, and scales every Moebius difference and
    every pivot by the same factor. Y's entries are read from its dict, a
    missing one as 0: `_check_level` has refused a vector that is not
    extended and misses part of its level.
    """
    nums, l_y = integer_row(list(y.values.values()))
    ints = SetVector(y.n, dict(zip(y.values, nums)), y.extended)
    (capacity, *sizes), l_c = integer_row([inst.capacity, *inst.sizes])
    return ints, _capacity_shift(ints.values, capacity, sizes), l_y, l_y * l_c


def _mobius_min(read, u_mask: int):
    """Smallest B(I, U\\I) = sum_{L <= U\\I} (-1)^|L| v_{I u L} over I <= U.

    `read` maps a list of bitmasks to the list of their rationals v.
    M_P(U)(v) = Z diag(B) Z^T with Z[A, I] = [A <= I] unit triangular
    (Laurent 2003), so the matrix is PSD iff this minimum is >= 0. The
    2^|U| values on P(U) are differenced in place, one item of U at a time.
    """
    # in numeric order, bit j of a submask's position is the j-th item of U
    v = read(sorted(submasks(u_mask)))
    step = 1
    while step < len(v):
        for base in range(0, len(v), 2 * step):
            for s in range(base, base + step):
                v[s] -= v[s + step]
        step *= 2
    return min(v)


def _check_level(y: SetVector, n: int, depth: int, what: str,
                 report: MembershipReport):
    """Support, y_0 = 1 and range checks on P_depth(V), one pass over y.

    Returns the cardinality profile [y_0, ..., y_min(depth, n)] when
    every entry on P_depth(V) depends only on |K| (missing entries of an
    extended vector read as 0), else None.
    """
    if y.n != n:
        raise ValueError(f"{what}: ground-set size mismatch")
    # entries beyond P_depth(V) are never read by the level's definition
    level = [(m, v) for m, v in y.values.items()
             if not m >> n and m.bit_count() <= depth]
    # the stored masks are distinct, so they cover P_depth(V) iff there
    # are count_p_t(n, depth) of them
    if not y.extended and len(level) < count_p_t(n, depth):
        # at most len(level) subsets come before the first missing one
        missing = next(combo for size in range(depth + 1)
                       for combo in itertools.combinations(range(n), size)
                       if mask_of(combo) not in y.values)
        raise ValueError(f"{what}: vector must be defined on all subsets of "
                         f"size <= {depth}; missing {list(missing)}")
    if y.get(0) != 1:
        report.add("y_empty", (), y.get(0) - 1)
    profile = {}
    stored = [0] * (depth + 1)
    invariant = True
    for m, v in level:
        if not 0 <= v.numerator <= v.denominator:  # 0 <= v <= 1, without Fraction
            report.add("range", indices_of(m), v)
        if invariant:
            size = m.bit_count()
            stored[size] += 1
            invariant = profile.setdefault(size, v) == v
    report.checked += 1 + len(level)
    if not invariant:
        return None
    top = min(depth, n)
    for size in range(top + 1):
        if (stored[size] < math.comb(n, size)
                and profile.setdefault(size, ZERO) != 0):
            return None
    return [profile[size] for size in range(top + 1)]


def _orbit_differences(profile, size: int) -> list:
    """B_i = sum_l (-1)^l C(size-i, l) profile[i+l] for i = 0..size.

    For a vector whose entries depend only on |K|, B_i is the Moebius
    difference B(I, U\\I) of every |U| = size and |I| = i.
    """
    return [sum(((-1) ** l * math.comb(size - i, l) * profile[i + l]
                 for l in range(size - i + 1)), ZERO)
            for i in range(size + 1)]


def _capacity_profile(x, n: int, cap, c, top: int) -> list:
    """(g*y)_m = C x_m - c (m x_m + (n-m) x_{m+1}) for m = 0..top: the
    capacity shift of a cardinality profile x, rationals or int vectors, on
    n items of size c. x_{n+1} reads as 0; its weight n - n is 0 anyway."""
    x = list(x) + [0]
    return [cap * x[m] - c * (m * x[m] + (n - m) * x[m + 1])
            for m in range(top + 1)]


def _sa_orbit_tests(profile, inst: KnapsackInstance, t: int,
                    report: MembershipReport):
    """The Moebius sign tests of sa_membership for a point with cardinality
    profile [y_0, ..., y_t] and an instance with equal sizes c.

    Item permutations then fix the point and the capacity g, so all
    |U| = t form one orbit, all |W| = t-1 another, and B(I, U\\I) depends
    only on |I|. One test per value of |I| decides each orbit; a failing
    orbit is reported at its first member with the margin every member has.
    The capacity profile comes from `_capacity_profile`.
    """
    shifted = _capacity_profile(profile, inst.n, inst.capacity, inst.sizes[0],
                                t - 1)
    report.reduced = True
    for kind, values, size in (("moment M_P(U)", profile, t),
                               ("constraint[0] M_P(W)(g*y)", shifted, t - 1)):
        diffs = _orbit_differences(values, size)
        report.checked += len(diffs)
        low = min(diffs)
        if low < 0:
            report.add(kind, range(size), low)


def _sa_family_tests(y: SetVector, inst: KnapsackInstance, t: int,
                     report: MembershipReport):
    """The Moebius sign tests of sa_membership, one per |U| = t and |W| = t-1,
    run on `_on_integers`."""
    ints, capacity, l_y, l_g = _on_integers(y, inst)
    get = ints.values.get
    for kind, read, size, scale in (
            ("moment M_P(U)", lambda ms: [get(m, 0) for m in ms], t, l_y),
            ("constraint[0] M_P(W)(g*y)", lambda ms: list(map(capacity, ms)),
             t - 1, l_g)):
        for combo in itertools.combinations(range(inst.n), size):
            low = _mobius_min(read, mask_of(combo))
            report.checked += 1
            if low < 0:
                report.add(kind, combo, Q(low, scale))


def _level(y: SetVector, inst: KnapsackInstance, t: int, depth: int, what: str):
    """A report holding the checks of _check_level on P_depth(V), and the profile."""
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    report = MembershipReport()
    return report, _check_level(y, inst.n, depth, what, report)


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

    When every size is equal and y_K depends only on |K|, the sign tests
    run once per orbit of item permutations (`_sa_orbit_tests`), in
    O(t^2) work at any n; the report's `reduced` flag says so.
    """
    report, profile = _level(y, inst, t, t, "sa_membership")
    if profile is not None and len(set(inst.sizes)) == 1:
        _sa_orbit_tests(profile, inst, t, report)
    else:
        _sa_family_tests(y, inst, t, report)
    return report


def _sa_membership_dense(y: SetVector, inst: KnapsackInstance,
                         t: int) -> MembershipReport:
    """sa_membership with one test per |U| = t and |W| = t-1 whatever the
    symmetry: the oracle the orbit-reduced tests are checked against."""
    report, _ = _level(y, inst, t, t, "sa_membership")
    _sa_family_tests(y, inst, t, report)
    return report


def _schrijver_beta(n: int, i: int, j: int, k: int, s: int) -> int:
    """beta^s_{i,j,k} = sum_u (-1)^(u-s) C(u,s) C(n-2k,u-k) C(n-k-u,i-u) C(n-k-u,j-u)."""
    # an int sign: (-1) ** e is a float for e < 0
    return sum((-1 if (u - s) % 2 else 1) * math.comb(u, s)
               * math.comb(n - 2 * k, u - k)
               * math.comb(n - k - u, i - u) * math.comb(n - k - u, j - u)
               for u in range(max(s, k), min(i, j) + 1))


def _orbit_layout(n: int, top: int) -> list:
    """Row ranges of Schrijver's blocks over P_top([n]), in order: block
    k = 0..min(top, n//2) has rows and columns i = k..min(top, n-k)."""
    return [range(k, min(top, n - k) + 1) for k in range(min(top, n // 2) + 1)]


def _orbit_blocks(x, n: int, top: int) -> list:
    """Schrijver's blocks of M[I, J] = x[|I u J|] over P_top([n]).

    M is invariant under item permutations, and it is PSD iff every
    block B_k is PSD (Schrijver 2005, Terwilliger algebra of the Boolean
    lattice), with the rows and columns i, j of `_orbit_layout` and
        B_k[i, j] = sum_s beta^s_{i,j,k} x[i+j-s],  max(0, i+j-n) <= s <= min(i, j),
    s being |I n J|. Schrijver's scaling C(n-2k, i-k)^(-1/2) on both sides
    is a positive diagonal congruence and is dropped, so the blocks stay
    rational. B_k occurs C(n, k) - C(n, k-1) times in M's spectrum.
    x must hold x[0..min(2 top, n)], rationals or int vectors (numpy object
    arrays): the blocks are linear in x.
    """
    blocks = []
    for k, sizes in enumerate(_orbit_layout(n, top)):
        rows = [[None] * len(sizes) for _ in sizes]
        for a, i in enumerate(sizes):
            for b in range(a, len(sizes)):
                j = sizes[b]
                rows[a][b] = rows[b][a] = sum(
                    (_schrijver_beta(n, i, j, k, s) * x[i + j - s]
                     for s in range(max(0, i + j - n), i + 1)), 0)
        blocks.append(rows)
    return blocks


def _orbit_matrices(x, n: int, cap, c, t: int) -> tuple:
    """`_orbit_blocks` of M_{P_t}(y) and of M_{P_t-1}(g*y), whose entries
    depend only on |I u J| = m: y_m = x[m] and `_capacity_profile` of x, for
    x = [y_0..y_min(2t, n)], n items of size c and capacity C."""
    shifted = _capacity_profile(x, n, cap, c, min(2 * t - 2, n))
    return _orbit_blocks(x, n, t), _orbit_blocks(shifted, n, t - 1)


def _lasserre_orbit_tests(profile, inst: KnapsackInstance, t: int,
                          report: MembershipReport):
    """The two PSD tests of lasserre_membership for a point with cardinality
    profile [y_0, ..., y_min(2t, n)] and an instance with equal sizes c,
    each decided on its blocks (`_orbit_matrices`); a failing matrix is
    reported once, with the pivot of its first failing block as the margin.
    """
    moment, localizer = _orbit_matrices(profile, inst.n, inst.capacity,
                                        inst.sizes[0], t)
    report.reduced = True
    for kind, witness, blocks in (("moment M_Pt(V)", (t,), moment),
                                  ("constraint[0] M_Pt-1(V)(g*y)", (t - 1,),
                                   localizer)):
        bad = None
        for block in blocks:
            ok, margin = psd_exact_witness(block)
            report.checked += 1
            if not ok and bad is None:
                bad = margin
        if bad is not None:
            report.add(kind, witness, bad)


def _dense_matrices(y: SetVector, shifted, t: int) -> tuple:
    """M_{P_t}(y) and M_{P_t-1}(g*y) as row lists, the second read from
    `shifted` (`_capacity_shift` of y's entries, rationals or vectors)."""
    fam = family_p_t(y.n, t - 1)
    return (moment_matrix(y, family_p_t(y.n, t)),
            [[shifted(a | b) for b in fam] for a in fam])


def _lasserre_dense_tests(y: SetVector, inst: KnapsackInstance, t: int,
                          report: MembershipReport):
    """The two PSD tests of lasserre_membership on the dense matrices, built
    and eliminated on `_on_integers`."""
    ints, shifted, l_y, l_g = _on_integers(y, inst)
    moment, localizer = _dense_matrices(ints, shifted, t)
    for kind, witness, matrix, scale in (
            ("moment M_Pt(V)", (t,), moment, l_y),
            ("constraint[0] M_Pt-1(V)(g*y)", (t - 1,), localizer, l_g)):
        ok, bad = psd_exact_witness(matrix)
        report.checked += 1
        if not ok:
            report.add(kind, witness, bad / scale)


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

    When every size is equal and y_K depends only on |K|, both matrices
    are invariant under item permutations and are decided on Schrijver's
    block diagonalization (Schrijver 2005, `_lasserre_orbit_tests`):
    at most t+1 blocks of size at most t+1 for the moment matrix and t of
    size at most t for the capacity localizer, at any n; the report's
    `reduced` flag says so. Otherwise each matrix is eliminated densely.
    """
    report, profile = _level(y, inst, t, 2 * t, "lasserre_membership")
    if profile is not None and len(set(inst.sizes)) == 1:
        _lasserre_orbit_tests(profile, inst, t, report)
    else:
        _lasserre_dense_tests(y, inst, t, report)
    return report


def _lasserre_membership_dense(y: SetVector, inst: KnapsackInstance,
                               t: int) -> MembershipReport:
    """lasserre_membership on the dense matrices whatever the symmetry: the
    oracle the orbit-reduced tests are checked against."""
    report, _ = _level(y, inst, t, 2 * t, "lasserre_membership")
    _lasserre_dense_tests(y, inst, t, report)
    return report


def _merge(into: dict, other: dict, scale):
    for m, c in other.items():
        into[m] = into.get(m, 0) + scale * c
    return into


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


def _integral(v):
    """v as an int if it is integral, else v: ints keep rows off Fraction."""
    return v.numerator if v.denominator == 1 else v


def _capacity_row(inst: KnapsackInstance, i_mask: int, j_mask: int) -> dict:
    """Lifted capacity row C * B(I, J) - sum_i c_i * B(I u i, J) >= 0,
    where B(I, J) = sum_{L <= J} (-1)^|L| y_{I u L}. Integral C and c_i
    enter as ints, so an integral instance gives an int row."""
    cap = _merge({}, signed_base(i_mask, j_mask), _integral(inst.capacity))
    for item in range(inst.n):
        _merge(cap, signed_base(i_mask, j_mask, 1 << item),
               -_integral(inst.sizes[item]))
    return cap


def certificate_alpha(n: int, eps, t: int):
    eps = rat(eps)
    capacity = 2 * (1 - eps)
    return capacity / (n + (t - 1) * (1 - eps))


def _certificate_profile(n: int, eps, t: int) -> list:
    """y_K of the level-t gap certificate by |K| = 0..t: 1, alpha, then 0."""
    eps = rat(eps)
    if not (0 < eps < Q(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    if not 2 <= t < n:
        raise ValueError("level must satisfy 2 <= t < n")
    return [ONE, certificate_alpha(n, eps, t)] + [ZERO] * (t - 1)


def sa_gap_certificate(n: int, eps, t: int) -> SetVector:
    """The uniform-knapsack SA certificate: y_0 = 1, singletons alpha, rest 0."""
    profile = _certificate_profile(n, eps, t)
    return SetVector(n, {m: profile[m.bit_count()] for m in family_p_t(n, t)})


def certificate_membership(n: int, eps, t: int) -> MembershipReport:
    """SA membership of sa_gap_certificate(n, eps, t) at level t for
    uniform_gap_instance(n, eps), decided on the certificate's cardinality
    profile by the orbit tests of sa_membership; the C(n, <= t) entries
    are never built. Its y_0 = 1 and range conditions hold by construction
    (0 < alpha < 1), so only the 2t + 1 orbit tests are counted.
    """
    profile = _certificate_profile(n, eps, t)
    report = MembershipReport()
    _sa_orbit_tests(profile, uniform_gap_instance(n, eps), t, report)
    return report


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
    """Check the certificate's SA membership exactly (`certificate_membership`)
    and compare its value n*alpha against (2-eps)/(1+delta) (the uniform
    instance has OPT 1)."""
    eps, delta = rat(eps), rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t > delta * n:
        raise ValueError("level t must satisfy t <= delta * n")
    report = certificate_membership(n, eps, t)
    value = n * certificate_alpha(n, eps, t)
    bound = (2 - eps) / (1 + delta)
    return CertificateCheck(value, report, bound, value >= bound)
