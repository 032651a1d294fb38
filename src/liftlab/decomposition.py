"""Lasserre decomposition: split a vanishing-condition point into a convex
combination of conditioned vectors w^X, and verify all claimed properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hierarchy import MembershipReport, lasserre_membership
from .knapsack import KnapsackInstance, greedy, opt_solution, residual
from .rationals import ZERO, ONE
from .subsets import (SetVector, extend, family_p_t, indices_of, mask_of,
                      restrict_reindex, submasks, z_vector)

MAX_SPLIT_SET = 16


@dataclass(frozen=True)
class DecompositionResult:
    """The split set S and its parts ((x_mask, z^X_0, w^X), ...), each w^X
    a SetVector over P_{2t-2k}(V)."""
    s_mask: int
    parts: tuple


def vanishing_condition(y: SetVector, s_mask: int, k: int) -> bool:
    """True iff every stored entry with |I n S| >= k is exactly zero."""
    return all(v == 0 for m, v in y.values.items()
               if (m & s_mask).bit_count() >= k)


def big_items(inst: KnapsackInstance, k: int) -> int:
    """Items with value strictly above OPT/k, as a bitmask. Where
    `opt_solution` refuses the instance (non-uniform, over 24 items), the
    greedy value stands in for OPT."""
    if k < 1:
        raise ValueError("threshold k must be >= 1")
    try:
        opt = opt_solution(inst)[1]
    except ValueError:
        opt = greedy(inst)[1]
    cutoff = opt / k
    return mask_of(i for i in range(inst.n) if inst.values[i] > cutoff)


def check_split(inst: KnapsackInstance, s_mask: int, k: int, t: int):
    """Reject splits no point satisfies, or whose parts cannot be verified."""
    if not 1 <= k < t:
        raise ValueError("need 1 <= k < t")
    if s_mask.bit_count() > MAX_SPLIT_SET:
        raise ValueError(f"|S| capped at {MAX_SPLIT_SET}")
    if s_mask >> inst.n:
        raise ValueError("S outside the ground set")
    rest = indices_of(((1 << inst.n) - 1) & ~s_mask)
    if 0 < len(rest) < t - k:
        raise ValueError(f"items {rest} outside S are too few for the "
                         f"residual check at level t-k = {t - k}")
    if t - k > inst.n:
        raise ValueError(f"level t-k = {t - k} exceeds n = {inst.n}")


def decompose(y: SetVector, inst: KnapsackInstance, s_mask: int,
              k: int, t: int) -> DecompositionResult:
    """Split y (in La_t, vanishing on |I n S| >= k) into sum of z^X_0 * w^X.

    Exact rationals only. The weights z^X_0 sum to y_0 = 1 identically (the
    indicator polynomials of the X <= S sum to 1); a negative one means y is
    not Lasserre-feasible, an error. With z^X_I = sum_{L <= S\\X} (-1)^|L|
    y_{I u X u L}, one `z_vector` call per |X| < k on the masks outside S
    gives every part, by two identities:
    - only |X| < k carries weight: each X u L meets S in >= |X| items, so
      for |X| >= k each term of z^X_0 is a vanishing entry (checked first;
      entries not stored read 0 through `extend`);
    - with J = I n S, z^X_I = z^X_{I\\S} if J <= X; else the terms for L
      and L ^ {j}, j in J\\X, cancel. So w^X_I = [J <= X] z^X_{I\\S} / z^X_0.
    """
    check_split(inst, s_mask, k, t)
    if not vanishing_condition(y, s_mask, k):
        raise ValueError("vanishing condition |I n S| >= k => y_I = 0 fails")
    if y.get(0) != 1:
        raise ValueError("expected a normalized lifted point (y_0 = 1)")
    yext = extend(y)
    target = family_p_t(inst.n, 2 * (t - k))
    outside = [m for m in target if not m & s_mask]
    parts = []
    for x_mask in sorted(x for x in submasks(s_mask) if x.bit_count() < k):
        z = z_vector(yext, s_mask, x_mask, masks=outside)
        weight = z[0]
        if weight < 0:
            raise ValueError(
                f"negative weight {weight} for X={indices_of(x_mask)}: "
                "input is not Lasserre-feasible")
        if weight > 0:  # an I meeting S\X has w^X_I = 0
            w = {m: ZERO if m & s_mask & ~x_mask else z[m & ~s_mask] / weight
                 for m in target}
            parts.append((x_mask, weight, SetVector(inst.n, w)))
    return DecompositionResult(s_mask, tuple(parts))


def verify_decomposition(res: DecompositionResult, y: SetVector,
                         inst: KnapsackInstance, t: int, k: int) -> MembershipReport:
    """Verify the four decomposition properties, each reported separately:

    (a) w^X is 0/1 on S, matching X;
    (b) w^X is level-(t-k) Lasserre feasible for the instance;
    (c) w^X restricted to V\\S is feasible for the residual instance at t-k;
    (d) sum weight * w^X reconstructs y on P_{2t-2k}(V).
    """
    report = MembershipReport()
    n = inst.n
    s_mask = res.s_mask
    for x_mask, weight, w in res.parts:
        xi = indices_of(x_mask)
        for j in indices_of(s_mask):
            expected = ONE if (x_mask >> j) & 1 else ZERO
            report.checked += 1
            if w[1 << j] != expected:
                report.add("w 0/1 pattern on S", (tuple(xi), j), w[1 << j] - expected)

        sub = lasserre_membership(w, inst, t - k)
        report.checked += sub.checked
        if not sub.accepted:
            report.add("w membership La_{t-k}", tuple(xi), len(sub.violations))

        keep_mask = ((1 << n) - 1) & ~s_mask
        if keep_mask:
            fixed = {j: 1 if (x_mask >> j) & 1 else 0 for j in indices_of(s_mask)}
            sub_inst, _ = residual(inst, fixed)
            w_out = restrict_reindex(w, keep_mask)
            sub = lasserre_membership(w_out, sub_inst, t - k)
            report.checked += sub.checked
            if not sub.accepted:
                report.add("w membership La_{t-k}(residual)", tuple(xi),
                           len(sub.violations))

    for m in family_p_t(n, 2 * (t - k)):
        recon = sum((weight * w[m] for _, weight, w in res.parts), ZERO)
        report.checked += 1
        if recon != y[m]:
            report.add("reconstruction", indices_of(m), recon - y[m])
    return report
