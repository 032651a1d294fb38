"""Knapsack instances, the base LP, greedy/brute-force oracles, residuals.

All arithmetic is exact rational. Instances built by the public
constructors enforce the standing assumption c_i <= C; residual
instances relax it (items larger than the remaining capacity are simply
never packable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .rationals import Q, ZERO, rat, rat_str
from .subsets import indices_of, mask_of

MAX_BRUTEFORCE = 24


@dataclass(frozen=True)
class KnapsackInstance:
    sizes: tuple
    values: tuple
    capacity: object  # exact rational

    def __post_init__(self):
        if len(self.sizes) != len(self.values):
            raise ValueError("sizes and values must have equal length")
        if self.n < 1:
            raise ValueError("need at least one item")
        if any(c <= 0 for c in self.sizes) or any(v <= 0 for v in self.values):
            raise ValueError("sizes and values must be positive")
        if self.capacity < 0:
            # zero is allowed: residual instances may have no room left
            raise ValueError("capacity must be non-negative")

    @property
    def n(self) -> int:
        return len(self.sizes)

    def check_standing_assumption(self) -> "KnapsackInstance":
        if any(c > self.capacity for c in self.sizes):
            raise ValueError("standing assumption violated: some c_i > C")
        return self

    def is_uniform(self) -> bool:
        return len(set(self.sizes)) == 1 and len(set(self.values)) == 1

    def cost(self, mask: int):
        return sum((self.sizes[i] for i in indices_of(mask)), ZERO)

    def value(self, mask: int):
        return sum((self.values[i] for i in indices_of(mask)), ZERO)

    def is_feasible(self, mask: int) -> bool:
        return self.cost(mask) <= self.capacity


def make_instance(sizes, values, capacity) -> KnapsackInstance:
    capacity = rat(capacity)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    inst = KnapsackInstance(tuple(rat(c) for c in sizes),
                            tuple(rat(v) for v in values), capacity)
    return inst.check_standing_assumption()


@dataclass(frozen=True)
class Solution:
    chosen: int  # bitmask


@dataclass(frozen=True)
class LinearConstraint:
    """Affine form b + sum_j a_j x_j >= 0 over the base variables."""

    coefficients: tuple
    offset: object

    def eval_point(self, x):
        return self.offset + sum(a * xi for a, xi in zip(self.coefficients, x))


def capacity_constraint(inst: KnapsackInstance) -> LinearConstraint:
    """g(x) = C - sum_i c_i x_i >= 0."""
    return LinearConstraint(tuple(-c for c in inst.sizes), inst.capacity)


def box_constraints(inst: KnapsackInstance) -> list[LinearConstraint]:
    """x_i >= 0 and 1 - x_i >= 0 for every item."""
    out = []
    n = inst.n
    for i in range(n):
        coeffs = [ZERO] * n
        coeffs[i] = Q(1)
        out.append(LinearConstraint(tuple(coeffs), ZERO))
    for i in range(n):
        coeffs = [ZERO] * n
        coeffs[i] = Q(-1)
        out.append(LinearConstraint(tuple(coeffs), Q(1)))
    return out


def all_constraints(inst: KnapsackInstance) -> list[LinearConstraint]:
    """Capacity first, then the box constraints (the dense-definition test oracle)."""
    return [capacity_constraint(inst)] + box_constraints(inst)


def _ratio_order(inst: KnapsackInstance) -> list[int]:
    # decreasing v_i/c_i, ties broken by lower index
    return sorted(range(inst.n), key=lambda i: (-(inst.values[i] / inst.sizes[i]), i))


def greedy(inst: KnapsackInstance) -> tuple[Solution, object]:
    """Pack by decreasing value/size ratio, stopping at the first item that
    does not fit (items after the stopping point are not considered)."""
    remaining = inst.capacity
    chosen = 0
    total = ZERO
    for i in _ratio_order(inst):
        if inst.sizes[i] > remaining:
            break
        chosen |= 1 << i
        remaining -= inst.sizes[i]
        total += inst.values[i]
    return Solution(chosen), total


def opt_solution(inst: KnapsackInstance) -> tuple[Solution, object]:
    """Exact integer optimum and an attaining subset, by exhaustive search (n <= 24)."""
    n = inst.n
    if n > MAX_BRUTEFORCE:
        raise ValueError(f"brute force capped at n <= {MAX_BRUTEFORCE}")
    order = _ratio_order(inst)
    sizes = [inst.sizes[i] for i in order]
    values = [inst.values[i] for i in order]
    best = [ZERO, 0]

    def bound(k, cap):
        # fractional-greedy bound on the remaining suffix
        total = ZERO
        for i in range(k, n):
            if sizes[i] <= cap:
                cap -= sizes[i]
                total += values[i]
            else:
                total += values[i] * cap / sizes[i]
                break
        return total

    def dfs(k, cap, acc, mask):
        if acc > best[0]:
            best[0], best[1] = acc, mask
        if k == n or acc + bound(k, cap) <= best[0]:
            return
        if sizes[k] <= cap:
            dfs(k + 1, cap - sizes[k], acc + values[k], mask | (1 << order[k]))
        dfs(k + 1, cap, acc, mask)

    dfs(0, inst.capacity, ZERO, 0)
    return Solution(best[1]), best[0]


def opt_bruteforce(inst: KnapsackInstance):
    """Exact integer optimum by exhaustive search (n <= 24)."""
    return opt_solution(inst)[1]


def lp_value(inst: KnapsackInstance):
    """Exact optimum of the base LP, by fractional greedy in closed form."""
    remaining = inst.capacity
    total = ZERO
    for i in _ratio_order(inst):
        if remaining <= 0:
            break
        if inst.sizes[i] <= remaining:
            remaining -= inst.sizes[i]
            total += inst.values[i]
        else:
            total += inst.values[i] * remaining / inst.sizes[i]
            break
    return total


def residual(inst: KnapsackInstance, fixed: dict[int, int]) -> tuple[KnapsackInstance, list[int]]:
    """Instance on the unfixed items with capacity reduced by the items fixed to 1.

    `fixed` maps item index -> 0/1. Returns (residual instance, kept
    item indices in order). The residual may violate c_i <= C.
    """
    used = ZERO
    for j, val in fixed.items():
        if not 0 <= j < inst.n:
            raise ValueError(f"item {j} out of range")
        if val not in (0, 1):
            raise ValueError("fixed values must be 0 or 1")
        if val == 1:
            used += inst.sizes[j]
    if used > inst.capacity:
        raise ValueError("fixed items exceed the capacity")
    keep = [i for i in range(inst.n) if i not in fixed]
    if not keep:
        raise ValueError("residual instance would be empty")
    sub = KnapsackInstance(tuple(inst.sizes[i] for i in keep),
                           tuple(inst.values[i] for i in keep),
                           inst.capacity - used)
    return sub, keep


def uniform_gap_instance(n: int, eps) -> KnapsackInstance:
    """All c_i = v_i = 1, capacity C = 2(1 - eps), for 0 < eps < 1/2."""
    eps = rat(eps)
    if not (0 < eps < Q(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    one = Q(1)
    return KnapsackInstance((one,) * n, (one,) * n, 2 * (1 - eps))


def instance_to_json(inst: KnapsackInstance) -> str:
    obj = {
        "n": inst.n,
        "capacity": rat_str(inst.capacity),
        "items": [{"size": rat_str(c), "value": rat_str(v)}
                  for c, v in zip(inst.sizes, inst.values)],
    }
    return json.dumps(obj, indent=1)


def instance_from_json(text: str) -> KnapsackInstance:
    obj = json.loads(text)
    items = obj["items"]
    if obj.get("n") is not None and obj["n"] != len(items):
        raise ValueError("declared n does not match the item list")
    return make_instance([rat(it["size"]) for it in items],
                         [rat(it["value"]) for it in items],
                         rat(obj["capacity"]))
