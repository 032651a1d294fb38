"""Knapsack instances, the base LP, greedy and exact-optimum oracles, residuals.

All arithmetic is exact rational. Instances built by the public
constructors enforce the standing assumption c_i <= C; residual
instances relax it (items larger than the remaining capacity are simply
never packable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .rationals import Q, ZERO, rat, rat_str
from .subsets import indices_of

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


def _ratio_order(inst: KnapsackInstance) -> list[int]:
    # decreasing v_i/c_i, ties broken by lower index
    return sorted(range(inst.n), key=lambda i: (-(inst.values[i] / inst.sizes[i]), i))


def _fractional_greedy(sizes, values, cap, start: int = 0):
    """Value of items start.. taken in order, each whole while it fits in
    what is left of cap, then the fraction of the first that does not fit;
    in ratio order it is the LP optimum."""
    total = ZERO
    for i in range(start, len(sizes)):
        if sizes[i] <= cap:
            cap -= sizes[i]
            total += values[i]
        else:
            total += values[i] * cap / sizes[i]
            break
    return total


def greedy(inst: KnapsackInstance) -> tuple[int, object]:
    """(mask, value) of packing by decreasing value/size ratio up to the
    first item that does not fit (later items are not considered)."""
    remaining = inst.capacity
    chosen = 0
    total = ZERO
    for i in _ratio_order(inst):
        if inst.sizes[i] > remaining:
            break
        chosen |= 1 << i
        remaining -= inst.sizes[i]
        total += inst.values[i]
    return chosen, total


def opt_solution(inst: KnapsackInstance) -> tuple[int, object]:
    """(mask, value): an optimal subset's bitmask and the exact optimum.

    On a uniform instance (equal sizes c, equal values v) no feasible set
    has more than floor(C/c) items and a set is worth v per item, so the
    first k = min(n, floor(C/c)) items are optimal at any n: the mask the
    search below returns, since it breaks ratio ties by lower index.
    Otherwise exhaustive branch and bound, capped at n <= 24.
    """
    n = inst.n
    if inst.is_uniform():
        k = min(n, math.floor(inst.capacity / inst.sizes[0]))
        return (1 << k) - 1, inst.values[0] * k
    if n > MAX_BRUTEFORCE:
        raise ValueError(f"brute force capped at n <= {MAX_BRUTEFORCE}")
    order = _ratio_order(inst)
    sizes = [inst.sizes[i] for i in order]
    values = [inst.values[i] for i in order]
    best = [ZERO, 0]

    def dfs(k, cap, acc, mask):
        if acc > best[0]:
            best[0], best[1] = acc, mask
        if k == n or acc + _fractional_greedy(sizes, values, cap, k) <= best[0]:
            return
        if sizes[k] <= cap:
            dfs(k + 1, cap - sizes[k], acc + values[k], mask | (1 << order[k]))
        dfs(k + 1, cap, acc, mask)

    dfs(0, inst.capacity, ZERO, 0)
    return best[1], best[0]


def lp_value(inst: KnapsackInstance):
    """Exact optimum of the base LP, by fractional greedy in closed form."""
    order = _ratio_order(inst)
    return _fractional_greedy([inst.sizes[i] for i in order],
                              [inst.values[i] for i in order], inst.capacity)


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


def _json_field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} key")
    return obj[key]


def instance_from_json(text: str) -> KnapsackInstance:
    obj = json.loads(text)
    items = _json_field(obj, "items", "instance")
    if not isinstance(items, list):
        raise ValueError("instance 'items' must be a list")
    if obj.get("n") is not None and obj["n"] != len(items):
        raise ValueError("declared n does not match the item list")
    return make_instance([rat(_json_field(it, "size", f"item {k}"))
                          for k, it in enumerate(items)],
                         [rat(_json_field(it, "value", f"item {k}"))
                          for k, it in enumerate(items)],
                         rat(_json_field(obj, "capacity", "instance")))
