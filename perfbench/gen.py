"""Seeded inputs for the benchmark workloads.

Everything here is built from the seed and the pass index alone, with the
benchmark's own arithmetic: the program only receives the finished
instances and lifted vectors. Random instances follow the repository's
convention: integer sizes and values in 1..9, capacity between the
largest size and the total size, so every item fits on its own.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from liftlab import KnapsackInstance, Q, SetVector

EPS = Fraction(1, 10)


def rng_for(seed: int, index: int, stream: str) -> random.Random:
    """Independent generator per (seed, pass index, job stream)."""
    return random.Random(f"liftlab-bench/{seed}/{index}/{stream}")


def mask_of(items) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def masks_upto(n: int, depth: int) -> list[int]:
    """All subsets of {0..n-1} of size at most `depth`, as bitmasks."""
    return [mask_of(c) for k in range(depth + 1)
            for c in itertools.combinations(range(n), k)]


def make(sizes, values, capacity) -> KnapsackInstance:
    return KnapsackInstance(tuple(Q(c) for c in sizes),
                            tuple(Q(v) for v in values), Q(capacity))


def uniform_instance(n: int, eps=EPS) -> KnapsackInstance:
    """The paper's gap family: unit sizes and values, capacity 2(1 - eps)."""
    return make([1] * n, [1] * n, 2 * (1 - eps))


def random_instance(rng: random.Random, n: int, vmax: int = 9) -> KnapsackInstance:
    sizes = [rng.randint(1, vmax) for _ in range(n)]
    values = [rng.randint(1, vmax) for _ in range(n)]
    return make(sizes, values, rng.randint(max(sizes), sum(sizes)))


def cost(inst: KnapsackInstance, mask: int):
    return sum(c for i, c in enumerate(inst.sizes) if mask >> i & 1)


def opt_value(inst: KnapsackInstance):
    """Integer optimum by enumerating every subset (small n only)."""
    best = Fraction(0)
    for m in range(1 << inst.n):
        if cost(inst, m) <= inst.capacity:
            best = max(best, sum(v for i, v in enumerate(inst.values) if m >> i & 1))
    return Fraction(best)


def lp_bound(inst: KnapsackInstance):
    """Optimum of the base LP: fill by value density, split the last item."""
    room, total = Fraction(inst.capacity), Fraction(0)
    for i in sorted(range(inst.n), key=lambda i: -inst.values[i] / inst.sizes[i]):
        take = min(Fraction(1), room / inst.sizes[i])
        total += take * inst.values[i]
        room -= take * inst.sizes[i]
        if room <= 0:
            break
    return total


def certificate_alpha(n: int, eps, t: int):
    """Singleton value of the level-t gap certificate: 2(1-eps)/(n+(t-1)(1-eps))."""
    return 2 * (1 - eps) / (n + (t - 1) * (1 - eps))


def certificate_vector(n: int, alpha, t: int) -> SetVector:
    """y_0 = 1, singletons alpha, every other subset of size <= t zero."""
    return SetVector(n, {m: Q(1) if m == 0 else Q(alpha) if m.bit_count() == 1 else Q(0)
                         for m in masks_upto(n, t)})


def symmetric_point(n: int, depth: int, y1, y2) -> SetVector:
    """Point tied by cardinality: y_i = y1, y_ij = y2, larger subsets zero."""
    by_size = {0: Q(1), 1: Q(y1), 2: Q(y2)}
    return SetVector(n, {m: by_size.get(m.bit_count(), Q(0)) for m in masks_upto(n, depth)})


def feasible_points(rng: random.Random, inst: KnapsackInstance, k: int,
                    avoid_mask: int = 0, below: int = 1) -> list[int]:
    """k distinct feasible 0/1 points, each meeting avoid_mask in fewer than
    `below` items, drawn by packing a shuffled item order."""
    points: list[int] = []
    order = list(range(inst.n))
    for _ in range(200 * k):
        rng.shuffle(order)
        room, m = inst.capacity, 0
        for i in order[:rng.randint(0, inst.n)]:
            if inst.sizes[i] <= room:
                room -= inst.sizes[i]
                m |= 1 << i
        if m not in points and (m & avoid_mask).bit_count() < below:
            points.append(m)
            if len(points) == k:
                break
    return points


def weights(rng: random.Random, count: int) -> list[Fraction]:
    raw = [rng.randint(1, 5) for _ in range(count)]
    return [Fraction(w, sum(raw)) for w in raw]


def moment_vector(n: int, weighted_points, depth: int) -> SetVector:
    """y_I = sum of the weights of the points containing I, for |I| <= depth."""
    return SetVector(n, {m: Q(sum((w for w, p in weighted_points if m & ~p == 0),
                                  Fraction(0)))
                         for m in masks_upto(n, depth)})


def mixture(rng: random.Random, inst: KnapsackInstance, depth: int, k: int) -> SetVector:
    """Convex mixture of k feasible 0/1 moment vectors: a member at every level."""
    pts = feasible_points(rng, inst, k)
    return moment_vector(inst.n, list(zip(weights(rng, len(pts)), pts)), depth)


def break_pair(y: SetVector) -> SetVector:
    """Copy of y with y_ij raised above y_i for the first item i with y_i < 1.

    The principal minor [[y_i, y_ij], [y_ij, y_ij]] of M_P({i,j})(y) then
    has determinant y_ij (y_i - y_ij) < 0, so the copy is in no level >= 2.
    """
    i = next(i for i in range(y.n) if y[1 << i] < 1)
    j = 0 if i else 1
    values = dict(y.values)
    values[1 << i | 1 << j] = y[1 << i] + (1 - y[1 << i]) / 2
    return SetVector(y.n, values)


def decomposition_case(rng: random.Random, k: int, n: int = 6, t: int = 3):
    """A mixture vanishing on |I n S| >= k, with S the items worth more than
    OPT/(t-1). Returns (inst, y, S, masses): masses are the mixture weights
    aggregated by X = point n S, which decompose must return as its weights.
    Instances with an empty S split trivially and are drawn again, and so
    are those whose residual instance (the items outside S) has fewer than
    t-k items: verify_decomposition checks the residual at level t-k, and
    lasserre_membership rejects a level above the item count with ValueError.
    """
    while True:
        inst = random_instance(rng, n, vmax=6)
        cut = opt_value(inst) / (t - 1)
        s_mask = mask_of(i for i in range(n) if inst.values[i] > cut)
        if not s_mask or n - s_mask.bit_count() < t - k:
            continue
        pts = feasible_points(rng, inst, rng.randint(1, 4), s_mask, k)
        if pts:
            break
    weighted = list(zip(weights(rng, len(pts)), pts))
    masses: dict[int, Fraction] = {}
    for w, p in weighted:
        masses[p & s_mask] = masses.get(p & s_mask, Fraction(0)) + w
    return inst, moment_vector(n, weighted, 2 * t), s_mask, masses


def sdp_instance(rng: random.Random, n: int) -> KnapsackInstance:
    """Random instance whose base LP exceeds its integer optimum, so the
    Lasserre bisection has an interval to search."""
    while True:
        inst = random_instance(rng, n)
        if lp_bound(inst) > opt_value(inst):
            return inst
