"""Shared helpers for the test suite: seeded random rational inputs, and
the full linear SA system as the definitional oracle of the SA rows."""

import os
import random
from dataclasses import dataclass

import pytest

# one BLAS thread per process, set before liftlab imports numpy: the
# barrier's factorizations and products are small, and unpinned threads of
# concurrent runs oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from liftlab import (ZERO, KnapsackInstance, Q, SetVector,  # noqa: E402
                     indices_of, signed_base)
from liftlab.hierarchy import _capacity_row, _disjoint_pairs, _merge  # noqa: E402


def rand_rat(rng: random.Random, lo: int = -9, hi: int = 9) -> Q:
    return Q(rng.randint(lo, hi), rng.randint(1, 9))


def rand_setvector(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> SetVector:
    """Random rational vector over the full power set, extension enabled."""
    values = {m: rand_rat(rng, lo, hi) for m in range(1 << n)}
    return SetVector(n, values, extended=True)


def rand_instance(rng: random.Random, n: int, vmax: int = 9) -> KnapsackInstance:
    """Random instance with integer data obeying the c_i <= C assumption."""
    sizes = [rng.randint(1, vmax) for _ in range(n)]
    values = [rng.randint(1, vmax) for _ in range(n)]
    capacity = rng.randint(max(sizes), sum(sizes))
    return KnapsackInstance(tuple(Q(c) for c in sizes),
                            tuple(Q(v) for v in values), Q(capacity))


def point_mixture(rng: random.Random, points: list[int]) -> list[tuple]:
    """Random positive rational weights over the given 0/1 points, summing to 1."""
    raw = [rng.randint(1, 5) for _ in points]
    total = sum(raw)
    return [(Q(w, total), p) for w, p in zip(raw, points)]


def mixture_moment(inst, weighted_points, depth) -> SetVector:
    from liftlab import convex_combination, integer_to_moment
    return convex_combination(
        [(w, integer_to_moment(inst, p, depth))
         for w, p in weighted_points])


@dataclass(frozen=True)
class LiftedInequality:
    """sum_mask coeffs[mask] * y_mask >= 0, with y_0 a regular variable."""

    coeffs: tuple  # ((mask, coefficient), ...) sorted by mask
    tag: str

    def evaluate(self, y: SetVector):
        return sum((c * y[m] for m, c in self.coeffs), ZERO)


def _as_ineq(coeffs: dict, tag: str) -> LiftedInequality:
    items = tuple(sorted((m, c) for m, c in coeffs.items() if c != 0))
    return LiftedInequality(items, tag)


def sa_linear_constraints(inst: KnapsackInstance, t: int) -> list[LiftedInequality]:
    """Level-t linear SA system for Knapsack over y in P_t(V).

    For every disjoint pair (I, J) with |I| + |J| <= t - 1 emits the
    lifted capacity inequality and, per item, the lifted bounds
    0 <= x_i <= 1. The normalization y_0 = 1 is the consumer's to add.
    The library's LP (`solvers.sa_lp_problem`) keeps only the maximal rows
    of this system, built by the same `_capacity_row` and `signed_base`.
    """
    if t < 1:
        raise ValueError("level t must be >= 1")
    n = inst.n
    out = []
    for total in range(t):
        for i_mask, j_mask in _disjoint_pairs(n, total):
            pair = f"I={indices_of(i_mask)},J={indices_of(j_mask)}"
            out.append(_as_ineq(_capacity_row(inst, i_mask, j_mask), f"cap {pair}"))
            base = signed_base(i_mask, j_mask)
            for item in range(n):
                lifted_i = signed_base(i_mask, j_mask, 1 << item)
                out.append(_as_ineq(lifted_i, f"lb i={item} {pair}"))
                ub = dict(base)
                _merge(ub, lifted_i, -1)
                out.append(_as_ineq(ub, f"ub i={item} {pair}"))
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)
