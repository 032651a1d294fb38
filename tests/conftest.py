"""Shared helpers for the test suite: seeded random rational inputs."""

import os
import random

import pytest

# one BLAS thread per process, set before liftlab imports numpy: the
# barrier's factorizations and products are small, and unpinned threads of
# concurrent runs oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from liftlab import KnapsackInstance, Q, SetVector  # noqa: E402


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
    from liftlab import Solution, convex_combination, integer_to_moment
    return convex_combination(
        [(w, integer_to_moment(inst, Solution(p), depth))
         for w, p in weighted_points])


@pytest.fixture
def rng():
    return random.Random(20240817)
