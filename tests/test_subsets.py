import json
import math
import random

import pytest

from liftlab import (Q, SetVector, extend, family_p_t,
                     family_powerset, indices_of, is_closed_under_shifting,
                     mask_of, moment_matrix, restrict_reindex,
                     setvector_from_json, setvector_to_json, shift,
                     signed_base, submasks, z_vector)
from liftlab.subsets import canon_key, count_p_t

from conftest import rand_setvector


def test_mask_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert indices_of(0b100101) == [0, 2, 5]
    assert mask_of([]) == 0 and indices_of(0) == []


def test_submasks_enumerates_the_powerset_of_the_mask():
    subs = sorted(submasks(0b1011))
    assert len(subs) == 8
    assert all(s & ~0b1011 == 0 for s in subs)
    assert 0 in subs and 0b1011 in subs


def test_family_p_t_sizes_and_order():
    fam = family_p_t(5, 2)
    assert type(fam) is tuple
    assert len(fam) == 1 + 5 + 10
    assert list(fam) == sorted(fam, key=canon_key)
    assert 0b11 in fam and 0b111 not in fam


def test_family_p_t_sparse_path_matches_dense():
    # the by-size enumerator equals a scan of all 2^n masks
    sparse = family_p_t(22, 2)
    assert len(sparse) == 1 + 22 + math.comb(22, 2)
    assert list(sparse) == sorted(set(sparse), key=canon_key)
    for n in range(7):
        for t in range(-1, n + 2):
            dense = sorted((m for m in range(1 << n) if m.bit_count() <= t),
                           key=canon_key)
            assert list(family_p_t(n, t)) == dense, (n, t)


def test_family_powerset():
    fam = family_powerset(0b101)
    assert type(fam) is tuple
    assert list(fam) == [0, 0b001, 0b100, 0b101]


def test_a_level_above_n_stops_at_the_full_powerset():
    # no subset of n items has more than n of them: t = 10**9 would
    # otherwise sum 10**9 binomials and run 10**9 enumeration rounds
    assert count_p_t(5, 10**9) == 32
    assert family_p_t(3, 10**9) == family_p_t(3, 3)


def test_closed_under_shifting():
    n, s = 4, 0b0011
    closed = tuple(a for a in range(1 << n) if (a & ~s).bit_count() <= 1)
    assert is_closed_under_shifting(closed, s)
    # any iterable of masks will do, a one-pass generator too
    assert is_closed_under_shifting(set(closed), s)
    assert is_closed_under_shifting((a for a in closed), s)
    assert not is_closed_under_shifting(family_p_t(4, 2), s)
    assert not is_closed_under_shifting(iter(family_p_t(4, 2)), s)


def test_setvector_lookup_semantics():
    y = SetVector(3, {0: Q(1), 0b1: Q(1, 2)})
    assert y[0b1] == Q(1, 2)
    with pytest.raises(KeyError):
        y[0b10]
    assert extend(y)[0b10] == 0
    assert y.get(0b10) == 0


def test_project_and_restrict_reindex():
    y = SetVector(3, {m: Q(m + 1) for m in range(8)})
    r = restrict_reindex(y, 0b101)  # keep items 0 and 2, relabeled 0 and 1
    assert r.n == 2
    assert r[0b10] == y[0b100]
    assert r[0b11] == y[0b101]


def test_signed_base_is_the_assignment_indicator():
    # B(X, S\X) as a polynomial: at a 0/1 point, the coefficients of the
    # monomials inside the point sum to 1 exactly when it agrees with X on S
    n = 4
    for s in range(1 << n):
        for x in submasks(s):
            coeffs = signed_base(x, s & ~x)
            for point in range(1 << n):
                expected = Q(1) if point & s == x else Q(0)
                assert sum((c for m, c in coeffs.items() if m & ~point == 0),
                           Q(0)) == expected


def test_z_vector_requires_x_inside_s():
    with pytest.raises(ValueError, match="X must be a subset of S"):
        z_vector(SetVector(2, {}, extended=True), 0b01, 0b10)


def test_shift_by_empty_set_indicator_is_identity(rng):
    y = rand_setvector(rng, 3)
    delta = SetVector(3, {0: Q(1)}, extended=True)
    assert shift(delta, y) == y


def test_shift_commutativity_small(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        x, y, z = (rand_setvector(rng, n) for _ in range(3))
        assert shift(x, shift(y, z)) == shift(y, shift(x, z))


def test_z_vector_matches_dense_shift(rng):
    n = 3
    y = rand_setvector(rng, n)
    for s in range(1 << n):
        for x in submasks(s):
            as_vector = SetVector(n, signed_base(x, s & ~x), extended=True)
            assert shift(as_vector, y) == z_vector(y, s, x)


def test_z_vector_matches_definition(rng):
    n, s, x = 4, 0b0110, 0b0010
    y = rand_setvector(rng, n)
    z = z_vector(y, s, x)
    for i in range(1 << n):
        expected = sum(
            (Q(-1 if (j & ~x).bit_count() % 2 else 1) * y[i | j]
             for j in submasks(s) if j & x == x), Q(0))
        assert z[i] == expected


def test_z_vector_requires_extension():
    y = SetVector(2, {m: Q(1) for m in range(4)})
    with pytest.raises(ValueError):
        z_vector(y, 0b01, 0b01)


def test_moment_matrix_entries_and_symmetry(rng):
    y = rand_setvector(rng, 3)
    fam = family_p_t(3, 1)
    mat = moment_matrix(y, fam)
    for i, a in enumerate(fam):
        for j, b in enumerate(fam):
            assert mat[i][j] == y[a | b]
            assert mat[i][j] == mat[j][i]
    # entries and their types are those of y[I u J]: ZERO for a missing
    # entry of an extended vector, the same KeyError for a non-extended one
    for n, t in ((4, 2), (5, 2)):
        fam = family_p_t(n, t)
        full = rand_setvector(rng, n)
        sparse = SetVector(n, {m: v for m, v in full.values.items()
                               if rng.random() < 0.6}, extended=True)
        for y in (full, sparse):
            expected = [[y[a | b] for b in fam] for a in fam]
            got = moment_matrix(y, fam)
            assert got == expected
            assert [[type(v) for v in row] for row in got] == \
                [[type(v) for v in row] for row in expected]
    partial = SetVector(2, {0: Q(1), 0b01: Q(1, 2), 0b10: Q(1, 3)})
    with pytest.raises(KeyError, match=r"subset \[0, 1\] outside support of "
                                       r"non-extended vector"):
        moment_matrix(partial, family_p_t(2, 1))


def test_setvector_json_round_trip(rng):
    y = SetVector(4, {0: Q(1), 0b101: Q(-3, 7), 0b1: Q(2)})
    text = setvector_to_json(y)
    back = setvector_from_json(text, 4)
    assert back == y
    keys = list(json.loads(text))
    assert "[0, 2]" in keys


def test_setvector_json_rejects_out_of_range():
    with pytest.raises(ValueError):
        setvector_from_json('{"[5]": "1"}', 3)


def test_ground_set_cap():
    with pytest.raises(ValueError):
        SetVector(64, {})
    with pytest.raises(ValueError, match="ground set too large"):
        family_p_t(64, 1)
    with pytest.raises(ValueError):
        shift(rand_setvector(random.Random(0), 2),
              SetVector(3, {}, extended=True))
    big = SetVector(21, {}, extended=True)
    with pytest.raises(ValueError, match="dense shift capped"):
        shift(big, big)
    with pytest.raises(ValueError, match="default full-power-set support"):
        z_vector(big, 0b1, 0b1)
    full = rand_setvector(random.Random(0), 2)
    partial = SetVector(2, {0: Q(1)})
    with pytest.raises(ValueError, match="x must be extended"):
        shift(partial, full)
    with pytest.raises(ValueError, match="y must be extended"):
        shift(full, partial)
