import itertools
import math
import random
from fractions import Fraction

import numpy as np

from liftlab import (Q, SetVector, family_p_t, moment_matrix, project_psd,
                     psd_exact)
from liftlab.psd import psd_exact_witness

from conftest import rand_rat


def exact_det(rows):
    # fraction-exact determinant by elimination with row swaps
    m = [[Fraction(x.numerator, x.denominator) for x in r] for r in rows]
    d = len(m)
    det = Fraction(1)
    for i in range(d):
        pivot = next((r for r in range(i, d) if m[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, d):
            f = m[r][i] / m[i][i]
            for c in range(i, d):
                m[r][c] -= f * m[i][c]
    return det


def psd_by_principal_minors(rows):
    # textbook characterization: PSD iff every principal minor is >= 0
    d = len(rows)
    for size in range(1, d + 1):
        for idx in itertools.combinations(range(d), size):
            sub = [[rows[i][j] for j in idx] for i in idx]
            if exact_det(sub) < 0:
                return False
    return True


def test_known_matrices():
    assert psd_exact([[Q(2), Q(1)], [Q(1), Q(2)]])
    assert not psd_exact([[Q(1), Q(2)], [Q(2), Q(1)]])
    assert psd_exact([[Q(0), Q(0)], [Q(0), Q(0)]])
    assert psd_exact([[Q(1), Q(1)], [Q(1), Q(1)]])  # rank one, singular
    assert not psd_exact([[Q(-1)]])
    assert psd_exact([])


def test_zero_pivot_rule():
    # a zero diagonal entry with a nonzero row refutes PSD even though
    # every leading principal minor is zero
    assert not psd_exact([[Q(0), Q(1)], [Q(1), Q(1)]])
    assert not psd_exact([[Q(0), Q(1)], [Q(1), Q(0)]])
    assert psd_exact([[Q(0), Q(0)], [Q(0), Q(1)]])


def test_witness_is_negative_on_rejection():
    ok, bad = psd_exact_witness([[Q(1), Q(2)], [Q(2), Q(1)]])
    assert not ok and bad < 0


def test_accepts_moment_matrix_objects():
    y = SetVector(2, {m: Q(1) for m in range(4)})
    assert psd_exact(moment_matrix(y, family_p_t(2, 1)))


def test_exact_matches_principal_minor_oracle():
    rng = random.Random(4242)
    for _ in range(120):
        d = rng.randint(1, 4)
        if rng.random() < 0.5:
            a = [[rand_rat(rng, -3, 3) for _ in range(d)] for _ in range(d)]
            rows = [[sum((a[k][i] * a[k][j] for k in range(d)), Q(0))
                     for j in range(d)] for i in range(d)]  # Gram, PSD
        else:
            rows = [[Q(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = rand_rat(rng, -3, 3)
        assert psd_exact(rows) == psd_by_principal_minors(rows)


def fraction_witness(rows):
    """Symmetric elimination on Fractions, entry by entry: the oracle that
    psd_exact_witness's verdicts and offending values are checked against."""
    m = [[Fraction(v.numerator, v.denominator) for v in r] for r in rows]
    d = len(m)
    for i in range(d):
        row = m[i]
        p = row[i]
        if p < 0:
            return False, p
        if p == 0:
            for j in range(i + 1, d):
                if row[j] != 0:
                    return False, row[j]
            continue
        for j in range(i + 1, d):
            f = row[j]
            if f == 0:
                continue
            f = f / p
            rj = m[j]
            for k in range(j, d):
                if row[k] != 0:
                    rj[k] = rj[k] - f * row[k]
    return True, None


def _oracle_case(rng, shape):
    """A symmetric Fraction matrix of dimension 1..8 of the given shape."""
    d = rng.randint(1, 8)
    # a Gram matrix A^T A of rank at most r: PSD, singular when r < d
    r = rng.randint(1, d)
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(d)]
         for _ in range(r)]
    rows = [[sum((a[k][i] * a[k][j] for k in range(r)), Fraction(0))
             for j in range(d)] for i in range(d)]
    if shape == "perturbed":
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] = rows[j][i] = rows[i][j] + Fraction(rng.choice((-1, 1)),
                                                        rng.randint(1, 7))
    elif shape == "zero pivot":
        # a zero diagonal entry whose row is zero, or has one non-zero entry
        i = rng.randrange(d)
        for j in range(d):
            rows[i][j] = rows[j][i] = Fraction(0)
        if d > 1 and rng.random() < 0.5:
            j = rng.choice([j for j in range(d) if j != i])
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 5), rng.randint(1, 7))
    return rows


def test_integer_elimination_matches_the_fraction_oracle():
    rng = random.Random(20261019)
    verdicts = {}
    for case in range(2400):
        shape = ("gram", "perturbed", "zero pivot")[case % 3]
        rows = _oracle_case(rng, shape)
        form = ("fraction", "int", "mixed")[case // 3 % 3]
        if form == "int":  # cleared by the lcm: the same verdict, scaled values
            den = math.lcm(*(v.denominator for r in rows for v in r))
            rows = [[int(v * den) for v in r] for r in rows]
        elif form == "mixed":
            rows = [[int(v) if v.denominator == 1 and rng.random() < 0.5 else v
                     for v in r] for r in rows]
        expected = fraction_witness(rows)
        got = psd_exact_witness(rows)
        assert got == expected, (shape, form, rows)
        if not got[0]:
            assert type(got[1]) is Q
        verdicts[shape, got[0]] = verdicts.get((shape, got[0]), 0) + 1
    # Gram matrices are PSD; the other two shapes give both verdicts
    assert all(verdicts.get((shape, ok), 0) >= 50
               for shape in ("perturbed", "zero pivot") for ok in (True, False))
    assert verdicts.get(("gram", False), 0) == 0


def test_project_psd():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = project_psd(mat)
    assert np.linalg.eigvalsh(proj)[0] >= -1e-12
    already = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(project_psd(already), already)
