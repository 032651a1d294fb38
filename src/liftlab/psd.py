"""Positive-semidefiniteness: the exact test and a float projection.

The exact test is symmetric Gaussian elimination with the zero-pivot
row/column rule (leading principal minors alone do not characterize
PSD). `project_psd` clamps the spectrum of numpy's symmetric
eigensolver; it imports numpy on first use, so the exact side never
loads it.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING

from .rationals import Q

if TYPE_CHECKING:  # the annotations' np; project_psd imports it at run time
    import numpy as np


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


class EigenConvergenceError(RuntimeError):
    """Symmetric eigensolver failed to converge within its iteration budget."""


def psd_exact(rows) -> bool:
    """Exact PSD decision for a symmetric matrix of rationals.

    Takes a list of row lists. Recursively: a positive leading diagonal
    entry is pivoted and eliminated; a zero diagonal entry requires its
    whole row to be zero; a negative one refutes PSD.
    """
    ok, _ = psd_exact_witness(rows)
    return ok


def psd_exact_witness(rows):
    """Like psd_exact but also returns the offending value on failure.

    Fraction-free: the entries are scaled once by the lcm of their
    denominators, a positive scaling that keeps the verdict. Row i of the
    Schur complement then holds integer numerators over its own positive
    denominator den_i, and only its upper part, columns i.. of the
    matrix, is kept (the complement stays symmetric). Pivoting row i, of
    pivot p, into row j, whose column-j entry in row i is f, rewrites the
    row j as a * row_j - b * row_i over den_j * a, with a = p * den_i and
    b = f * den_j both divided by their gcd, then divides the row by the
    gcd of its numerators and denominator. The pivots, the zero-pivot rule
    and the offending value are those of elimination on rationals.
    """
    upper = [r[i:] for i, r in enumerate(rows)]
    scale = math.lcm(*set().union(*(map(_denominator, r) for r in upper)))
    if scale == 1:
        tails = [list(map(_numerator, r)) for r in upper]
    else:
        tails = [[v.numerator * (scale // v.denominator) for v in r] for r in upper]
    dens = [1] * len(tails)
    for i, row in enumerate(tails):
        p, den = row[0], dens[i]
        if p < 0:
            return False, Q(p, den * scale)
        if p == 0:
            for f in row:
                if f != 0:
                    return False, Q(f, den * scale)
            continue
        for off in range(1, len(row)):
            f = row[off]
            if f == 0:
                continue
            j = i + off
            a, b = p * den, f * dens[j]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            new = [a * u - b * v for u, v in zip(tails[j], row[off:])]
            dj = dens[j] * a
            g = math.gcd(dj, *new)
            if g > 1:
                new, dj = [u // g for u in new], dj // g
            tails[j], dens[j] = new, dj
    return True, None


def _check_symmetric(mat: np.ndarray):
    import numpy as np
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    # symmetrize from the lower triangle so tiny asymmetries cannot leak in
    low = np.tril(mat)
    return low + low.T - np.diag(np.diag(mat))


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues to 0."""
    import numpy as np
    sym = _check_symmetric(mat)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    if vals[0] >= 0:
        return sym
    clipped = np.clip(vals, 0.0, None)
    out = (vecs * clipped) @ vecs.T
    return (out + out.T) / 2.0
