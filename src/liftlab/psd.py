"""Positive-semidefiniteness tests: exact rational and floating point.

The exact test is symmetric Gaussian elimination with the zero-pivot
row/column rule (leading principal minors alone do not characterize
PSD). The floating-point side is backed by numpy's symmetric
eigensolver behind the same contracts. numpy is imported on first float
use, inside each float helper, so the exact side never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the annotations' np; the float helpers import it at run time
    import numpy as np


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
    """Like psd_exact but also returns the offending value on failure."""
    d = len(rows)
    # only the upper triangle is maintained; the Schur complement stays symmetric
    m = [list(r) for r in rows]
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


def _check_symmetric(mat: np.ndarray):
    import numpy as np
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    # symmetrize from the lower triangle so tiny asymmetries cannot leak in
    low = np.tril(mat)
    return low + low.T - np.diag(np.diag(mat))


def min_eigenvalue(mat: np.ndarray) -> float:
    import numpy as np
    sym = _check_symmetric(mat)
    try:
        return float(np.linalg.eigvalsh(sym)[0])
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def psd_float(mat: np.ndarray, tol: float) -> bool:
    """True iff the minimum eigenvalue is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return min_eigenvalue(mat) >= -tol


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


def matrix_to_float(rows) -> np.ndarray:
    """Convert a rational row list to a float numpy array."""
    import numpy as np
    return np.array([[float(x) for x in r] for r in rows], dtype=float)
