"""Optimizers over the lifted polytopes.

sa_value: exact rational simplex over the linear SA system (reduced by
item permutations on uniform instances).
lasserre_value: bisection on the objective with alternating projections
onto the moment and capacity-localizer PSD blocks; its result is a
numerical LOWER estimate of the Lasserre optimum (it can corroborate
upper bounds, never refute them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import _capacity_row, _disjoint_pairs, _signed_base
from .knapsack import (KnapsackInstance, capacity_constraint, greedy,
                       lp_value, opt_solution)
from .psd import project_psd
from .rationals import Q, ZERO, rat_str
from .simplex import LPProblem, simplex_exact
from .subsets import count_p_t, family_p_t

# rows x variables of the dense SA LP (`sa_lp_size`). Measured on a 2-core
# x86-64 box: n=12/t=3 (603,152) solves in 42 s, n=13/t=3 (980,200) in 148 s
SA_DENSE_CAP = 700_000
LASSERRE_DIM_CAP = 400
FEAS_TOL = 1e-7


def sa_lp_problem(inst: KnapsackInstance, t: int) -> LPProblem:
    """The level-t SA system as an LP over y (y_0 substituted by 1).

    Only the rows of maximal (I, J) pairs are kept: the capacity rows
    with |I u J| = t - 1 and the base rows B(I, J) >= 0 with
    |I u J| = t. Every lower-level inequality is the sum of two
    one-level-higher ones (split a fresh item into I or J), so the
    feasible set is that of the full system.
    """
    n = inst.n
    problem = LPProblem({1 << i: inst.values[i] for i in range(n)})

    def add_geq0(coeffs: dict):
        const = coeffs.pop(0, ZERO)
        coeffs = {m: c for m, c in coeffs.items() if c != 0}
        if coeffs:
            problem.add(coeffs, ">=", -const)
        elif const < 0:
            raise AssertionError(f"constant row infeasible: {const} >= 0")

    for i_mask, j_mask in _disjoint_pairs(n, min(t - 1, n)):
        add_geq0(_capacity_row(inst, i_mask, j_mask))
    for i_mask, j_mask in _disjoint_pairs(n, min(t, n)):
        add_geq0(_signed_base(i_mask, j_mask))
    return problem


def _uniform_sa_problem(inst: KnapsackInstance, t: int) -> LPProblem:
    """The level-t SA LP of a uniform instance in Moebius coordinates.

    Permuting items maps the LP onto itself and keeps the objective, so
    the average of an optimal y over all permutations is optimal
    (Gatermann-Parrilo 2004), and its base values B(I, U\\I), |U| = T,
    depend only on |I| = i: call them z_i. Conversely every z >= 0 that
    meets the rows below defines y_K = sum_j C(T-|K|, j-|K|) z_j, the
    same for every U containing K, at which each dense row reads as one
    of them. So the two LPs have the same optimum. With T = min(t, n),
    sizes c, values v and C' = C / c:
    - y_0 = 1 reads sum_i C(T, i) z_i = 1;
    - the objective v * sum_k y_k reads n v sum_{j>=1} C(T-1, j-1) z_j;
    - the capacity row at |I u J| = T - 1, |I| = i (`hierarchy._capacity_row`,
      divided by c) is C' B(I, J) minus B(I, J) for each item in I, nothing
      for each item in J, and B(I u k, J) = z_{i+1} for each of the
      n - T + 1 items k outside I u J; with B(I, J) = z_i + z_{i+1} (put
      one such k into I or into J) it reads
      (C' - i) z_i + (C' - i - n + T - 1) z_{i+1} >= 0;
    - for t > n the dense LP has its capacity rows at |I u J| = n, where
      no item is outside: (C' - i) z_i >= 0.
    """
    n = inst.n
    top = min(t, n)
    ratio = inst.capacity / inst.sizes[0]
    problem = LPProblem({j: n * inst.values[0] * math.comb(top - 1, j - 1)
                         for j in range(1, top + 1)})
    problem.add({i: Q(math.comb(top, i)) for i in range(top + 1)}, "==", 1)
    for i in range(min(t - 1, n) + 1):
        row = {i: ratio - i}
        if t <= n:
            row[i + 1] = ratio - i - (n - top + 1)
        row = {j: c for j, c in row.items() if c != 0}
        if row:
            problem.add(row, ">=", 0)
    return problem


def sa_lp_size(n: int, t: int) -> tuple:
    """(rows, variables) of `sa_lp_problem` at n items and level t.

    Each k-set U splits into 2^k pairs (I, J): the capacity rows come from
    k = min(t-1, n), the base rows from k = min(t, n); the variables are the
    nonempty sets of size <= t. Rows that vanish identically are dropped,
    so the row count is an upper bound.
    """
    rows = sum(math.comb(n, k) << k for k in (min(t - 1, n), min(t, n)))
    return rows, count_p_t(n, t) - 1


def check_sa_size(inst: KnapsackInstance, t: int) -> None:
    """Raise ValueError if sa_value(inst, t) would need a dense LP with rows
    x variables above SA_DENSE_CAP; uniform instances never do."""
    if inst.is_uniform():
        return
    rows, nvars = sa_lp_size(inst.n, t)
    if rows * nvars > SA_DENSE_CAP:
        raise ValueError(f"dense SA LP at n={inst.n}, t={t} has {rows} rows x "
                         f"{nvars} variables, over {SA_DENSE_CAP}")


def check_lasserre_size(inst: KnapsackInstance, t: int) -> None:
    """Raise ValueError if lasserre_value(inst, t) would need a moment
    matrix of dimension above LASSERRE_DIM_CAP."""
    if count_p_t(inst.n, t) > LASSERRE_DIM_CAP:
        raise ValueError(f"moment-matrix dimension at n={inst.n}, t={t} "
                         f"exceeds {LASSERRE_DIM_CAP}")


def sa_value(inst: KnapsackInstance, t: int):
    """Exact optimum of the level-t linear SA relaxation.

    On a uniform instance (equal sizes, equal values) the LP is solved
    in t + 1 orbit variables (`_uniform_sa_problem`) at any n; otherwise
    the dense LP `sa_lp_problem` is solved (see `check_sa_size`).
    """
    if t < 1:
        raise ValueError("level t must be >= 1")
    check_sa_size(inst, t)
    problem = (_uniform_sa_problem(inst, t) if inst.is_uniform()
               else sa_lp_problem(inst, t))
    value, _ = simplex_exact(problem)
    return value


@dataclass
class LasserreEstimate:
    value: float                 # objective of the best near-feasible point
    point: dict                  # mask -> float
    residual: float              # feasibility residual of that point
    sweeps: int                  # total projection sweeps spent
    bisections: int
    tol: float
    notes: list = field(default_factory=list)

    def describe(self) -> str:
        msg = (f"lasserre lower estimate {self.value:.6f} "
               f"(residual {self.residual:.2e}, {self.sweeps} sweeps, "
               f"{self.bisections} bisection steps, tol {self.tol:g})")
        return "\n".join([msg] + [f"  note: {n}" for n in self.notes])


class _BlockData:
    """Precomputed index arrays for one PSD block M_F(g*y)."""

    def __init__(self, masks_index, family, g):
        fam = family.masks
        d = len(fam)
        unions = sorted({fam[a] | fam[b] for a in range(d) for b in range(a, d)},
                        key=lambda m: (m.bit_count(), m))
        upos = {m: i for i, m in enumerate(unions)}
        self.upos_matrix = np.array([[upos[a | b] for b in fam] for a in fam],
                                    dtype=np.intp)
        self.union_counts = np.bincount(self.upos_matrix.ravel(),
                                        minlength=len(unions)).astype(float)
        self.nunions = len(unions)
        if g is None:  # plain moment block: entries are y_K directly
            self.row_coords = None
            self.iy = np.array([masks_index[m] for m in unions], dtype=np.intp)
            return
        # g*y rows: (g*y)_K = offset*y_K + sum_i a_i y_{K u i}
        terms = [(1 << i, float(a)) for i, a in enumerate(g.coefficients) if a != 0]
        offset = float(g.offset)
        coords, coefs, invn = [], [], []
        for m in unions:
            cmap = {masks_index[m]: offset}
            for bit, a in terms:
                j = masks_index[m | bit]
                cmap[j] = cmap.get(j, 0.0) + a
            cs = np.array(list(cmap.keys()), dtype=np.intp)
            cf = np.array(list(cmap.values()))
            coords.append(cs)
            coefs.append(cf)
            norm2 = float(cf @ cf)
            # (g*y)_K vanishes identically only when K = V and C = cost(V);
            # such a row carries no degree of freedom to correct
            invn.append(1.0 / norm2 if norm2 else 0.0)
        self.row_coords = coords
        self.row_coefs = coefs
        self.row_invnorm = invn

    def values(self, y):
        if self.row_coords is None:
            return y[self.iy]
        return np.array([cf @ y[cs] for cs, cf in
                         zip(self.row_coords, self.row_coefs)])

    def project(self, y):
        """One projection pass: clamp the block to PSD, push y toward it."""
        u = self.values(y)
        mat = u[self.upos_matrix]
        target = project_psd(mat)
        tvals = np.bincount(self.upos_matrix.ravel(), target.ravel(),
                            minlength=self.nunions) / self.union_counts
        if self.row_coords is None:
            y[self.iy] = tvals
            return
        for r in range(self.nunions):  # Kaczmarz sweep onto (g*y)_K = target_K
            cs, cf = self.row_coords[r], self.row_coefs[r]
            resid = tvals[r] - cf @ y[cs]
            if resid:
                y[cs] += (resid * self.row_invnorm[r]) * cf

    def min_eig(self, y):
        mat = self.values(y)[self.upos_matrix]
        return float(np.linalg.eigvalsh(mat)[0])


class _LasserreWorkspace:
    def __init__(self, inst: KnapsackInstance, t: int):
        n = inst.n
        self.masks = family_p_t(n, 2 * t).masks
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.card = np.array([m.bit_count() for m in self.masks], dtype=np.intp)
        self.card_counts = np.bincount(self.card).astype(float)
        self.symmetric = inst.is_uniform()
        self.singles = np.array([self.index[1 << i] for i in range(n)], dtype=np.intp)
        self.obj_vec = np.array([float(v) for v in inst.values])
        self.obj_norm2 = float(self.obj_vec @ self.obj_vec)
        self.blocks = [_BlockData(self.index, family_p_t(n, t), None),
                       _BlockData(self.index, family_p_t(n, t - 1),
                                  capacity_constraint(inst))]

    def symmetrize(self, y):
        if self.symmetric:  # orbit average over item permutations
            means = np.bincount(self.card, y) / self.card_counts
            y[:] = means[self.card]

    def objective(self, y) -> float:
        return float(self.obj_vec @ y[self.singles])

    def project_affine(self, y, tau):
        y[0] = 1.0
        np.clip(y, 0.0, 1.0, out=y)
        obj = self.objective(y)
        if obj < tau:
            y[self.singles] += (tau - obj) / self.obj_norm2 * self.obj_vec
            np.clip(y, 0.0, 1.0, out=y)
            y[0] = 1.0
        self.symmetrize(y)

    def residual(self, y, tau) -> float:
        affine = max(abs(y[0] - 1.0),
                     float(max(0.0, np.max(y - 1.0), np.max(-y))),
                     max(0.0, tau - self.objective(y)))
        eig = max((max(0.0, -b.min_eig(y)) for b in self.blocks))
        return max(affine, eig)

    def feasibility(self, tau, start, max_sweeps):
        """Alternating projections; returns (feasible, point, residual, sweeps)."""
        y = start.copy()
        best_resid = math.inf
        best_y = y.copy()
        stall = 0
        check_every = 10
        for sweep in range(1, max_sweeps + 1):
            self.project_affine(y, tau)
            for block in self.blocks:
                block.project(y)
                self.symmetrize(y)
            if sweep % check_every:
                continue
            probe = y.copy()
            self.project_affine(probe, tau)
            resid = self.residual(probe, tau)
            if resid < best_resid * (1.0 - 1e-3):
                stall = 0
            else:
                stall += 1
            if resid < best_resid:
                best_resid = resid
                best_y = probe
            if resid < FEAS_TOL:
                return True, probe, resid, sweep
            if stall >= 30:  # no 0.1% progress over 300 sweeps
                return False, best_y, best_resid, sweep
        return False, best_y, best_resid, max_sweeps


def lasserre_value(inst: KnapsackInstance, t: int, tol: float = 1e-4,
                   max_sweeps: int = 50000) -> LasserreEstimate:
    """Approximate level-t Lasserre optimum by bisection on the objective.

    Feasibility of {objective >= tau} within the lifted polytope is
    tested with cyclic projections onto the blocks M_{P_t}(y) and
    M_{P_{t-1}}(g*y) for the capacity g (eigenvalue clamping) and the
    affine/box set (closed form); tau counts as reachable only when the
    combined residual drops below FEAS_TOL. The returned value is the
    objective of the best near-feasible point: a lower estimate. It starts
    from an optimal 0/1 point, or from the greedy one where `opt_solution`
    refuses the instance (non-uniform, over 24 items). The box localizers
    are congruences P^T M P, Q^T M Q of the moment matrix M with
    ||P||^2 = ||Q||^2 = 2 (see `lasserre_membership`), so their smallest
    eigenvalues stay above -2 * FEAS_TOL without a block.

    On a uniform instance (equal sizes, equal values) each iterate is
    averaged over item permutations (Gatermann-Parrilo 2004). They map
    the feasible set onto itself and keep the objective, so the average
    of a feasible point is feasible and has the same value.
    """
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    check_lasserre_size(inst, t)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    ws = _LasserreWorkspace(inst, t)

    try:
        sol, start_val = opt_solution(inst)
        start = "the integer optimum"
    except ValueError:  # no exact search at this n; any feasible 0/1 point will do
        sol, start_val = greedy(inst)
        start = "the greedy value"
    best_point = np.array([float(m & ~sol.chosen == 0) for m in ws.masks])
    lo = float(start_val)
    hi = float(lp_value(inst))
    sweeps_total = 0
    bisections = 0
    moved = False
    notes = ["lower estimate: alternating projections corroborate upper "
             "bounds, they cannot refute them"]
    if ws.symmetric:
        notes.append("iterates averaged over item permutations: the "
                     "instance is uniform")
    while hi - lo > tol:
        bisections += 1
        tau = (lo + hi) / 2.0
        ok, point, resid, sweeps = ws.feasibility(tau, best_point, max_sweeps)
        sweeps_total += sweeps
        if not ok and sweeps >= max_sweeps:
            notes.append(f"sweep budget exhausted at tau={tau:.6f} "
                         f"(last residual {resid:.2e})")
        if ok:
            moved = True
            best_point = point
            lo = max(tau, ws.objective(point))
        else:
            hi = tau
    if not moved:
        notes.append(f"no bisection step reached feasibility: the estimate "
                     f"is {start} {rat_str(start_val)}")
    final_resid = ws.residual(best_point, 0.0)
    return LasserreEstimate(
        value=ws.objective(best_point),
        point={m: float(best_point[i]) for i, m in enumerate(ws.masks)},
        residual=final_resid,
        sweeps=sweeps_total,
        bisections=bisections,
        tol=tol,
        notes=notes,
    )
