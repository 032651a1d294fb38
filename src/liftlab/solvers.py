"""Optimizers over the lifted polytopes.

sa_value: exact rational simplex over the linear SA system.
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
from .knapsack import (KnapsackInstance, capacity_constraint, lp_value,
                       opt_solution)
from .psd import project_psd
from .rationals import ZERO, rat_str
from .simplex import LPProblem, simplex_exact
from .subsets import count_p_t, family_p_t

SA_VARIABLE_CAP = 2000
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


def sa_value(inst: KnapsackInstance, t: int):
    """Exact optimum of the level-t linear SA relaxation."""
    if t < 1:
        raise ValueError("level t must be >= 1")
    if count_p_t(inst.n, t) > SA_VARIABLE_CAP:
        raise ValueError(f"variable count exceeds {SA_VARIABLE_CAP}")
    value, _ = simplex_exact(sa_lp_problem(inst, t))
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
        self.dim = d
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
    def __init__(self, inst: KnapsackInstance, t: int, symmetry: bool):
        n = inst.n
        if symmetry and not inst.is_uniform():
            raise ValueError("symmetry flag requires a uniform instance")
        self.masks = family_p_t(n, 2 * t).masks
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.card = np.array([m.bit_count() for m in self.masks], dtype=np.intp)
        self.card_counts = np.bincount(self.card).astype(float)
        self.symmetry = symmetry
        self.singles = np.array([self.index[1 << i] for i in range(n)], dtype=np.intp)
        self.obj_vec = np.array([float(v) for v in inst.values])
        self.obj_norm2 = float(self.obj_vec @ self.obj_vec)
        self.blocks = [_BlockData(self.index, family_p_t(n, t), None),
                       _BlockData(self.index, family_p_t(n, t - 1),
                                  capacity_constraint(inst))]

    def symmetrize(self, y):
        if self.symmetry:
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

    def integer_point(self, sol) -> np.ndarray:
        return np.array([float(m & ~sol.chosen == 0) for m in self.masks])

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
                   symmetry: bool = False, max_sweeps: int = 50000) -> LasserreEstimate:
    """Approximate level-t Lasserre optimum by bisection on the objective.

    Feasibility of {objective >= tau} within the lifted polytope is
    tested with cyclic projections onto the blocks M_{P_t}(y) and
    M_{P_{t-1}}(g*y) for the capacity g (eigenvalue clamping) and the
    affine/box set (closed form); tau counts as reachable only when the
    combined residual drops below FEAS_TOL. The returned value is the
    objective of the best near-feasible point: a lower estimate. The box
    localizers are congruences P^T M P, Q^T M Q of the moment matrix M
    with ||P||^2 = ||Q||^2 = 2 (see `lasserre_membership`), so their
    smallest eigenvalues stay above -2 * FEAS_TOL without a block.
    """
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    if count_p_t(inst.n, t) > LASSERRE_DIM_CAP:
        raise ValueError(f"moment-matrix dimension exceeds {LASSERRE_DIM_CAP}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    ws = _LasserreWorkspace(inst, t, symmetry)

    sol, opt_val = opt_solution(inst)
    best_point = ws.integer_point(sol)
    lo = float(opt_val)
    hi = float(lp_value(inst))
    sweeps_total = 0
    bisections = 0
    moved = False
    notes = ["lower estimate: alternating projections corroborate upper "
             "bounds, they cannot refute them"]
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
                     f"is the integer optimum {rat_str(opt_val)}")
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


@dataclass(frozen=True)
class GapRow:
    t: int
    value: object          # exact rational (SA) or float (Lasserre)
    ratio: object
    status: str            # "exact" | "approx"
    residual: float = 0.0

    def value_str(self) -> str:
        return rat_str(self.value) if self.status == "exact" \
            else f"{self.value:.10g}"


def gap_table(inst: KnapsackInstance, t_max: int, mode: str,
              tol: float = 1e-4, symmetry: bool = False) -> list[GapRow]:
    """Per-level relaxation values and their ratio to the integer optimum."""
    if mode not in ("sa", "lasserre"):
        raise ValueError("mode must be 'sa' or 'lasserre'")
    opt = opt_solution(inst)[1]
    rows = []
    for t in range(1, t_max + 1):
        if mode == "sa":
            val = sa_value(inst, t)
            rows.append(GapRow(t, val, val / opt, "exact"))
        else:
            est = lasserre_value(inst, t, tol=tol, symmetry=symmetry)
            rows.append(GapRow(t, est.value, est.value / float(opt),
                               "approx", est.residual))
    return rows
