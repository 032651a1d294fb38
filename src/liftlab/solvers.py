"""Optimizers over the lifted polytopes.

sa_value: exact rational simplex over the linear SA system (reduced by
item permutations on uniform instances).
lasserre_value: damped Newton steps along the central path of a log-det
barrier on the moment and capacity-localizer blocks (Schrijver's blocks on
uniform instances); its result is the objective of a strictly feasible point, a
numerical LOWER estimate of the Lasserre optimum (it can corroborate upper
bounds, never refute them). numpy is imported on first float use, inside the
barrier path's functions, so the exact side never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .hierarchy import (_capacity_row, _capacity_shift, _dense_matrices,
                        _disjoint_pairs, _orbit_layout, _orbit_matrices)
from .knapsack import KnapsackInstance, greedy, opt_solution
from .psd import project_psd  # noqa: F401  unused here; perfbench/spans.py wraps it
from .rationals import Q, ZERO, integer_row, rat_str
from .simplex import LPProblem, simplex_exact
from .subsets import SetVector, count_p_t, family_p_t, indices_of, signed_base

# rows x variables of the dense SA LP (`sa_lp_size`). Measured on a 2-core
# x86-64 box, sizes 1 and one 3/2, capacity 19/10: n=12/t=3 (537,592)
# solves in 32 s, n=13/t=3 (872,378) in 89 s
SA_DENSE_CAP = 700_000
# rows of Schrijver's blocks that `lasserre_value` factors on a uniform
# instance, (t+1)^2 once n >= 2t: t <= 19 at any n
LASSERRE_DIM_CAP = 400
# floats in the dense moment-block tensor, |P_2t| x |P_t|^2 (`lasserre_value`
# off the uniform family). Measured on a 2-core x86-64 box at the default
# tol: n=8/t=3 (2,136,303; sizes 2..9, values 3..10, capacity 21) solves in
# 7 s, n=11/t=2 (2,522,818; sizes 1 and one 3/2, capacity 19/10) in 22 s,
# n=12/t=2 (4,955,354, the same data) in 99 s; n=12/t=3 would hold
# 224,396,510 (1.8 GB)
LASSERRE_DENSE_CAP = 3_000_000


def sa_lp_problem(inst: KnapsackInstance, t: int) -> LPProblem:
    """The level-t SA system as an LP over y (y_0 substituted by 1).

    Only the rows of maximal (I, J) pairs are kept: the capacity rows
    with |I u J| = t - 1 and the base rows B(I, J) >= 0 with
    |I u J| = t. Every lower-level inequality is the sum of two
    one-level-higher ones (split a fresh item into I or J), so the
    feasible set is that of the full system.

    The base rows B(U, 0) >= 0 read y_U >= 0, which the simplex keeps
    for every variable, so they are left out, and the pivots are those
    of the LP with them. Every row holds at y = 0 (each constant is 0, 1
    or C >= 0), which `simplex_exact` needs: it starts from the
    all-slack basis there. The slack s of a left-out row never leaves:
    while y_U is nonbasic, s = y_U has no negative entry; once y_U is
    basic, s has y_U's own row, ties it in every ratio test and loses
    the tie to y_U's smaller index.

    Rows come from `signed_base` and `_capacity_row`, so an instance
    with integral capacity and sizes gives int coefficients throughout.
    """
    n = inst.n
    problem = LPProblem({1 << i: inst.values[i] for i in range(n)})

    def add_geq0(coeffs: dict):
        const = coeffs.pop(0, 0)
        coeffs = {m: c for m, c in coeffs.items() if c != 0}
        if coeffs:
            problem.add(coeffs, ">=", -const)
        elif const < 0:
            raise AssertionError(f"constant row infeasible: {const} >= 0")

    for i_mask, j_mask in _disjoint_pairs(n, min(t - 1, n)):
        add_geq0(_capacity_row(inst, i_mask, j_mask))
    for i_mask, j_mask in _disjoint_pairs(n, min(t, n)):
        if j_mask:  # B(U, 0) >= 0 is y_U >= 0
            add_geq0(signed_base(i_mask, j_mask))
    return problem


def _uniform_sa_problem(inst: KnapsackInstance, t: int) -> LPProblem:
    """The level-t SA LP of a uniform instance in level masses.

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
    Scaling variables and rows by positive factors keeps the optimum, so
    the LP is solved in the level masses u_i = C(T, i) z_i, free of binomial
    coefficients: sum_i u_i = 1, objective n v sum_{j>=1} (j/T) u_j, and
    each row times C(T, i) (T - i) = (i+1) C(T, i+1) (only C(T, i) for t > n,
    where T - i = 0 at i = n) reads
    (C' - i) (T - i) u_i + (i + 1) (C' - i - n + T - 1) u_{i+1} >= 0.

    The normalisation is written sum_i u_i <= 1, so that u = 0 is
    feasible and `simplex_exact` starts there. The optimum is the same:
    every other row is homogeneous and every objective coefficient is
    >= 0, so a feasible u with 0 < sum u < 1 scales to u / sum u, which is
    feasible and worth at least as much, and at u = 0 the objective is 0,
    the value of the feasible point e_0 (u_0 = 1, whose rows read
    C' T >= 0, or C' >= 0 for t > n).
    """
    n = inst.n
    top = min(t, n)
    ratio = inst.capacity / inst.sizes[0]
    problem = LPProblem({j: n * inst.values[0] * Q(j, top)
                         for j in range(1, top + 1)})
    problem.add(dict.fromkeys(range(top + 1), 1), "<=", 1)
    for i in range(min(t - 1, n) + 1):
        row = ({i: (ratio - i) * (top - i), i + 1: (i + 1) * (ratio - i - n + top - 1)}
               if t <= n else {i: ratio - i})
        row = {j: c for j, c in row.items() if c != 0}
        if row:
            problem.add(row, ">=", 0)
    return problem


def sa_lp_size(n: int, t: int) -> tuple:
    """(rows, variables) of `sa_lp_problem` at n items and level t.

    Each k-set U splits into 2^k pairs (I, J): the capacity rows come from
    k = min(t-1, n), the base rows from k = min(t, n), less the pair
    (U, 0) of each U; the variables are the nonempty sets of size <= t.
    Rows that vanish identically are dropped, so the row count is an
    upper bound.
    """
    low, top = min(t - 1, n), min(t, n)
    rows = (math.comb(n, low) << low) + math.comb(n, top) * ((1 << top) - 1)
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
    """Raise ValueError if lasserre_value(inst, t) would factor blocks of
    more than LASSERRE_DIM_CAP rows in all or, off the uniform family, hold
    a dense moment-block tensor of |P_2t| x |P_t|^2 floats above
    LASSERRE_DENSE_CAP. A uniform instance factors Schrijver's moment and
    localizer blocks, (t+1)^2 rows whenever n >= 2t, whatever n is. Off it
    the tensor cap is the tighter one: |P_t| > 400 gives
    |P_2t| |P_t|^2 > 6.4e7."""
    if inst.is_uniform():
        rows = sum(len(r) for top in (t, t - 1) for r in _orbit_layout(inst.n, top))
        if rows > LASSERRE_DIM_CAP:
            raise ValueError(f"orbit blocks at n={inst.n}, t={t} have {rows} "
                             f"rows, over {LASSERRE_DIM_CAP}")
        return
    floats = count_p_t(inst.n, 2 * t) * count_p_t(inst.n, t) ** 2
    if floats > LASSERRE_DENSE_CAP:
        raise ValueError(f"dense Lasserre blocks at n={inst.n}, t={t} hold "
                         f"{floats} floats, over {LASSERRE_DENSE_CAP}")


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
    value: float                 # objective of the returned point
    # mask -> float over P_2t(V); on a uniform instance y_m at (1 << m) - 1
    # for m = 0..min(2t, n)
    point: dict
    # max(0, -lambda_min) of the unscaled float blocks at that point, absolute:
    # eigensolver rounding, as every block factored. Schrijver's coefficients
    # grow like C(n, m)^3, so it reaches 1e-3 at n = 200; 0.0 at a 0/1 point
    residual: float
    sweeps: int                  # Newton steps spent
    bisections: int              # barrier stages started
    tol: float
    notes: list = field(default_factory=list)

    def describe(self) -> str:
        msg = (f"lasserre lower estimate {self.value:.6f} "
               f"(residual {self.residual:.2e}, {self.sweeps} Newton steps, "
               f"{self.bisections} barrier stages, tol {self.tol:g})")
        return "\n".join([msg] + [f"  note: {n}" for n in self.notes])


def _forced_zero(inst: KnapsackInstance, mask: int, t: int) -> bool:
    """True if every level-t Lasserre point has y_mask = 0 (see
    `lasserre_value`): mask holds a K' with |K'| <= t-1 and cost K' > C, or
    strictly holds one with cost K' >= C. Its heaviest items decide both."""
    heavy = sorted((inst.sizes[i] for i in indices_of(mask)), reverse=True)
    return (sum(heavy[:t - 1], ZERO) > inst.capacity
            or bool(heavy) and sum(heavy[:min(t, len(heavy)) - 1], ZERO)
            >= inst.capacity)


def _trim(matrices, scale=1) -> list:
    """Float tensors [A_0, A_1, ...] of blocks A_0 + sum_j y_j A_j, from row
    lists of coefficient vectors, divided by scale (int vectors are rounded
    once); without empty blocks and the rows and columns zero in every A_j
    (those of forced zeros, which would hold a block singular). Each is
    C-contiguous, so `_barrier` reads the A_j of a stack without a copy."""
    import numpy as np
    out = []
    for rows in matrices:
        a = np.moveaxis(np.array(rows) / scale, -1, 0).astype(float)
        keep = np.flatnonzero(np.abs(a).sum(axis=(0, 1)))
        if keep.size:
            out.append(np.ascontiguousarray(a[:, keep][:, :, keep]))
    return out


def _dense_problem(inst: KnapsackInstance, t: int) -> tuple:
    """(objective, blocks, |K| per variable, the masks of P_2t(V), column
    per mask: 0 for y_0, j + 1 for variable j, -1 for a forced 0) of the
    level-t problem in the y_K, K in P_2t(V) nonempty and not forced to 0;
    the blocks are M_{P_t}(y) and M_{P_t-1}(g*y),
    (g*y)_K = C y_K - sum_i c_i y_{K u i}, built once by the exact checker's
    `_dense_matrices` on the point whose y_K is the float unit vector of
    K's column (0 if forced): short sums of the instance data."""
    import numpy as np
    masks = family_p_t(inst.n, 2 * t)
    free = [m for m in masks[1:] if not _forced_zero(inst, m, t)]
    col = {m: j for j, m in enumerate([0] + free)}
    column = np.array([col.get(m, -1) for m in masks])  # eye's row -1 is 0
    y = SetVector(inst.n, dict(zip(masks, np.eye(len(col) + 1, len(col))[column])))
    shifted = _capacity_shift(y.values, float(inst.capacity),
                              [float(c) for c in inst.sizes])
    values = {1 << i: float(v) for i, v in enumerate(inst.values)}
    return (np.array([values.get(m, 0.0) for m in free]),
            _trim(_dense_matrices(y, shifted, t)),
            np.array([m.bit_count() for m in free]), masks, column)


def _orbit_problem(inst: KnapsackInstance, t: int) -> tuple:
    """`_dense_problem` on a uniform instance, in the profile y_m = y_K,
    |K| = m <= min(2t, n), m not forced to 0; its masks are one
    representative (1 << m) - 1 per m = 0..min(2t, n). Item permutations map
    the feasible set onto itself and keep the objective, so averaging an
    optimal point over them gives an optimal point of this form
    (Gatermann-Parrilo 2004). The blocks are Schrijver's, built once by the
    exact checker's `_orbit_matrices` on the profile whose y_m is the int
    unit vector of m's column, with the capacity data on ints: the
    coefficients grow like C(n, m)^3, past 2^53, and are rounded once."""
    import numpy as np
    n = inst.n
    top = min(2 * t, n)
    free = [m for m in range(1, top + 1)
            if not _forced_zero(inst, (1 << m) - 1, t)]
    col = {m: j for j, m in enumerate([0] + free)}
    column = np.array([col.get(m, -1) for m in range(top + 1)])
    x = np.eye(len(col) + 1, len(col), dtype=object)[column]
    (cap, c), scale = integer_row([inst.capacity, inst.sizes[0]])
    moment, localizer = _orbit_matrices(x, n, cap, c, t)
    return (np.array([n * float(inst.values[0]) * (m == 1) for m in free]),
            _trim(moment) + _trim(localizer, scale),
            np.array(free), [(1 << m) - 1 for m in range(top + 1)], column)


def _bordered(blocks):
    """The blocks as one stack (m+1, K, D, D) (`_barrier`), each bordered by
    an identity up to the widest width D: diag(B_k(y), I) has B_k's log det,
    gradient and Hessian, and its Cholesky factor is diag(L_k, I)."""
    import numpy as np
    width = max(a.shape[1] for a in blocks)
    stack = np.zeros((blocks[0].shape[0], len(blocks), width, width))
    for k, a in enumerate(blocks):
        d = a.shape[1]
        stack[:, k, :d, :d] = a
        stack[0, k, range(d, width), range(d, width)] = 1.0
    return stack


def _barrier(c, stacks, rows: int, degree, tol: float, max_steps: int):
    """Maximize c.y over y in (0, 1)^vars with every block A_0 + sum_j
    y_j A_j positive definite, by damped Newton steps along the central path
    of f_s(y) = -s c.y - sum_k log det B_k(y) - sum log y - sum log(1 - y),
    s growing 8-fold per stage until nu / s <= tol: the minimizer of f_s is
    within nu / s = (rows + 2 #vars) / s of the optimum (Vandenberghe-Boyd
    1996), rows being the sum of the block dimensions without any border.

    A stack holds K blocks of one width D as one array (m+1, K, D, D), A_j
    of block k at [j, k]. Per stack, B(y) is one matrix-vector product, and
    a Newton step costs one batched Cholesky factorization, one batched
    inverse, the products W_j = L^-1 A_j L^-T of all (j, k) in two batched
    matmul calls, and one Hessian product, whatever K is: numpy's per-call
    overhead, not arithmetic, is what many small blocks cost. Blocks of
    unequal width share a stack through an identity border (`_bordered`),
    which leaves the barrier unchanged in exact arithmetic: Schrijver's
    blocks, at most t+1 wide, go in one stack (one stack per width, three
    at t=2, measured slower). The two dense blocks, |P_t| and |P_t-1|
    wide, stay two stacks of one: bordering the localizer to |P_t| adds
    m (|P_t|^3 - |P_t-1|^3) flops per step, and measured slower at n >= 7.

    Starts from y_K = delta^|K|, shrinking delta by a tenth until every
    block factors. Returns (y or None if no start factors, Newton steps,
    stages, why the path ended early or None); a step the line search
    cannot shorten to a decrease of f_s ends the path.
    """
    import numpy as np
    m = len(c)
    nu = rows + 2 * m
    # the products' outputs, reused by every Newton step: a fresh array of
    # the tensor's size per step costs page faults
    work = [(np.empty_like(a[1:]), np.empty_like(a[1:])) for a in stacks]

    def factors(y):  # Cholesky factors of the stacks, None outside the interior
        if not (np.all(y > 0) and np.all(y < 1)):
            return None
        try:
            return [np.linalg.cholesky(a[0] + (y @ a[1:].reshape(m, a[0].size))
                                       .reshape(a.shape[1:])) for a in stacks]
        except np.linalg.LinAlgError:
            return None

    def f(y, s, chol):
        return (-s * (c @ y) - np.log(y).sum() - np.log1p(-y).sum()
                - 2 * sum(np.log(np.diagonal(l, axis1=1, axis2=2)).sum()
                          for l in chol))

    def newton(y, s, chol):  # Newton direction and squared decrement
        grad = -s * c - 1 / y + 1 / (1 - y)
        hess = np.diag(1 / y ** 2 + 1 / (1 - y) ** 2)
        for a, l, (x, w) in zip(stacks, chol, work):
            # W_j = L^-1 A_j L^-T: tr W_j = tr B^-1 A_j, and <W_i, W_j> =
            # tr B^-1 A_i B^-1 A_j is the log det term's Hessian
            linv = np.linalg.inv(l)
            np.matmul(np.matmul(linv, a[1:], out=x), np.swapaxes(linv, 1, 2),
                      out=w)
            grad -= np.einsum("jkii->j", w)
            flat = w.reshape(m, a[0].size)
            hess += flat @ flat.T
        scale = 1 / np.sqrt(np.diag(hess))
        step = scale * np.linalg.solve(hess * np.outer(scale, scale), -grad * scale)
        if not np.all(np.isfinite(step)):
            raise np.linalg.LinAlgError("non-finite Newton step")
        return step, -(grad @ step)

    # the second delta that factors: rounding can let a boundary point through
    starts = (y for y in (d ** degree for d in 0.9 ** np.arange(1, 400))
              if factors(y) is not None)
    y = next(itertools.islice(starts, 1, None), None)
    if y is None:
        return None, 0, 0, "no start point y_K = delta^|K| is strictly feasible"
    chol = factors(y)
    s, steps, stage = 1.0, 0, 0
    while True:
        stage += 1
        fy, last = f(y, s, chol), math.inf
        while True:
            try:
                step, dec2 = newton(y, s, chol)
            except np.linalg.LinAlgError:  # no step can be trusted
                return y, steps, stage, (f"singular Newton system in barrier "
                                         f"stage {stage}")
            # near the center the decrement falls quadratically; once it
            # stops falling, rounding has taken over
            if dec2 <= 1e-10 or last <= dec2 < 1 / 16:
                break
            if steps == max_steps:
                return y, steps, stage, (f"Newton step budget exhausted in "
                                         f"barrier stage {stage}")
            steps += 1
            alpha, floor = 1.0, 0.25 / (1 + math.sqrt(dec2))
            while True:
                trial = y + alpha * step
                tchol = factors(trial)
                if tchol is not None:
                    ft = f(trial, s, tchol)
                    # a full step inside the quadratic region needs no test
                    if dec2 < 1 / 16 or ft <= fy - alpha * dec2 / 4:
                        break
                alpha /= 2
                if alpha < floor:
                    return y, steps, stage, (f"the path stalled in barrier stage "
                                             f"{stage}, gap bound {nu / s:.1e}")
            y, chol, fy, last = trial, tchol, ft, dec2
        if nu / s <= tol:
            return y, steps, stage, None
        s *= 8


def lasserre_value(inst: KnapsackInstance, t: int, tol: float = 1e-4,
                   max_sweeps: int = 50000) -> LasserreEstimate:
    """Approximate level-t Lasserre optimum by a log-det barrier (`_barrier`).

    The problem maximizes sum_i v_i y_i subject to 0 <= y_K <= 1,
    M_{P_t}(y) PSD and M_{P_t-1}(g*y) PSD for the capacity g; the box
    localizers are congruences of the moment matrix (`lasserre_membership`).
    On a uniform instance (equal sizes, equal values) it is solved in the
    cardinality profile (`_orbit_problem`) at any n, and P_2t(V) is never
    enumerated: the point holds y_m at the representative (1 << m) - 1 of
    each m = 0..min(2t, n). Otherwise it is solved in every y_K
    (`_dense_problem`), and the point holds every K in P_2t(V). `tol` bounds
    the barrier's final gap; `max_sweeps` caps its Newton steps.

    Faces with no interior. For |K'| <= t-1 the localizer's diagonal entry
    at K' reads (C - cost K') y_K' - sum_{i not in K'} c_i y_{K' u i} >= 0,
    with every y in [0, 1]. So cost K' > C forces y_K' = 0, and cost K' >= C
    forces each y_{K' u i} = 0. A zero diagonal entry y_K of the PSD moment
    matrix zeroes its row, y_{K u J} for |J| <= t; for K <= L in P_2t take
    K <= K'' <= L with |K''| = min(t, |L|): y_K'' = M[K, K''\\K] = 0, then
    y_L = M[K'', L\\K''] = 0. Every forced y_K is dropped before the solve,
    with the block rows it leaves zero (`_forced_zero`, `_trim`).

    The barrier point is strictly feasible, so its objective is a lower
    estimate. The 0/1 start, an optimal 0/1 point or the greedy one where
    `opt_solution` refuses the instance (non-uniform, over 24 items),
    replaces it whenever that is worth more or no start point factors; on a
    uniform instance its point is the start averaged over item permutations,
    y_m = C(k, m) / C(n, m) for a start of k items. A completed path that
    ends more than tol below the start contradicts its own gap bound, a
    floating-point failure that a note reports.
    """
    import numpy as np
    if not 1 <= t <= inst.n:
        raise ValueError("level t must satisfy 1 <= t <= n")
    check_lasserre_size(inst, t)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    notes = ["lower estimate: the objective of a strictly feasible point; "
             "the barrier path's gap bound nu/s <= tol holds in exact "
             "arithmetic only"]
    uniform = inst.is_uniform()
    if uniform:
        c, blocks, degree, masks, column = _orbit_problem(inst, t)
        stacks = [_bordered(blocks)]
        notes.append("solved on Schrijver's blocks in the cardinality "
                     "profile: the instance is uniform")
    else:
        c, blocks, degree, masks, column = _dense_problem(inst, t)
        stacks = [a[:, None] for a in blocks]
    try:
        sol, start_val = opt_solution(inst)
        start = "the integer optimum"
    except ValueError:  # no exact search at this n; any feasible 0/1 point will do
        sol, start_val = greedy(inst)
        start = "the greedy value"
    y, steps, stages, stop = _barrier(c, stacks, sum(a.shape[1] for a in blocks),
                                      degree, tol, max_sweeps)
    notes += [stop] if stop else []
    value = -math.inf if y is None else float(c @ y)
    if value < start_val:
        if stop is None and value < start_val - tol:
            notes.append(f"the completed barrier path ends at {value:.6f}, more "
                         f"than tol below the 0/1 start: its gap bound failed "
                         f"in floating point")
        notes.append(f"the 0/1 start is the better point: the estimate is "
                     f"{start} {rat_str(start_val)}")
        k = sol.bit_count()
        point = ({r: math.comb(k, m) / math.comb(inst.n, m)
                  for m, r in enumerate(masks)} if uniform
                 else {m: float(m & ~sol == 0) for m in masks})
        value, residual = float(start_val), 0.0
    else:
        full = np.concatenate(([1.0], y, [0.0]))
        point = dict(zip(masks, full[column].tolist()))
        # every block factored at y, so this is rounding at most
        residual = max([0.0] + [-np.linalg.eigvalsh(
            a[0] + np.tensordot(y, a[1:], 1))[:, 0].min()
            for a in stacks])
    return LasserreEstimate(value=value, point=point, residual=float(residual),
                            sweeps=steps, bisections=stages, tol=tol, notes=notes)
