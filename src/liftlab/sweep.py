"""Experiment sweeps over instance grids, with CSV emission.

A sweep runs a set of modes over a grid of instances and levels, one
result row per grid point. Exact modes reproduce byte-identically
across runs (the runtime column aside); the approximate mode
reproduces within printed precision since iteration budgets are fixed
and nothing is randomized.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass

from .decomposition import big_items, decompose, verify_decomposition
from .hierarchy import (certificate_alpha, certificate_membership,
                        convex_combination, integer_to_moment)
from .knapsack import (KnapsackInstance, instance_from_json, opt_solution,
                       uniform_gap_instance)
from .rationals import Q, rat, rat_str
from .solvers import (check_lasserre_size, check_sa_size, lasserre_value,
                      sa_value)

MODES = ("sa-cert", "sa-lp", "lasserre", "decompose")

CSV_HEADER = ("instance", "n", "eps", "t", "mode", "value", "ratio",
              "status", "runtime_ms")


@dataclass
class SweepConfig:
    """Grid description: uniform family (n x eps) or explicit files, levels, modes."""

    family: str = "uniform"          # "uniform" | "files"
    files: tuple = ()
    n_values: tuple = ()
    eps_values: tuple = ()           # rationals or strings like "1/10"
    t_values: tuple = ()
    modes: tuple = ("sa-cert",)
    output: str | None = None
    tol: float = 1e-4

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepConfig":
        if not isinstance(obj, dict):
            raise ValueError("sweep config must be a JSON object")
        bad = set(obj) - set(cls.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        for key in ("files", "n_values", "eps_values", "t_values", "modes"):
            if key in obj and not isinstance(obj[key], list):
                raise ValueError(f"config key {key!r} must be a list")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in obj.items()})

    def validate(self) -> "SweepConfig":
        if self.family not in ("uniform", "files"):
            raise ValueError("family must be 'uniform' or 'files'")
        if self.family == "uniform" and (not self.n_values or not self.eps_values):
            raise ValueError("uniform family needs non-empty n and eps ranges")
        if self.family == "files" and not self.files:
            raise ValueError("files family needs at least one instance file")
        if not all(isinstance(f, str) for f in self.files):
            raise ValueError("instance files must be path strings")
        if not (self.output is None or isinstance(self.output, str)):
            raise ValueError("output must be a path string")
        # bool is an int subclass: True would run as n = 1 or t = 1
        if not all(type(n) is int for n in self.n_values):
            raise ValueError("item counts n must be integers")
        if not all(type(t) is int for t in self.t_values):
            raise ValueError("levels t must be integers")
        # the other family's inputs would be ignored without a word
        if self.family == "uniform" and self.files:
            raise ValueError("uniform family takes no instance files")
        if self.family == "files" and (self.n_values or self.eps_values):
            raise ValueError("files family takes no n or eps ranges")
        if not self.t_values:
            raise ValueError("empty t range")
        if any(t < 1 for t in self.t_values):
            raise ValueError("levels must be >= 1")
        if not self.modes:
            raise ValueError("no modes requested")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r} (choose from {MODES})")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ValueError("tol must be a number")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        return self


@dataclass(frozen=True)
class ResultRow:
    instance: str
    n: int
    eps: str                 # "p/q" for uniform instances, "" otherwise
    t: int
    mode: str
    value: str               # rational "p/q" or 10-significant-digit decimal
    ratio: str
    status: str              # "exact" | "approx" | "error"
    runtime_ms: int
    residual: float = 0.0    # approx modes only; not part of the CSV contract
    error: str = ""          # not in the CSV: "<ExcType>: <msg>" when status is
                             # "error", "ratio: <ExcType>: <msg>" when only the
                             # ratio is missing (OPT out of reach)

    def csv_fields(self) -> tuple:
        return (self.instance, str(self.n), self.eps, str(self.t), self.mode,
                self.value, self.ratio, self.status, str(self.runtime_ms))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return rat_str(v)


def _instances(cfg: SweepConfig):
    """Ordered (id, instance, eps-string) triples for the grid."""
    out = []
    if cfg.family == "uniform":
        for n in cfg.n_values:
            for eps in cfg.eps_values:
                eps = rat(eps)
                out.append((f"uniform-n{n}-e{rat_str(eps)}",
                            uniform_gap_instance(n, eps), rat_str(eps)))
    else:
        for path in cfg.files:
            with open(path, encoding="utf-8") as fh:
                inst = instance_from_json(fh.read())
            name = os.path.splitext(os.path.basename(path))[0]
            out.append((name, inst, ""))
    return out


def _enforce_caps(grid):
    # fail the whole sweep up front rather than mid-run
    for _, inst, _, t, mode in grid:
        if mode == "sa-lp":
            check_sa_size(inst, t)
        if mode == "lasserre":
            check_lasserre_size(inst, t)


def _decompose_parts(inst: KnapsackInstance, t: int) -> int:
    """Run the decomposition on a canonical exact mixture and verify it.

    The mixture blends the empty solution with feasible singletons
    (outside S when k=1), so the vanishing condition holds by
    construction. Returns the number of parts.
    """
    if t < 2:
        raise ValueError("decompose mode needs t >= 2")
    k = 1 if t == 2 else 2
    s_mask = big_items(inst, t - 1)
    points = [0] + [1 << i for i in range(inst.n) if inst.is_feasible(1 << i)
                    and (k > 1 or not s_mask >> i & 1)]
    w = Q(1, len(points))
    y = convex_combination(
        [(w, integer_to_moment(inst, m, 2 * t)) for m in points])
    result = decompose(y, inst, s_mask, k, t)
    report = verify_decomposition(result, y, inst, t, k)
    if not report.accepted:
        raise ValueError("decomposition verification failed: "
                         + report.describe())
    return len(result.parts)


def _run_point(inst_id, inst, eps_str, t, mode, tol):
    start = time.perf_counter()
    status = "exact"
    residual = 0.0
    error = ""
    try:
        if mode == "sa-cert":
            if set(inst.sizes) | set(inst.values) != {1}:
                raise ValueError("sa-cert applies to the uniform gap family "
                                 "only: every size and value must be 1")
            eps = 1 - inst.capacity / 2
            report = certificate_membership(inst.n, eps, t)
            if not report.accepted:
                raise ValueError("certificate rejected: " + report.describe())
            value = inst.n * certificate_alpha(inst.n, eps, t)
        elif mode == "sa-lp":
            value = sa_value(inst, t)
        elif mode == "lasserre":
            est = lasserre_value(inst, t, tol=tol)
            value = est.value
            residual = est.residual
            status = "approx"
        else:  # decompose
            value = _decompose_parts(inst, t)
        value_str = _fmt(value)
    except Exception as exc:
        status = "error"
        value_str = ""
        error = f"{type(exc).__name__}: {exc}"
    ratio = ""
    if status != "error" and mode != "decompose":
        # a value stands without its ratio when OPT is out of reach
        try:
            opt = opt_solution(inst)[1]
        except ValueError as exc:
            error = f"ratio: {type(exc).__name__}: {exc}"
        else:
            ratio = _fmt(value / (float(opt) if isinstance(value, float) else opt))
    ms = int(round((time.perf_counter() - start) * 1000))
    return ResultRow(inst_id, inst.n, eps_str, t, mode, value_str, ratio,
                     status, ms, residual, error)


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """Execute the grid; per-row errors become status=error, never aborts.

    Rows come back ordered by (instance, t, mode) position in the config.
    """
    cfg.validate()
    grid = [(inst_id, inst, eps_str, t, mode)
            for inst_id, inst, eps_str in _instances(cfg)
            for t in cfg.t_values
            for mode in cfg.modes]
    _enforce_caps(grid)
    if "lasserre" in cfg.modes:
        # load numpy here, untimed: the first lasserre row's runtime_ms would
        # otherwise carry its import
        import numpy  # noqa: F401
    return [_run_point(*point, cfg.tol) for point in grid]


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    """The CSV text of rows under the fixed header, with LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(r.csv_fields() for r in rows)
    return buf.getvalue()


def emit_csv(rows: list[ResultRow], path: str) -> None:
    """Write rows_to_csv_text(rows) to path as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv_text(rows))
