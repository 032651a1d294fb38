"""Spans around the calls into each liftlab layer, for the traced run only.

``Tracer.installed()`` replaces the module attributes through which callers
reach each layer with timing wrappers and restores them on exit. Spans are
kept in memory as [name, start, end, parent, info]; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from liftlab import decomposition, hierarchy, knapsack, solvers


def _dim(args, kwargs, result):
    rows = args[0]
    return len(rows.rows if hasattr(rows, "rows") else rows)


def _lp_size(args, kwargs, problem):
    return len(problem.constraints), len(problem.variables())


# (module, attribute, span name, annotation computed after the span ends)
TARGETS = (
    (hierarchy, "sa_membership", "hierarchy.sa_membership", lambda a, k, r: r.checked),
    (hierarchy, "lasserre_membership", "hierarchy.lasserre_membership", None),
    (decomposition, "lasserre_membership", "hierarchy.lasserre_membership", None),
    (hierarchy, "psd_exact_witness", "psd.psd_exact", _dim),
    (hierarchy, "moment_matrix", "subsets.moment_matrix", None),
    (solvers, "sa_value", "solvers.sa_value", None),
    (solvers, "sa_lp_problem", "solvers.sa_lp_problem", _lp_size),
    (solvers, "simplex_exact", "simplex.simplex_exact", None),
    (solvers, "lasserre_value", "solvers.lasserre_value",
     lambda a, k, r: (r.sweeps, r.bisections)),
    (solvers, "project_psd", "psd.project_psd", None),
    (solvers, "opt_solution", "knapsack.opt_solution", None),
    (knapsack, "opt_solution", "knapsack.opt_solution", None),
    (decomposition, "decompose", "decomposition.decompose", lambda a, k, r: len(r.parts)),
    (decomposition, "verify_decomposition", "decomposition.verify_decomposition", None),
    (decomposition, "z_vector", "subsets.z_vector", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, annotate):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for mod, attr, name, annotate in TARGETS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, annotate))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds; plus the layer counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for sid, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[sid]

    def infos(name):
        return [s[4] for s in spans if s[0] == name]

    dims = infos("psd.psd_exact")
    sizes = infos("solvers.sa_lp_problem")
    sweeps = infos("solvers.lasserre_value")
    checks = sum(infos("hierarchy.sa_membership"))
    elims = sum(1 for s in spans if s[0] == "psd.psd_exact" and s[3] is not None
                and spans[s[3]][0] == "hierarchy.sa_membership")
    out["counts"] = {
        "hierarchy.sa_membership.checks": checks,
        "hierarchy.sa_membership.elim_ratio": elims / checks if checks else 0.0,
        "psd.psd_exact.dim_max": max(dims, default=0),
        "psd.psd_exact.entries": sum(d * d for d in dims),
        "solvers.sa_lp_problem.rows": sum(r for r, _ in sizes),
        "solvers.sa_lp_problem.vars": sum(v for _, v in sizes),
        "solvers.lasserre_value.sweeps": sum(s for s, _ in sweeps),
        "solvers.lasserre_value.bisections": sum(b for _, b in sweeps),
        "decomposition.parts": sum(infos("decomposition.decompose")),
    }
    return out
