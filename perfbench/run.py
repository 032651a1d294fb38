"""liftlab benchmark: one workload, closed loop, one single-threaded process.

    python3 perfbench/run.py --workload uniform-exact --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
run times set-up in fresh processes, runs one warm-up pass, then repeats
the workload's job list back to back for --seconds and reports medians.
Every answer is checked. With --trace 1 each pass runs twice on the same
inputs, once plain and once with spans around every layer, and the
per-layer split and the tracing overhead are reported instead.

The last line of standard output is the JSON result. Without the liftlab
sources the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 3
KINDS = ("sa_member", "lp", "lasserre_member", "decomp", "sdp")

# per-layer metrics of the traced run: (span, field) medians per pass
LAYER_TIMES = (("hierarchy.sa_membership", "s"), ("hierarchy.sa_membership", "self_s"),
               ("psd.psd_exact", "s"), ("hierarchy.lasserre_membership", "s"),
               ("subsets.moment_matrix", "s"), ("solvers.sa_lp_problem", "s"),
               ("simplex.simplex_exact", "s"))
LAYER_CALLS = ("hierarchy.sa_membership", "psd.psd_exact", "hierarchy.lasserre_membership",
               "simplex.simplex_exact", "decomposition.decompose",
               "decomposition.verify_decomposition", "subsets.z_vector",
               "solvers.lasserre_value", "psd.project_psd", "knapsack.opt_solution")


def import_program():
    """Put ./src first on the path and import liftlab from it, or exit 2."""
    src = ROOT / "src"
    if not (src / "liftlab" / "__init__.py").is_file():
        print(f"error: no liftlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import liftlab
    if Path(liftlab.__file__).resolve().parent != src / "liftlab":
        print(f"error: liftlab imported from {liftlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def run_pass(jobs) -> dict:
    """Run every job and check its answer; the pass time includes the checks."""
    kind_s = defaultdict(float)
    failures, sdp = [], []
    start = perf_counter()
    for job in jobs:
        t0 = perf_counter()
        try:
            result = job.call()
            reason = None
        except Exception as exc:  # a job that raises is a failed job
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        kind_s[job.kind] += perf_counter() - t0
        if reason is None:
            reason = job.check(result)
        if reason is not None:
            failures.append(f"{job.label}: {reason}")
        elif job.kind == "sdp":
            sdp.append((job, result.value))
    return {"wall": perf_counter() - start, "kinds": kind_s, "jobs": len(jobs),
            "failures": failures, "sdp": sdp}


def time_setup(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready, in fresh interpreters, SETUP_REPEATS times.

    The child prints perf_counter() once its inputs are built; that clock is
    CLOCK_MONOTONIC, shared by all processes, so interpreter teardown is
    left out.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(child.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    import numpy
    from liftlab import Q
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"backend": f"{Q.__module__}.{Q.__qualname__}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "commit": commit}


def quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4f} (q1 {q1:.4f}, q3 {q3:.4f}, {len(values)} passes)"


def report_answers(records):
    """Print failures, the sdp estimates beside their references, failed_frac."""
    attempted = sum(r["jobs"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    for r in records:
        for line in r["failures"]:
            print(f"FAILED {line}")
    for job, value in records[-1]["sdp"]:
        line = f"  {job.label}: estimate {value:.6f}, OPT {job.opt}"
        if job.reference is not None:
            line += (f", exactly verified point of value {job.reference} = "
                     f"{float(job.reference):.6f} (estimate short by "
                     f"{float(job.reference) - value:.6f})")
        print(line)
    lifts = [float((value - job.opt) / job.opt) for r in records for job, value in r["sdp"]]
    lift = statistics.mean(lifts) if lifts else 0.0
    if lifts:
        print(f"  sdp_lift {lift:.6g} (mean (estimate - OPT)/OPT)")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    return attempted, failed, lift


def measure(workload: str, seed: int, seconds: float) -> dict:
    from workloads import build

    setup = time_setup(workload, seed)
    records = [run_pass(build(workload, seed, 0))]  # warm-up, checked but not timed
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline or index <= MIN_PASSES:
        jobs = build(workload, seed, index)
        records.append(run_pass(jobs))
        index += 1
    timed = records[1:]
    walls = [r["wall"] for r in timed]
    print(f"workload {workload} seed {seed}: {len(timed)} timed passes + 1 warm-up")
    print(f"  wall_s {quartiles(walls)}")
    for kind in KINDS:
        if kind in timed[0]["kinds"]:
            print(f"  {kind}_s {quartiles([r['kinds'][kind] for r in timed])}")
    print(f"  setup_s runs: {', '.join(f'{s:.4f}' for s in setup)}")
    attempted, failed, _ = report_answers(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"attempted": attempted, "failed": failed, "metrics": {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    from spans import Tracer, summarize
    from workloads import build

    tracer = Tracer()
    records = [run_pass(build(workload, seed, 0))]  # warm-up
    plain, traced, summaries = [], [], []
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline or index <= MIN_PASSES:
        jobs = build(workload, seed, index)
        for with_spans in ((False, True) if index % 2 else (True, False)):
            if with_spans:
                with tracer.installed():
                    rec = run_pass(jobs)
                summaries.append(summarize(tracer.take()))
                traced.append(rec["wall"])
            else:
                rec = run_pass(jobs)
                plain.append(rec["wall"])
            records.append(rec)
        index += 1

    def median_of(get):
        return statistics.median(get(s) for s in summaries)

    names = sorted({name for s in summaries for name in s if name != "counts"})
    print(f"workload {workload} seed {seed}: {len(traced)} traced + {len(plain)} plain passes")
    print(f"  {'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}  (median per pass)")
    for name in names:
        row = [median_of(lambda s: s.get(name, {}).get(f, 0)) for f in ("calls", "s", "self_s")]
        print(f"  {name:40s} {row[0]:9.0f} {row[1]:10.4f} {row[2]:10.4f}")
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"  untraced wall_s {quartiles(plain)}")
    print(f"  traced wall_s {quartiles(traced)}; tracing overhead {overhead:.4f} s")
    attempted, failed, lift = report_answers(records)

    metrics = {"solvers.lasserre_value.lift": lift}
    for name, field in LAYER_TIMES:
        metrics[f"{name}.{field}"] = median_of(lambda s: s.get(name, {}).get(field, 0.0))
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = median_of(lambda s: s.get(name, {}).get("calls", 0))
    for key in summaries[0]["counts"]:
        metrics[key] = median_of(lambda s: s["counts"][key])
    units = {"s": "s", "self_s": "s", "elim_ratio": "ratio", "lift": "ratio"}
    out = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "count")}
           for k, v in metrics.items()}
    out["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up)")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # read once, when numpy is first imported
        os.environ[var] = "1"
    import_program()
    from workloads import WORKLOADS, build
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        build(args.workload, args.seed, 0)
        print(perf_counter())
        return 0
    print("env " + json.dumps(environment()), flush=True)
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": result["failed"] == 0, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
