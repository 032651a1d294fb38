"""Command-line front end.

Subcommands: sa-cert, sa-value, lasserre-value, decompose, verify,
sweep. Exit codes: 0 success, 1 verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decomposition import big_items, check_split, decompose, verify_decomposition
from .hierarchy import lasserre_membership, sa_membership, verify_gap_certificate
from .knapsack import instance_from_json
from .rationals import rat_str
from .solvers import lasserre_value, sa_value
from .subsets import indices_of, mask_of, setvector_from_json
from .sweep import SweepConfig, emit_csv, rows_to_csv_text, run_sweep


def _common_flags(sub):
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def _load_point(path: str, n: int):
    with open(path, encoding="utf-8") as fh:
        return setvector_from_json(fh.read(), n)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def _cmd_sa_cert(args) -> int:
    check = verify_gap_certificate(args.n, args.eps, args.t, args.delta)
    ok = check.bound_ok and check.report.accepted
    _emit(args, {
        "value": rat_str(check.value),
        "bound": rat_str(check.bound),
        "bound_ok": check.bound_ok,
        "accepted": check.report.accepted,
        "checks": check.report.checked,
        "reduced": check.report.reduced,
        "violations": len(check.report.violations),
    }, check.describe())
    return 0 if ok else 1


def _cmd_sa_value(args) -> int:
    inst = _load_instance(args.instance)
    value = sa_value(inst, args.t)
    _emit(args, {"value": rat_str(value), "mode": "sa",
                 "residual": 0.0, "iterations": 0},
          f"sa level-{args.t} value {rat_str(value)} ~ {float(value):.6f}")
    return 0


def _cmd_lasserre_value(args) -> int:
    inst = _load_instance(args.instance)
    est = lasserre_value(inst, args.t, tol=args.tol, max_sweeps=args.max_sweeps)
    _emit(args, {"value": est.value, "mode": "lasserre",
                 "residual": est.residual, "iterations": est.sweeps},
          est.describe())
    return 0


def _cmd_decompose(args) -> int:
    inst = _load_instance(args.instance)
    y = _load_point(args.point, inst.n)
    if args.s is not None:
        items = [int(x) for x in args.s.split(",") if x != ""]
        if any(i < 0 for i in items):
            raise ValueError(f"--s: item index {min(items)} is negative")
        s_mask = mask_of(items)
    else:
        s_mask = big_items(inst, args.k)
    check_split(inst, s_mask, args.k, args.t)  # a usage error exits 2 in main
    try:
        result = decompose(y, inst, s_mask, args.k, args.t)
        report = verify_decomposition(result, y, inst, args.t, args.k)
    except ValueError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    parts = [{"x": indices_of(m), "weight": rat_str(w)}
             for m, w, _ in result.parts]
    text = "\n".join(
        [f"S = {indices_of(s_mask)}, k = {args.k}, {len(parts)} parts"]
        + [f"  X = {p['x']}, weight {p['weight']}" for p in parts]
        + [report.describe()])
    _emit(args, {"s": indices_of(s_mask), "k": args.k, "parts": parts,
                 "accepted": report.accepted, "checks": report.checked},
          text)
    return 0 if report.accepted else 1


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    y = _load_point(args.point, inst.n)
    if args.mode == "sa":
        report = sa_membership(y, inst, args.t)
    else:
        report = lasserre_membership(y, inst, args.t)
    _emit(args, {"mode": args.mode, "t": args.t,
                 "accepted": report.accepted, "checks": report.checked,
                 "reduced": report.reduced,
                 "violations": len(report.violations),
                 "margins": [rat_str(v.margin) for v in report.violations]},
          report.describe())
    return 0 if report.accepted else 1


def _parse_range(text: str) -> tuple:
    """'2:5' -> (2,3,4,5); '1,3,5' -> (1,3,5)."""
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(",") if x != "")


def _cmd_sweep(args) -> int:
    obj = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            obj = json.load(fh)
    # command-line flags override config-file values
    if args.family:
        obj["family"] = args.family
    if args.files:
        obj["files"] = args.files.split(",")
    if args.n:
        obj["n_values"] = list(_parse_range(args.n))
    if args.eps:
        obj["eps_values"] = args.eps.split(",")
    if args.t:
        obj["t_values"] = list(_parse_range(args.t))
    if args.modes:
        obj["modes"] = args.modes.split(",")
    if args.out:
        obj["output"] = args.out
    if args.tol is not None:
        obj["tol"] = args.tol
    cfg = SweepConfig.from_dict(obj).validate()
    rows = run_sweep(cfg)
    if args.json:
        print(json.dumps([r.__dict__ for r in rows], indent=1))
    elif cfg.output:
        emit_csv(rows, cfg.output)
    else:
        sys.stdout.write(rows_to_csv_text(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="lift-and-project relaxations of Knapsack: exact "
                    "certificates, LP/SDP values, decompositions")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sa-cert", help="build and verify the uniform-instance "
                                        "gap certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True, help="rational like 1/10")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--delta", required=True, help="rational bound parameter")
    _common_flags(p)
    p.set_defaults(func=_cmd_sa_cert)

    p = subs.add_parser("sa-value", help="exact level-t linear relaxation value")
    p.add_argument("--instance", required=True)
    p.add_argument("--t", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_sa_value)

    p = subs.add_parser("lasserre-value",
                        help="approximate level-t moment-relaxation value "
                             "(lower estimate)")
    p.add_argument("--instance", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="gap bound at which the barrier path stops")
    p.add_argument("--max-sweeps", type=int, default=50000,
                   help="budget of Newton steps")
    _common_flags(p)
    p.set_defaults(func=_cmd_lasserre_value)

    p = subs.add_parser("decompose", help="split a lifted point into "
                                          "conditioned parts and verify")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True, help="lifted vector JSON")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", help="comma-separated item indices; defaults to "
                               "the items with value above OPT/k (the greedy "
                               "value stands in for OPT on non-uniform "
                               "instances above 24 items)")
    _common_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("verify", help="membership of a lifted point")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--mode", choices=("sa", "lasserre"), required=True)
    p.add_argument("--t", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("sweep", help="run a grid of experiments, emit CSV")
    p.add_argument("--config", help="JSON file mirroring SweepConfig")
    p.add_argument("--family", choices=("uniform", "files"))
    p.add_argument("--files", help="comma-separated instance files")
    p.add_argument("--n", help="range 10:20 or list 10,12")
    p.add_argument("--eps", help="comma-separated rationals")
    p.add_argument("--t", help="range 2:5 or list 1,3")
    p.add_argument("--modes", help="comma-separated subset of "
                                   "sa-cert,sa-lp,lasserre,decompose")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--tol", type=float, default=None)
    _common_flags(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
