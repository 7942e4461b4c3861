"""Command-line entry points: sweep, classify, report.

Exit codes: 0 all invariants pass, 1 an exact invariant or certificate
failed, 2 usage/configuration error.  TWOWEIGHT_WORKERS sets the worker
pool size for sweeps (default 1; any value reproduces identical rows).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import serialize
from .localization import radii
from .sweep import SweepConfig, replay_trial, run_sweep, worker_count

USAGE_ERROR = 2


@functools.cache
def _build_parser():
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="twoweight",
        description="Two-weight testing constants and proof certificates "
                    "for well-localized dyadic operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured randomized sweep")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="override trials per cell")
    p_sweep.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sweep.add_argument("--dump-certificates", action="store_true",
                         help="write one certificate JSON per trial")
    p_sweep.add_argument("--replay", type=int, default=None, metavar="TRIAL",
                         help="re-run a single trial by index and print it")

    p_classify = sub.add_parser("classify", help="print localization radii of an operator")
    p_classify.add_argument("--operator", required=True, help="operator JSON file")

    p_report = sub.add_parser("report", help="summarize a sweep output directory")
    p_report.add_argument("--in", dest="in_dir", required=True, help="sweep output dir")
    return parser


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        if args.trials is not None:
            doc["trials"] = args.trials
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.dump_certificates:
            doc["dump_certificates"] = True
        config = SweepConfig.from_dict(doc)
        worker_count()
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if args.replay is not None:
        try:
            row, failures, cert = replay_trial(config, args.replay)
        except ValueError as exc:
            print(f"replay error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        print(json.dumps({"row": row, "failures": failures}, indent=1))
        if cert is not None and args.dump_certificates:
            print(json.dumps(cert, indent=1))
        return 1 if failures else 0

    summary = run_sweep(config, out_dir=args.out)
    print(f"trials: {summary.trials}  passes: {summary.passes}  "
          f"failures: {len(summary.failures)}")
    print(f"max embedding ratio: {summary.max_embedding_ratio:.4f}")
    for key, stats in sorted(summary.cells.items()):
        print(f"  {key}: max ratio {stats['max_ratio_sum']:.4f} "
              f"median {stats['median_ratio_sum']:.4f}")
    for failure in summary.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    return summary.exit_code


def _cmd_classify(args) -> int:
    try:
        doc = serialize.load_json(args.operator)
        t = serialize.operator_from_dict(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"operator error in {args.operator}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"family: {t.family}")
    print(f"claimed radius: {t.claimed_radius}")
    ewl, wl = radii(t)
    print(f"ewl_radius: {ewl}")
    print(f"well-localized radii: {list(range(wl, t.grid.tree_depth + 1)) or 'none up to n*d'}")
    return 0


def _cmd_report(args) -> int:
    summary_path = os.path.join(args.in_dir, "summary.json")
    trials_path = os.path.join(args.in_dir, "trials.csv")
    try:
        summary = serialize.load_json(summary_path)
        rows = serialize.read_rows_csv(trials_path)
        lines = [f"sweep {summary['config_digest']} (v{summary['version']}) -- "
                 f"{summary['trials']} trials, {summary['passes']} passed",
                 f"max embedding ratio: {summary['max_embedding_ratio']:.4f}",
                 f"{'cell':58s} {'trials':>6s} {'max':>9s} {'median':>9s}"]
        for key, stats in sorted(summary["cells"].items()):
            lines.append(f"{key:58s} {stats['trials']:6d} {stats['max_ratio_sum']:9.4f} "
                         f"{stats['median_ratio_sum']:9.4f}")
        # a trial that raised has a NaN row and is listed as a failure below
        ranked = [row for row in rows if math.isfinite(float(row["ratio_sum"]))]
        worst = sorted(ranked, key=lambda r: -float(r["ratio_sum"]))[:5]
        if worst:
            lines.append("largest norm/(c1+c2+c3) trials:")
        for row in worst:
            lines.append(f"  seed {row['seed']} n={row['n']} d={row['d']} r={row['r']} "
                         f"{row['family']}: {float(row['ratio_sum']):.4f}")
        failures = list(summary["failures"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"report error in {args.in_dir}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "classify":
        return _cmd_classify(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
