"""Command-line harness: run a named verification suite with a seeded
configuration, print a human-readable summary, and optionally write the
deterministic JSON report.

Exit codes: 0 when every case passes, 1 on any failure, 2 on a
configuration/usage error or a ``--json`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .suites import SUITE_NAMES, ConfigError, SuiteConfig, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Exact-arithmetic verification suites for symplectic spinor pairs.",
    )
    parser.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    parser.add_argument("--n", type=int, default=2, help="half-rank (1..4)")
    parser.add_argument("--g", type=int, default=2, help="genus (2..1000)")
    parser.add_argument("--m", type=int, default=1, help="vanishing order (1..64)")
    parser.add_argument("--s", type=int, default=2, help="section degree bound (1..4)")
    parser.add_argument("--prec", type=int, default=4, help="series precision (1..64)")
    parser.add_argument("--trials", type=int, default=100, help="randomized trials (1..10000)")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    return parser


def report_body(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SuiteConfig(
            suite=args.suite,
            n=args.n,
            g=args.g,
            m=args.m,
            s=args.s,
            prec=args.prec,
            trials=args.trials,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        # opened before the run, so an unwritable path fails fast
        out = open(args.json, "w") if args.json else contextlib.nullcontext()
    except OSError as exc:
        print(f"cannot write the JSON report to {args.json}: {exc.strerror}", file=sys.stderr)
        return 2
    with out:
        report = run_suite(config)
        if args.json:
            out.write(report_body(report))

    total = report.passed + report.failed
    print(f"suite {report.suite}: {report.passed}/{total} passed "
          f"(seed={config.seed}, wall time {report.wall_time:.2f}s)")
    for case, residual in report.failures[:20]:
        print(f"  FAIL {case}: {residual}")
    if len(report.failures) > 20:
        print(f"  ... and {len(report.failures) - 20} more failures")

    if args.json:
        print(f"report written to {args.json}")

    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
