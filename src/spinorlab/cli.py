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

from .suites import _INT_FIELDS, SUITE_NAMES, ConfigError, SuiteConfig, run_suite

# what each int flag is; its range comes from suites._INT_FIELDS and its
# default from SuiteConfig
_LABELS = {
    "n": "half-rank",
    "g": "genus",
    "m": "vanishing order",
    "s": "section degree bound",
    "prec": "series precision",
    "trials": "randomized trials",
    "seed": "64-bit master seed",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Exact-arithmetic verification suites for symplectic spinor pairs.",
    )
    parser.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    for name, lo, hi, _ in _INT_FIELDS:
        parser.add_argument(f"--{name}", type=int, help=f"{_LABELS[name]} ({lo}..{hi})")
    parser.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    return parser


def report_body(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a flag left out is None here and takes SuiteConfig's default
        config = SuiteConfig(**{f: v for f in SuiteConfig._fields if (v := getattr(args, f)) is not None})
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        # opened before the run, so an unwritable path fails fast; the write
        # or the close can still fail (a full disk).  An error inside the
        # suite fails its case, so an OSError here is the report file's.
        out = open(args.json, "w") if args.json is not None else contextlib.nullcontext()
        with out:
            report = run_suite(config)
            if args.json is not None:
                out.write(report_body(report))
    except OSError as exc:
        print(f"cannot write the JSON report to {args.json}: {exc.strerror}", file=sys.stderr)
        return 2

    total = report.passed + report.failed
    print(f"suite {report.suite}: {report.passed}/{total} passed "
          f"(seed={config.seed}, wall time {report.wall_time:.2f}s)")
    for case, residual in report.failures[:20]:
        print(f"  FAIL {case}: {residual}")
    if len(report.failures) > 20:
        print(f"  ... and {len(report.failures) - 20} more failures")

    if args.json is not None:
        print(f"report written to {args.json}")

    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
