"""Command-line batch driver.

Subcommands:
  run <config.json> [--out report.json] [--csv records.csv] [--timings]
  list-presets
  converge <config.json> [--out report.json] [--csv records.csv] [--timings]

Exit status: 0 = all pass/not_applicable, 1 = any fail, 2 = config error
(a mesh ladder above the size budget included).

hodgecheck consults no environment variable.  BLAS threads are pinned in
the environment (OMP_NUM_THREADS and the like) before the interpreter starts.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .presets import CHECK_IDS, DOMAIN_PRESETS, PRESET_POTENTIALS
from .report import convergence_study, run_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgecheck",
        description="Verification suites for weighted Hodge Laplacians on flat domains")
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments that run and converge share, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the JSON config")
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--csv", help="write one CSV row per record here")
    common.add_argument("--timings", action="store_true",
                        help="record wall-clock runtime_ms (breaks byte-identical reports)")

    sub.add_parser("run", parents=[common], help="execute the checks in a config")
    sub.add_parser("list-presets", help="list domains, potentials and check ids")
    sub.add_parser("converge", parents=[common],
                   help="refinement/quadrature ladders with fitted orders")
    return parser


def _print_presets():
    print("domains:")
    for name, desc in DOMAIN_PRESETS.items():
        print(f"  {name:<14} {desc}")
    print("potentials:")
    for name, desc in PRESET_POTENTIALS.items():
        print(f"  {name:<24} {desc}")
    print("  polynomial table          {\"terms\": [[i, j, coefficient], ...]}")
    print("checks:")
    for name, desc in CHECK_IDS.items():
        print(f"  {name:<24} {desc}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-presets":
        _print_presets()
        return 0
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            report = run_config(cfg, timings=args.timings)
        else:
            report = convergence_study(cfg, timings=args.timings)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_path = args.out or cfg.output
    if out_path:
        report.write_json(out_path)
    else:
        print(report.to_json())
    if args.csv:
        report.write_csv(args.csv)
    counts = report.summary
    print(f"pass={counts['pass']} fail={counts['fail']} "
          f"not_applicable={counts['not_applicable']}", file=sys.stderr)
    return 1 if report.any_failure else 0


if __name__ == "__main__":
    raise SystemExit(main())
