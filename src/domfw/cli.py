"""Command-line entry points: run, sweep, validate, slope.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .harness import _SWEEP_AXES, ConfigError, _echo_value, fit_loglog_slope, parse_config, run_experiment, sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="domfw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.add_argument("--dump-network", action="store_true", help="also dump the weight schedule")

    p_sweep = sub.add_parser("sweep", help="run the config once per axis value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=list(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument("--dump-network", action="store_true")

    p_val = sub.add_parser("validate", help="parse a config and report all violations")
    p_val.add_argument("config")

    p_slope = sub.add_parser("slope", help="log-log slope of a (T, count) CSV")
    p_slope.add_argument("csv")

    args = parser.parse_args(argv)

    if args.command == "slope":
        try:
            with open(args.csv, newline="") as fh:
                reader = csv.reader(fh)
                rows = [row for row in reader if row]
            try:
                float(rows[0][0])
            except (IndexError, ValueError):
                rows = rows[1:]   # no rows, or a header: its first cell is not a number
            slope = fit_loglog_slope([(float(r[0]), float(r[1])) for r in rows])
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{slope!r}")
        return 0

    try:
        config = parse_config(Path(args.config).read_text())
    except ConfigError as exc:
        for lineno, message in exc.violations:
            where = f"line {lineno}: " if lineno else ""
            print(f"{where}{message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    if args.seed is not None:
        config = config.with_master_seed(args.seed)

    try:
        if args.command == "run":
            result = run_experiment(config, out_dir=args.out_dir, dump_network=args.dump_network)
            print(result.directory)
            return 0
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        rows = sweep(config, args.axis, values, out_dir=args.out_dir, dump_network=args.dump_network)
        failures = [row for row in rows if not row.ok]
        for row in failures:
            print(f"value {_echo_value(row.value)}: {row.error}", file=sys.stderr)
        return 2 if failures else 0
    except Exception as exc:   # runtime failure, partial outputs retained
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
