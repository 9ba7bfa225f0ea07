"""Command-line entry points: run, sweep, validate, slope.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .harness import (
    _SWEEP_AXES,
    SWEEP_COLUMNS,
    ConfigError,
    _echo_value,
    fit_loglog_slope,
    parse_config,
    plan_text,
    run_experiment,
    sweep,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="domfw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_options = argparse.ArgumentParser(add_help=False)   # shared by run and sweep
    run_options.add_argument("config")
    run_options.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_options.add_argument("--out-dir", default=None, help="override the output directory")
    run_options.add_argument("--dump-network", action="store_true", help="also dump the weight schedule")

    sub.add_parser("run", parents=[run_options], help="run one experiment from a config file")
    p_sweep = sub.add_parser("sweep", parents=[run_options], help="run the config once per axis value")
    p_sweep.add_argument("--axis", required=True, choices=list(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")

    p_val = sub.add_parser("validate", help="parse a config and report all violations")
    p_val.add_argument("config")

    p_slope = sub.add_parser("slope", help="log-log slope of a (T, count) CSV, or of each column of a T sweep")
    p_slope.add_argument("csv")

    args = parser.parse_args(argv)

    if args.command == "slope":
        try:
            with open(args.csv, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                rows = [row for row in reader if row]
            if rows and rows[0][0] in _SWEEP_AXES and rows[0][1:] == list(SWEEP_COLUMNS):   # a sweep.csv
                if rows[0][0] != "T":
                    raise ValueError(f"{args.csv} is a sweep over {rows[0][0]}; slope fits a T sweep")
                # each numeric column over the ok rows
                ok = [row for row in rows[1:] if row[-1] == "ok"]
                slopes = {name: fit_loglog_slope([(float(row[0]), float(row[at])) for row in ok])
                          for at, name in enumerate(SWEEP_COLUMNS[:-1], start=1)}
            else:
                try:
                    float(rows[0][0])
                except (IndexError, ValueError):
                    rows = rows[1:]   # no rows, or a header: its first cell is not a number
                slopes = {None: fit_loglog_slope([(float(r[0]), float(r[1])) for r in rows])}
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for name, slope in slopes.items():
            print(f"{slope!r}" if name is None else f"{name} = {slope!r}")
        return 0

    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
    except ConfigError as exc:
        for lineno, message in exc.violations:
            where = f"line {lineno}: " if lineno else ""
            print(f"{where}{message}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print("ok")
        print(plan_text(config), end="")
        return 0
    if args.out_dir == "":   # as validate refuses an empty output.directory
        print("error: --out-dir must be non-empty", file=sys.stderr)
        return 1
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
