"""Command line front end.

    qimcf run --config FILE [--out DIR]
    qimcf sweep --config FILE --vary KEY=V1,V2,... [--vary ...] [--out DIR]

A run or sweep writes under --out when given, else under the config's
output.dir.  A usage error, a config file that is not UTF-8 (a
byte-order mark is allowed), a config with an invalid value, or an empty
--out, is refused with exit code 1 before anything is written.
"""

import argparse
import logging
import sys

from .config import ConfigError, parse_config
from .harness import EXIT_CONFIG, EXIT_OK, run_experiment, sweep


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8: {err}",
                          err.object.count(b"\n", 0, err.start) + 1)
    return parse_config(text)


def _parse_vary(entries):
    vary = []
    for entry in entries:
        key, sep, values = entry.partition("=")
        if not sep or not key or not values:
            raise ConfigError(f"--vary expects KEY=V1,V2,..., got {entry!r}")
        vary.append((key.strip(), [v.strip() for v in values.split(",")]))
    return vary


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    result = run_experiment(cfg, out_dir=args.out)
    if result.exit_code == EXIT_OK:
        rep = result.report
        print(f"run complete: {result.out_dir}")
        print(f"  Q_final = {rep['Q_final']:.6g}, limit_Q = "
              f"{rep['limit_Q']:.6g}, verdict = {rep['verdict']}")
    else:
        print(f"run failed with exit code {result.exit_code}; partial "
              f"diagnostics in {result.out_dir}", file=sys.stderr)
    return result.exit_code


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    rows = sweep(cfg, _parse_vary(args.vary), out_dir=args.out)
    failed = sum(1 for row in rows if row["exit_code"] != EXIT_OK)
    print(f"sweep complete: {len(rows)} cells, {failed} failed")
    for row in rows:
        print("  " + ", ".join(f"{c}={v}" for c, v in row.items()))
    return EXIT_OK if failed == 0 else EXIT_CONFIG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qimcf",
        description="Inverse mean curvature flow of invariant star-shaped "
                    "hypersurfaces in quaternionic hyperbolic space")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", help="output directory override")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True, help="config file path")
    p_sweep.add_argument("--vary", action="append", required=True,
                         metavar="KEY=V1,V2,...",
                         help="axis to vary; repeat for a product sweep")
    p_sweep.add_argument("--out", help="output directory override")

    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2, MeanConvexityLost's code, on a usage error
        return stop.code and EXIT_CONFIG
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
