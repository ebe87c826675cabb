"""Command-line entry point.

Subcommands: solve, exp-lambda-t, exp-t-a, exp-noise, bounds.
Exit codes: 0 success, 2 config error or an --out that cannot be written,
3 solver error or a pi too small for the data, 4 empty support.
"""

import argparse
import os
import sys

from . import experiments
from .config import check_non_negative, load_config
from .errors import ConfigError, DualSpikeError, EmptySupportError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_SUPPORT = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualspike",
        description="Spike recovery through the dual semi-infinite program, "
                    "plus its stability experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    # looked up per call, so a driver replaced after import is the one run
    for name, run, help_text in [
        ("solve", experiments.run_solve,
         "run one solve and write convergence/certificate/recovery CSVs"),
        ("exp-lambda-t", experiments.run_lambda_t,
         "location error vs dual error across iterations"),
        ("exp-t-a", experiments.run_t_a, "amplitude error vs location error across iterations"),
        ("exp-noise", experiments.run_noise, "dual and support error across the noise sweep"),
        ("bounds", experiments.run_bounds, "reference solve plus the full constants report"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--iters", type=int, default=None,
                         help="override the iteration count")
        if name == "exp-noise":
            cmd.add_argument("--jobs", type=int, default=1,
                             help="sweep points to run concurrently")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            check_non_negative("seed", args.seed)
            cfg.seed = args.seed
        if args.iters is not None:
            check_non_negative("iterations", args.iters)
            cfg.iterations = args.iters
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # before any solve: an --out that cannot be a directory fails here
        os.makedirs(args.out, exist_ok=True)
        # exp-noise by name: --jobs is its own
        if args.command == "exp-noise":
            paths, _ = experiments.run_noise(cfg, args.out, jobs=args.jobs)
        else:
            paths, _ = args.run(cfg, args.out)
        for path in paths:
            print(path)
    except EmptySupportError as exc:
        print(f"no support recovered: {exc}", file=sys.stderr)
        return EXIT_NO_SUPPORT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DualSpikeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
