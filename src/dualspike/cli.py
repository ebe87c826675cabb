"""Command-line entry point.

Subcommands: solve, exp-lambda-t, exp-t-a, exp-noise, bounds.
Exit codes: 0 success, 2 config error, 3 solver error, 4 empty support.
"""

import argparse
import sys

from . import experiments
from .config import check_seed, load_config
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
    for name, help_text in [
        ("solve", "run one solve and write convergence/certificate/recovery CSVs"),
        ("exp-lambda-t", "location error vs dual error across iterations"),
        ("exp-t-a", "amplitude error vs location error across iterations"),
        ("exp-noise", "dual and support error across the noise sweep"),
        ("bounds", "reference solve plus the full constants report"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
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
            check_seed(args.seed)
            cfg.seed = args.seed
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.iters is not None:
        if args.command in ("exp-lambda-t", "exp-t-a", "bounds"):
            cfg.reference_iterations = args.iters
        else:
            cfg.iterations = args.iters

    try:
        if args.command == "solve":
            for path in experiments.run_solve(cfg, args.out):
                print(path)
        elif args.command == "exp-lambda-t":
            path, _ = experiments.run_lambda_t(cfg, args.out)
            print(path)
        elif args.command == "exp-t-a":
            path, _ = experiments.run_t_a(cfg, args.out)
            print(path)
        elif args.command == "exp-noise":
            path, _ = experiments.run_noise(cfg, args.out, jobs=args.jobs)
            print(path)
        elif args.command == "bounds":
            _, paths = experiments.run_bounds(cfg, args.out)
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
