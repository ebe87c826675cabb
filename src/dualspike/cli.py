"""Command-line entry point.

Subcommands: solve, exp-lambda-t, exp-t-a, exp-noise, bounds.  Flags are
read with ``getopt``: ``--flag value`` or ``--flag=value``, any unique
prefix of a flag, the last of a repeated flag.
Exit codes: 0 success (or the help), 2 usage error, config error or an --out
that cannot be written, 3 solver error or a pi too small for the data,
4 empty support.
"""

import getopt
import os
import sys

from . import experiments
from .config import check_non_negative, load_config
from .errors import ConfigError, DualSpikeError, EmptySupportError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_SUPPORT = 4

# name, driver in experiments (looked up per call, so a driver replaced
# after import is the one run), help line
COMMANDS = (
    ("solve", "run_solve", "run one solve and write convergence/certificate/recovery CSVs"),
    ("exp-lambda-t", "run_lambda_t", "location error vs dual error across iterations"),
    ("exp-t-a", "run_t_a", "amplitude error vs location error across iterations"),
    ("exp-noise", "run_noise", "dual and support error across the noise sweep"),
    ("bounds", "run_bounds", "reference solve plus the full constants report"),
)
# flag, help line; each takes a value, and --jobs is exp-noise's alone
FLAGS = (
    ("config", "path to a key=value config file (required)"),
    ("out", "output directory (default: out)"),
    ("seed", "override the config seed"),
    ("iters", "override the iteration count"),
    ("jobs", "exp-noise only: sweep points to run concurrently (default: 1)"),
)
USAGE = ("usage: dualspike [-h] COMMAND --config CONFIG [--out OUT] [--seed SEED]\n"
         "                 [--iters ITERS] [--jobs JOBS]\n")


def _help():
    commands = "".join(f"  {name:<14}{text}\n" for name, _, text in COMMANDS)
    flags = "".join(f"  {f'--{flag} {flag.upper()}':<17}{text}\n" for flag, text in FLAGS)
    return (f"{USAGE}\nSpike recovery through the dual semi-infinite program, plus its\n"
            f"stability experiments.\n\ncommands:\n{commands}\noptions:\n"
            f"  {'-h, --help':<17}show this help message and exit\n{flags}")


def _usage_error(message):
    sys.stderr.write(f"{USAGE}dualspike: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _parse(argv):
    """(the command's driver name, {flag: value}) from the command line,
    the integer flags as ints; the help exits 0, a usage error exits 2."""
    command, drivers = None, {name: driver for name, driver, _ in COMMANDS}
    try:
        # before the command, only the help
        opts, args = getopt.getopt(argv, "h", ["help"])
        if args and not opts:
            command, *args = args
            if command not in drivers:
                raise getopt.GetoptError(f"invalid choice: {command!r} "
                                         f"(choose from {', '.join(drivers)})")
            flags = [f"{flag}=" for flag, _ in FLAGS if flag != "jobs" or command == "exp-noise"]
            opts, args = getopt.getopt(args, "h", ["help", *flags])
    except getopt.GetoptError as exc:
        _usage_error(exc.msg)
    values = dict(opts)
    if "-h" in values or "--help" in values:
        sys.stdout.write(_help())
        raise SystemExit(EXIT_OK)
    if command is None:
        _usage_error("the following arguments are required: COMMAND")
    if args:
        _usage_error(f"unrecognized arguments: {' '.join(args)}")
    if "--config" not in values:
        _usage_error("the following arguments are required: --config")
    for flag in ("--seed", "--iters", "--jobs"):
        if flag in values:
            try:
                values[flag] = int(values[flag])
            except ValueError:
                _usage_error(f"argument {flag}: invalid int value: {values[flag]!r}")
    return drivers[command], values


def main(argv=None):
    driver, values = _parse(sys.argv[1:] if argv is None else argv)
    try:
        cfg = load_config(values["--config"])
        if "--seed" in values:
            check_non_negative("seed", values["--seed"])
            cfg.seed = values["--seed"]
        if "--iters" in values:
            check_non_negative("iterations", values["--iters"])
            cfg.iterations = values["--iters"]
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = values.get("--out", "out")
    try:
        # before any solve: an --out that cannot be a directory fails here
        os.makedirs(out, exist_ok=True)
        # run_noise by name: --jobs is its own
        if driver == "run_noise":
            paths, _ = experiments.run_noise(cfg, out, jobs=values.get("--jobs", 1))
        else:
            paths, _ = getattr(experiments, driver)(cfg, out)
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
