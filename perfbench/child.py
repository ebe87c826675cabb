"""Run one dualspike CLI command in this process and report on it.

    python3 perfbench/child.py T0 RESULT MODE -- CLI_ARGS...

T0 is the parent's ``time.monotonic()`` just before it started this process,
so the set-up time counts interpreter start-up and imports.  MODE is
``run`` (the command as a user runs it), ``trace`` (the same with spans
recorded, see spans.py) or ``probe`` (stop at the first bundle iteration,
to measure set-up only).  RESULT receives a JSON object with the set-up
time, the CLI exit code and, when traced, the spans.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SetupDone(Exception):
    """Raised at the first bundle iteration of a probe."""


def main(argv):
    t0, result_path, mode = float(argv[1]), argv[2], argv[3]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dualspike import certificate, cli
    imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"dualspike imported from {cli.__file__}, not from this checkout")

    result = {"setup_s": None, "exit": None, "trace": None}
    main_entry = cli.main
    recorder = None
    if mode == "trace":
        from spans import Recorder
        recorder = Recorder()
        recorder.spans.append(["startup", t0, imported, -1])
        missing = recorder.install()
        main_entry = recorder.span("cli.main", cli.main)

    grid_class = certificate.CertificateGrid
    supremum = grid_class.supremum

    def first_iteration(*args, **kwargs):
        # every bundle iteration starts with one certificate supremum
        grid_class.supremum = supremum
        result["setup_s"] = time.monotonic() - t0
        if mode == "probe":
            raise SetupDone
        return supremum(*args, **kwargs)

    grid_class.supremum = first_iteration
    try:
        result["exit"] = main_entry(cli_args)
    except SetupDone:
        result["exit"] = 0
    if recorder is not None:
        result["trace"] = recorder.dump(missing)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
