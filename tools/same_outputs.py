"""Check that the benchmark commands write the same bytes at a git revision
and in the working tree.

    python3 tools/same_outputs.py REV

Extracts ``git archive REV`` into a temporary directory and copies the
working tree's files (tracked and untracked ones git does not ignore,
without ``.git`` and ``perfbench/out``) into a second one, so that both
sides run from paths of the same length.  It then runs the five benchmark
commands from each copy's source, at seeds 0, 1 and 2 with one BLAS
thread: ``solve --iters 1000`` on five-spike, and ``exp-noise --iters 100
--jobs 1``, ``exp-lambda-t``, ``exp-t-a`` and ``bounds`` on three-spike,
each command into its own directory.  A shared-directory pass then runs
``exp-lambda-t``, ``exp-t-a``, ``bounds`` and ``exp-noise``, in that order, into one
directory per seed, as a user who keeps one ``--out`` does; its artifacts
are compared once, after its last command, and reported under it.  Each
side uses its own ``configs/``.  Every artifact is compared byte for byte,
and each command's exit code and stdout, with its output directory
stripped.  An artifact that matches once the lines starting with
``# key=`` are dropped from both sides, as a reference record whose key
hashes changed package sources, is reported as differing only in its key
line.  Under any other CSV artifact that differs, indented lines say by
how much: a change in its row count, and per column, over the rows both
sides hold, the largest absolute and relative difference, or, where a
changed cell is not a finite number, how many rows differ.  Under a
differing ``exp_lambda_t.csv``, ``exp_t_a.csv`` or ``exp_noise.csv``,
further indented lines name each row, keyed by ``iter`` and ``source`` or
by ``w_c``, whose ``in_window`` or ``note`` moved.  They inform and decide
nothing: byte identity stays the verdict.  Ahead of the
comparison's result, and as information only: one line per command gives
its largest peak RSS over the seeds on each side (from ``os.wait4``), a
reading no larger than this process's own peak, which the child's reading
includes, showing as ``<= X MB``; one line per command and seed names a
solve that ran a different number of iterations on the two sides (the rows
of ``convergence.csv``, or ``rows=`` in ``reference.csv``); and one line
per seed of the shared-directory pass gives how many of its commands
solved the reference on each side, a command that solved listing
``reference.csv`` on stdout.  Every child writes its bytecode to a cache
inside its side's copy (``PYTHONPYCACHEPREFIX``), and
``PYTHONDONTWRITEBYTECODE`` is left out of the children's environment, so
neither side compiles its sources on every start, whatever this shell
sets; that policy is printed to stderr before the runs (stdout holds only
the comparison).  Exits 0 when everything
matches, 1 naming each difference, and 2 with one line when the
comparison cannot be made: REV names no revision, or a side's
``dualspike`` does not import from its own tree.  Standard library only.
"""

import argparse
import csv
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (("configs/five_spikes.cfg", ("solve", "--iters", "1000")),
            ("configs/three_spikes.cfg", ("exp-noise", "--iters", "100", "--jobs", "1")),
            ("configs/three_spikes.cfg", ("exp-lambda-t",)),
            ("configs/three_spikes.cfg", ("exp-t-a",)),
            ("configs/three_spikes.cfg", ("bounds",)))
SEEDS = (0, 1, 2)
# the shared-directory pass: these commands, in this order, into one directory
SHARED = tuple(next(command for command in COMMANDS if command[1][0] == name)
               for name in ("exp-lambda-t", "exp-t-a", "bounds", "exp-noise"))
# the artifacts whose rows carry a verdict, each with the columns that key
# its rows, and the verdict columns
VERDICT_KEYS = {"exp_lambda_t.csv": ("iter", "source"), "exp_t_a.csv": ("iter",),
                "exp_noise.csv": ("w_c",)}
VERDICT_COLUMNS = ("in_window", "note")
# the children's bytecode cache, under each side's copy
PYCACHE = ".pycache"


def fail(message):
    """Print ``message`` and exit 2: there is nothing to compare."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def extract(rev, dest):
    """Write the files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        fail(f"cannot read revision {rev}: {' '.join(archive.stderr.decode().split())}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def copy_tree(root, dest):
    """Copy the files of the git working tree at ``root`` into ``dest``:
    tracked and untracked ones that git does not ignore, as they are on
    disk, and none under ``perfbench/out`` (git never lists ``.git``)."""
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = Path(root, name)
        if name.startswith("perfbench/out/") or not source.is_file():
            continue
        target = Path(dest, name)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def bytecode_env(tree):
    """This process's environment for a child run from the copy at
    ``tree``: bytecode written to and read from ``PYCACHE`` there
    (``PYTHONPYCACHEPREFIX``), and no ``PYTHONDONTWRITEBYTECODE``."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tree / PYCACHE)
    return env


def bytecode_policy(trees):
    """The header line that states the children's bytecode policy for the
    copies ``trees``."""
    caches = ", ".join(str(tree / PYCACHE) for tree in trees)
    return (f"bytecode: each side's children cache it in {caches} (PYTHONPYCACHEPREFIX), "
            f"without PYTHONDONTWRITEBYTECODE")


def own_peak():
    """This process's peak RSS in MB as a child spawned now inherits it: the
    high-water mark of its memory (``VmHWM``).  ``RUSAGE_SELF`` can read
    more, a peak inherited at this process's own spawn, and stands in where
    /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, **kwargs):
    """Run ``args`` to its end: (exit code, stdout, peak RSS in MB, this
    process's own peak RSS in MB).  The child's peak counts the second,
    which is read once the child is done (a high-water mark only grows, so
    it bounds the one at the spawn), and is the child's own only when
    larger."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          **kwargs) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0, own_peak()


def artifacts(out):
    """{path under ``out``: bytes} of every file there."""
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def run_all(tree, out_root):
    """Run every command at every seed with ``tree``'s source, each into its
    own directory, then the shared-directory pass: a dict from (command,
    seed), or ("shared " + command, seed), to (exit code, stdout,
    {artifact path: bytes}, peak RSS in MB, this process's peak RSS in
    MB).  A shared command's artifacts are the directory's after
    it, for the pass's last command, and none for the others."""
    env = dict(bytecode_env(tree), OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    where = subprocess.run([sys.executable, "-c", "import dualspike; print(dualspike.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if where.returncode:
        error = where.stderr.strip().rpartition("\n")[2]
        fail(f"dualspike does not import from {tree}: {error}")
    if not Path(where.stdout.strip()).resolve().is_relative_to(tree.resolve()):
        fail(f"dualspike imported from {where.stdout.strip()}, not from {tree}")

    def command(config, args, out, seed):
        code, stdout, rss, own = run([sys.executable, "-m", "dualspike.cli", *args, "--config",
                                      config, "--out", str(out), "--seed", str(seed)],
                                     cwd=tree, env=env)
        return code, stdout.replace(str(out) + os.sep, "").replace(str(out), ""), rss, own

    results = {}
    for config, args in COMMANDS:
        for seed in SEEDS:
            out = out_root / f"{args[0]}-seed{seed}"
            code, stdout, rss, own = command(config, args, out, seed)
            results[args[0], seed] = code, stdout, artifacts(out), rss, own
    for seed in SEEDS:
        out = out_root / f"shared-seed{seed}"
        for k, (config, args) in enumerate(SHARED, start=1):
            code, stdout, rss, own = command(config, args, out, seed)
            files = artifacts(out) if k == len(SHARED) else {}
            results[f"shared {args[0]}", seed] = code, stdout, files, rss, own
    return results


def peak_rss(rev, old, new):
    """One line per command: its largest peak RSS over the seeds, at
    ``rev`` and in the tree, as ``<= X MB`` when that reading did not
    exceed this process's own peak."""
    def largest(results, command):
        rss, own = max(results[command, seed][3:] for seed in SEEDS)
        return f"{rss:.2f} MB" if rss > own else f"<= {rss:.2f} MB"

    return [f"{command}: peak RSS {largest(old, command)} at {rev}, "
            f"{largest(new, command)} in the tree" for _, (command, *_) in COMMANDS]


def iterations(files):
    """The iterations of the solve behind a command's artifacts: the rows of
    ``convergence.csv``, or ``rows=`` on the key line of ``reference.csv``;
    None when neither says."""
    if "convergence.csv" in files:
        return len(csv_table(files["convergence.csv"])[1])
    for line in files.get("reference.csv", b"").splitlines():
        if line.startswith(b"# key=") and b" rows=" in line:
            return int(line.rpartition(b" rows=")[2])
    return None


def solve_lengths(rev, old, new):
    """One line per command and seed whose solve ran a different number of
    iterations at ``rev`` and in the tree (``iterations``)."""
    lines = []
    for (command, seed), (_, _, old_files, *_) in old.items():
        before, after = iterations(old_files), iterations(new[command, seed][2])
        if before != after:
            lines.append(f"{command} seed {seed}: the solve ran {before} iterations at {rev}, "
                         f"{after} in the tree")
    return lines


def shared_solves(rev, old, new):
    """One line per seed: how many commands of the shared-directory pass
    solved the reference at ``rev`` and in the tree.  A command that solved
    lists ``reference.csv`` on stdout."""
    def solved(results, seed):
        return sum(command.startswith("shared ") and "reference.csv" in stdout.splitlines()
                   for (command, at), (_, stdout, *_) in results.items() if at == seed)

    return [f"shared pass seed {seed}: reference solves {solved(old, seed)} at {rev}, "
            f"{solved(new, seed)} in the tree" for seed in SEEDS]


def without_key(data):
    """The bytes of ``data`` without its lines that start with ``# key=``."""
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# key="))


def csv_table(data):
    """(header, rows) of CSV bytes, its lines that start with ``#`` dropped."""
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    table = list(csv.reader(lines)) or [[]]
    return table[0], table[1:]


def finite(cell):
    """The cell's value when it is a finite number, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_changes(rev, old_data, new_data):
    """How two CSV artifacts differ in value, one line per change: the row
    count, the columns that only one side has, and per column both have,
    over the rows both hold, the largest absolute and relative difference
    (relative to the larger magnitude), or, where a changed cell is not a
    finite number on both sides, the count of rows that differ; one line
    that says so when only comment lines differ."""
    (old_header, old_rows), (new_header, new_rows) = csv_table(old_data), csv_table(new_data)
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(f"rows: {len(old_rows)} at {rev}, {len(new_rows)} in the tree")
    for names, where in ((set(old_header) - set(new_header), f"at {rev}"),
                         (set(new_header) - set(old_header), "in the tree")):
        if names:
            lines.append(f"columns only {where}: {', '.join(sorted(names))}")
    shared = min(len(old_rows), len(new_rows))
    for name in new_header:
        if name not in old_header:
            continue
        i, j = old_header.index(name), new_header.index(name)
        # a short row, as a cut-off last line leaves, reads as empty cells
        cells = [(a[i] if i < len(a) else "", b[j] if j < len(b) else "")
                 for a, b in zip(old_rows, new_rows)]
        changed = [(a, b) for a, b in cells if a != b]
        if not changed:
            continue
        values = [(finite(a), finite(b)) for a, b in changed]
        if any(a is None or b is None for a, b in values):
            lines.append(f"{name}: {len(changed)} of {shared} rows differ, not all numbers")
            continue
        largest = max(abs(a - b) for a, b in values)
        relative = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in values)
        lines.append(f"{name}: largest difference {largest:.3g} absolute, {relative:.3g} "
                     f"relative ({len(changed)} of {shared} rows differ)")
    return lines or ["every value is the same: only lines starting with # differ"]


def moved_verdicts(rev, old_data, new_data, keys):
    """One line per row of two CSV artifacts whose ``VERDICT_COLUMNS``
    differ, the rows matched by their cells in the columns ``keys``, in
    the order of the rows at ``rev``.  A row that one side lacks is left to
    the row count of ``csv_changes``."""
    def verdicts(data):
        header, rows = csv_table(data)
        if not set(keys) <= set(header):
            return {}
        named = [name for name in VERDICT_COLUMNS if name in header]

        def cell(row, name):
            # a short row, as a cut-off last line leaves, reads as empty cells
            i = header.index(name)
            return row[i] if i < len(row) else ""

        return {tuple(cell(row, name) for name in keys): {name: cell(row, name) for name in named}
                for row in rows}

    before, after = verdicts(old_data), verdicts(new_data)
    lines = []
    for key, old_cells in before.items():
        new_cells = after.get(key, {})
        moved = [f'{name} "{value}" at {rev}, "{new_cells[name]}" in the tree'
                 for name, value in old_cells.items()
                 if name in new_cells and new_cells[name] != value]
        if moved:
            label = ", ".join(f"{name} {cell}" for name, cell in zip(keys, key))
            lines.append(f"{label}: {'; '.join(moved)}")
    return lines


def compared(rev, old, new):
    """(line, detail lines) per exit code, stdout or artifact that differs;
    an artifact equal once its ``# key=`` lines are dropped differs only in
    its key line, and any other CSV artifact that differs has its
    ``csv_changes`` as detail, then, for the ``VERDICT_KEYS`` artifacts,
    its ``moved_verdicts``."""
    found = []
    for (command, seed), (old_code, old_out, old_files, *_) in old.items():
        new_code, new_out, new_files, *_ = new[command, seed]
        label = f"{command} seed {seed}"
        if old_code != new_code:
            found.append((f"{label}: exit code {old_code} at {rev}, {new_code} in the tree", []))
        if old_out != new_out:
            found.append((f"{label}: stdout differs", []))
        for name in sorted(old_files.keys() | new_files.keys()):
            if name not in new_files:
                found.append((f"{label}: {name} written only at {rev}", []))
            elif name not in old_files:
                found.append((f"{label}: {name} written only in the tree", []))
            elif old_files[name] != new_files[name]:
                if without_key(old_files[name]) == without_key(new_files[name]):
                    found.append((f"{label}: {name} differs only in its key line", []))
                else:
                    detail = []
                    if name.endswith(".csv"):
                        detail = csv_changes(rev, old_files[name], new_files[name])
                    if name in VERDICT_KEYS:
                        detail += moved_verdicts(rev, old_files[name], new_files[name],
                                                 VERDICT_KEYS[name])
                    found.append((f"{label}: {name} differs", detail))
    return found


def differences(rev, old, new):
    """The lines of ``compared``, without their detail."""
    return [line for line, _ in compared(rev, old, new)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # "rev" and "new": both sides' paths have one length
        for side in ("rev", "new"):
            (tmp / side).mkdir()
        extract(rev, tmp / "rev")
        copy_tree(ROOT, tmp / "new")
        print(bytecode_policy((tmp / "rev", tmp / "new")), file=sys.stderr)
        old = run_all(tmp / "rev", tmp / "out-rev")
        new = run_all(tmp / "new", tmp / "out-new")
    for line in [*peak_rss(rev, old, new), *solve_lengths(rev, old, new),
                 *shared_solves(rev, old, new)]:
        print(line)
    found = compared(rev, old, new)
    for line, detail in found:
        print(line)
        for extra in detail:
            print(f"    {extra}")
    if found:
        return 1
    written = sum(len(files) for _, _, files, *_ in new.values())
    print(f"identical: {written} artifacts and {len(new)} stdouts of {len(COMMANDS)} "
          f"commands and the shared-directory pass at seeds {', '.join(map(str, SEEDS))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
