#!/usr/bin/env python3
"""Run the README's "Command line" block, in order, and report what each
command loads and how large its process grows.

The commands run in one temporary directory, so the files one writes are
the ones the next reads (rec.json, ext.json, ...); an argument naming a
file of the repository (the chi3 zeros) is given its absolute path.  Each
command is its own `python -c` child that imports `racelab.cli` and then
calls `cli.main` on the command's arguments, its output discarded.

To stdout, one JSON line per command: its arguments, its exit code and the
modules it loaded beyond `import racelab.cli`, sorted.  This part is
deterministic, so the output of two source trees can be diffed.  To stderr
only: first the import floor, the median wall time and the largest max RSS
of IMPORT_RUNS children that only run `import racelab.cli`; then each
command's wall time (interpreter start included) and the child's max RSS
(`getrusage`, Linux kB).

Usage:
    python tools/cli_footprint.py > footprint.jsonl
    diff old.jsonl new.jsonl
"""

import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the child: what `import racelab.cli` loads is the base, and the command's
# report goes to the file named in argv[1], apart from its own output
CHILD = """\
import contextlib, io, json, resource, sys
import racelab.cli
base = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = racelab.cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"exit": code, "modules": sorted(set(sys.modules) - base),
               "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF)
               .ru_maxrss}, fh)
"""

# the import floor: a child that imports racelab.cli and prints its max RSS
IMPORT_CHILD = ("import resource, racelab.cli; "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
IMPORT_RUNS = 5


def import_floor(env: dict, cwd: str) -> tuple:
    """Median wall time (s) and largest max RSS (MB) of IMPORT_RUNS
    children that only import racelab.cli."""
    walls, rss = [], []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=cwd,
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        walls.append(time.perf_counter() - start)
        rss.append(int(out) / 1024)
    return statistics.median(walls), max(rss)


def readme_commands() -> list:
    """The argument lists of the README's "Command line" block, with
    backslash continuations joined and the leading `racelab` dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.strip().startswith("racelab ")]


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / ".footprint.json"
        wall, rss = import_floor(env, tmp)
        print(f"{wall:7.3f} s {rss:7.1f} MB  import racelab.cli (median wall "
              f"and max RSS of {IMPORT_RUNS})", file=sys.stderr, flush=True)
        for argv in readme_commands():
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(report),
                 *(str(ROOT / a) if "/" in a and (ROOT / a).is_file() else a
                   for a in argv)],
                cwd=tmp, env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:  # the child itself failed
                failed += 1
                print(f"child failed ({proc.returncode}): {shlex.join(argv)}\n"
                      f"{proc.stderr}", file=sys.stderr)
                continue
            got = json.loads(report.read_text(encoding="utf-8"))
            print(json.dumps({"argv": argv, "exit": got["exit"],
                              "modules": got["modules"]}), flush=True)
            print(f"{wall:7.3f} s {got['max_rss_kb'] / 1024:7.1f} MB  "
                  f"{shlex.join(argv)}", file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
