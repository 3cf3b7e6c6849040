"""racelab benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; racelab is imported from its src/.  Each
pass is a fresh interpreter (worker.py) that imports racelab, builds the
workload's inputs from the seed, runs every op once, one at a time, and then
checks every output with an oracle.  A run makes about --seconds worth of
passes; fresh interpreters keep racelab's caches cold, as in every CLI call.

--trace 0 prints the end-to-end metrics (medians over passes), --trace 1 the
per-layer metrics (medians over traced passes).  The times of --trace 0 are
scaled to a reference host speed with the probes of speed.py; the run and
its children are pinned to one CPU, so that the probes see the speed the ops
ran at.  The last stdout line is the result JSON; the line before it is the
run record (machine, versions, git revision, thread pins, digest, op counts,
and the wall times before scaling).

The children run in a temporary directory under .perfbench_tmp/ in the
checkout, never in the tracked tree, and it is removed at exit.  It is not the
system temp directory because a run must read and write only inside its
checkout.  A directory left by a run that was killed outright is removed by
the next run, once its process is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

WORKLOADS = ("thm311-sweep", "layered-census", "real-race", "cli-readme")
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
# wall time of one child (set-up + pass) on a shared 2-core x86 VM at the
# commit that defined the benchmark; fixes the number of passes per run
NOMINAL_PASS_S = {"thm311-sweep": 4.4, "layered-census": 5.3,
                  "real-race": 3.6, "cli-readme": 12.5,
                  "cli-readme-inproc": 2.2}
PASS_CAP = 1.5          # stop early once a run would exceed 1.5 x --seconds
MIN_SETUP_SAMPLES = 6   # set-up-only children top up the passes' samples
TAIL_BEYOND = 10        # op_tail_s: highest percentile with >= 10 samples above
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    pass


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               TMPDIR=str(tmp))
    env.pop("RACE_LAB_BUDGET", None)  # the default 1e8 sieve budget
    return env


def spawn(args, env: dict, tmp: Path, n: int, mode: str, traced: bool,
          inproc: bool) -> dict:
    """Run one worker in its own directory; return its result with
    setup_s measured from just before the interpreter starts."""
    workdir = tmp / f"child-{n}"
    workdir.mkdir()
    out, spans = workdir / "result.json", workdir / "spans.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--trace", str(int(traced)),
           "--inproc", str(int(inproc)), "--src", str(SRC),
           "--out", str(out), "--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout, or this run being stopped
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise HarnessError(f"worker timed out after {CHILD_TIMEOUT_S} s")
        raise
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n"
                           + err.decode(errors="replace")[-2000:])
    res = json.loads(out.read_text(encoding="utf-8"))
    res["setup_s"] = res["setup_done"] - t0
    res["setup_ref_s"] = res["setup_s"] * to_ref(res["setup_probe_s"],
                                                 res["setup_probes"])
    if traced:
        res["spans"] = json.loads(spans.read_text(encoding="utf-8"))
    return res


def to_ref(probe_s: float, probes: int) -> float:
    """Factor from wall time to time at the reference host speed, from the
    probes run around it."""
    return speed.REF_S * probes / probe_s


def tail(values: list) -> tuple:
    """(value, percentile, samples above it) at the highest percentile that
    still has TAIL_BEYOND samples above it; the maximum if there are fewer."""
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def git_revision() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return {"rev": None, "dirty": None}
        st = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=30)
        return {"rev": rev.stdout.strip(), "dirty": bool(st.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": None, "dirty": None}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def make_tmp() -> Path:
    """A fresh directory for this run's children, named after this process;
    directories of runs whose process has ended are removed first."""
    TMP_ROOT.mkdir(exist_ok=True)
    for old in TMP_ROOT.glob("run-*-*"):
        try:
            os.kill(int(old.name.split("-")[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(old, ignore_errors=True)
        except (ValueError, OSError):
            pass  # not ours, or alive under another user
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=TMP_ROOT))


def measure(args, tmp: Path) -> tuple:
    """Run the passes and the set-up-only children.  The number of passes is
    --seconds over the nominal pass time, so a run does the same work, and
    pools the same number of op latencies, on every commit; on a slow
    machine the run ends early rather than exceed PASS_CAP x --seconds."""
    env = child_env(tmp)
    traced = bool(args.trace)
    inproc = traced and args.workload == "cli-readme"
    nominal = NOMINAL_PASS_S["cli-readme-inproc" if inproc else args.workload]
    planned = max(1, int(args.seconds // nominal))
    passes: list = []
    start = time.monotonic()
    while len(passes) < planned:
        passes.append(spawn(args, env, tmp, len(passes), "pass", traced,
                            inproc))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > PASS_CAP * args.seconds:
            break
    setups = list(passes)
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(args, env, tmp, len(setups), "setup", False,
                            False))
    return passes, setups


def end_to_end(passes: list, setups: list) -> tuple:
    """The gated metrics, and the op latencies for the record: their spread
    from run to run is wider than any bound BENCHMARK.json may set (see
    README.md), so they are reported but not gated."""
    lats = [op["latency_s"] for p in passes for op in p["ops"]]
    tail_value, pct, beyond = tail(lats)
    metrics = {
        "setup_s": (statistics.median(c["setup_ref_s"] for c in setups), "s"),
        "run_s": (statistics.median(
            p["pass_s"] * to_ref(p["pass_probe_s"], p["pass_probes"])
            for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    return metrics, {"wall": {
        "setup_s": statistics.median(c["setup_s"] for c in setups),
        "run_s": statistics.median(p["pass_s"] for p in passes),
        "probe_s": statistics.median(p["pass_probe_s"] / p["pass_probes"]
                                     for p in passes)},
        "op_latency": {
        "op_p50_s": {"value": statistics.median(lats), "unit": "s"},
        "op_tail_s": {"value": tail_value, "unit": "s", "percentile": pct,
                      "samples_beyond": beyond},
        "samples": len(lats)}}


def per_layer(passes: list) -> dict:
    import spans
    traced = [spans.derive(p["spans"]) for p in passes]
    metrics = {}
    for name, unit in spans.PER_LAYER.items():
        if name == "cli.import_s":
            value = statistics.median(p["import_s"] for p in passes)
        else:
            value = statistics.median(t[name] for t in traced)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # one CPU for the run and its children: the probes then measure the
    # CPU the ops ran on (the two CPUs of a shared VM drift apart)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a stopped run still stops its children and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "racelab" / "__init__.py").is_file():
        print(f"error: no racelab sources under {SRC}", file=sys.stderr)
        return 2

    tmp = make_tmp()
    try:
        passes, setups = measure(args, tmp)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    digests = sorted({p["digest"] for p in passes})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_s": [round(p["pass_s"], 4) for p in passes],
        "setup_samples": len(setups), "digest": digests[0],
        "digests_agree": len(digests) == 1,
        "ops_attempted": len(ops), "ops_failed": len(failed),
        "ops_failed_frac": len(failed) / len(ops),
        "ops_documented": sum(op["documented"] for op in ops),
        "failures": [{"op": op["name"], "note": op["note"]}
                     for op in failed[:5]],
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": passes[0]["python"], **passes[0]["versions"]},
        "git": git_revision(), "threads": THREAD_PINS,
        "load": "closed loop, 1 client, 1 process",
    }
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics, extra = end_to_end(passes, setups)
        record.update(extra)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed and len(digests) == 1,
        "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
