"""One measured child: a fresh interpreter that sets up a workload and, in
`pass` mode, runs its ops once (one op at a time, no threads of its own).

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP pools pinned to one thread.  The result is written as JSON to
--out; span data of a traced pass goes to --spans.  Host-speed probes
(speed.py) run right after set-up and after every op, outside the op's
timing; their total time is part of the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_PROBES = 6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass"], required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inproc", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t_import = time.perf_counter()
    import racelab.cli  # the CLI imports every layer, scipy included
    import_s = time.perf_counter() - t_import
    src = Path(args.src).resolve()
    if src not in Path(racelab.__file__).resolve().parents:
        print(f"racelab imported from {racelab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import speed
    import workloads
    workdir = Path.cwd()
    ops = workloads.make(args.workload, args.seed, workdir,
                         inproc=bool(args.inproc))
    setup_done = time.monotonic()
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    out = {"setup_done": setup_done, "import_s": import_s,
           "setup_probe_s": sum(probes), "setup_probes": len(probes)}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(out), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    outcomes = []
    probe_s = 0.0
    clock = time.perf_counter
    t_pass = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            outcomes.append(("result", op.run()))
        except workloads.Documented as exc:
            outcomes.append(("documented", exc.code))
        except Exception:  # an unexpected exception fails the op
            outcomes.append(("error", traceback.format_exc(limit=3)))
        outcomes[-1] += (clock() - t,)
        probe_s += speed.probe()
    pass_s = clock() - t_pass - probe_s
    if tracer is not None:
        tracer.dump(args.spans)

    records, items = [], []
    for op, (kind, value, lat) in zip(ops, outcomes):
        ok, item, note = kind == "documented", [op.name, kind, value], None
        if kind == "result":
            try:
                ok, item = op.check(value)
            except Exception:  # a crashing oracle fails the op
                ok, item, note = False, [op.name, "check-error"], \
                    traceback.format_exc(limit=3)
        elif kind == "error":
            item, note = [op.name, "error"], value
        if not ok and note is None:
            note = f"oracle rejected {item}"
        records.append({"name": op.name, "latency_s": lat, "ok": ok,
                        "documented": kind == "documented", "note": note})
        items.append(item)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update(pass_s=pass_s, pass_probe_s=probe_s, pass_probes=len(ops),
               ops=records, digest=workloads.digest(items),
               peak_rss_mb=rss_kb / 1024.0,
               versions={name: getattr(sys.modules.get(name), "__version__",
                                       None)
                         for name in ("numpy", "scipy")},
               python=sys.version.split()[0])
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
