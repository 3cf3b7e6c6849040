"""Span tracing at racelab's layer boundaries, installed only in traced runs.

`Tracer.install()` replaces each public function listed in `SPECS` by a
timing wrapper, in its own module and in every racelab module that bound
the same function object by name (so `barriers.characters`,
`barriers.theorem_decomposition`, ... are traced where barriers calls them).
Per-scalar methods such as `TrigPoly.__call__` are never wrapped.

Spans are kept in memory as (metric, start, end, parent, op, counts) and
written out by `dump`; `derive` turns them into the per-layer metrics:
a busy metric is the summed self time (span minus its direct children), and
a count is summed from the counts recorded at the same boundary.  Counts
marked "computed" in PER_LAYER are derived from call arguments or results.
trace.overhead_s is what the wrappers cost the pass: the number of spans
times the cost of one wrapped call, measured in the same process after the
pass, plus the time spent in the counters.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "residues.busy_s": "s",
    "residues.chars_built": "count",        # computed: sum of phi(q), cold q
    "residues.phase_entries": "count",      # computed: sum of phi(q)^2
    "trigpoly.scan_busy_s": "s",
    "trigpoly.scan_calls": "count",
    "trigpoly.scan_grid_points": "count",   # computed from (lo, hi, step)
    "trigpoly.scan_finest_step": "rad",     # smallest certified cell; 0 if no scan
    "trigpoly.search_busy_s": "s",
    "zerosys.busy_s": "s",
    "zerosys.calls": "count",
    "simulator.decomp_busy_s": "s",
    "simulator.trace_busy_s": "s",
    "simulator.trace_cells": "count",       # members x samples
    "simulator.formula_busy_s": "s",
    "simulator.formula_points": "count",    # samples x distinct zeros
    "barriers.build_busy_s": "s",
    "barriers.verify_busy_s": "s",
    "barriers.conditions_busy_s": "s",
    "barriers.wave_pairs": "count",         # computed from the level orders
    "barriers.condition_d_evals": "count",  # computed: wave calls in (D)
    "barriers.omega_busy_s": "s",
    "barriers.k_escalations": "count",      # from the recipe's K vs. asked
    "barriers.n_escalations": "count",      # from the recipe's N vs. asked
    "orderings.census_busy_s": "s",
    "orderings.crossings_busy_s": "s",
    "orderings.verdict_busy_s": "s",
    "orderings.samples": "count",
    "orderings.crossings_found": "count",
    "orderings.strict_orderings": "count",
    "primes.sieve_busy_s": "s",
    "primes.integers_sieved": "count",      # computed: x_max of each sieve
    "primes.primes_counted": "count",
    "primes.lead_change_busy_s": "s",
    "primes.compare_busy_s": "s",
    "cli.import_s": "s",
    "cli.main_busy_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# --- counters: (tracer, args, kwargs, result) -> {metric: increment} --------


def _count_characters(tr: "Tracer", args, kwargs, result) -> Dict[str, int]:
    q = _arg(args, kwargs, 0, "q")
    if q in tr.seen_moduli:
        return {}
    tr.seen_moduli.add(q)
    n = len(result)
    return {"residues.chars_built": n, "residues.phase_entries": n * n}


def _count_scan(tr, args, kwargs, result) -> Dict[str, Any]:
    lo, hi = _arg(args, kwargs, 2, "lo"), _arg(args, kwargs, 3, "hi")
    step = _arg(args, kwargs, 4, "step")
    tr.finest = min(tr.finest, result.certified_step)
    return {"trigpoly.scan_calls": 1,
            "trigpoly.scan_grid_points":
                max(int(math.ceil((hi - lo) / step)) + 1, 3)}


def _count_trace(tr, args, kwargs, result) -> Dict[str, int]:
    if _arg(args, kwargs, 3, "mode", "dominant-only") == "full-formula":
        system = _arg(args, kwargs, 0, "s").system
        return {"simulator.formula_points":
                    len(result.u) * len(system.all_zeros())}
    return {"simulator.trace_cells": int(result.values.size)}


def _count_period_trace(tr, args, kwargs, result) -> Dict[str, int]:
    return {"simulator.trace_cells": int(result.values.size)}


def _count_conditions(tr, args, kwargs, result) -> Dict[str, int]:
    orders = _arg(args, kwargs, 0, "recipe").params["orders"]
    pairs = [n * (n - 1) // 2 for n in orders]
    evals = 0
    for jp in range(len(orders)):
        for j in range(jp + 1, len(orders)):
            n = orders[j]
            quads = n ** 4 - 2 * n * n + n  # (a3,a4) != (a5,a6), not both ties
            evals += 2 * pairs[jp] * quads * 4
    return {"barriers.wave_pairs": sum(pairs),
            "barriers.condition_d_evals": evals}


def _count_extremal(tr, args, kwargs, result) -> Dict[str, int]:
    K = _arg(args, kwargs, 5, "K", 16)
    N = _arg(args, kwargs, 6, "N", 64)
    p = result.params
    return {"barriers.k_escalations": int(round(math.log2(p["K"] / K))),
            "barriers.n_escalations": int(round(math.log2(p["N"] / N)))}


def _count_census(tr, args, kwargs, result) -> Dict[str, int]:
    return {"orderings.samples": len(_arg(args, kwargs, 0, "trace").u),
            "orderings.strict_orderings": result.strict_count}


def _count_crossings(tr, args, kwargs, result) -> Dict[str, int]:
    return {"orderings.crossings_found": len(result)}


def _count_sieve(tr, args, kwargs, result) -> Dict[str, int]:
    return {"primes.integers_sieved": int(_arg(args, kwargs, 1, "x_max")),
            "primes.primes_counted": int(result.pi[-1])}


def _trace_metric(args, kwargs) -> str:
    mode = _arg(args, kwargs, 3, "mode", "dominant-only")
    return "simulator.formula_busy_s" if mode == "full-formula" \
        else "simulator.trace_busy_s"


# (module, function, busy metric or callable(args, kwargs) -> metric, counter)
SPECS = [
    ("residues", "unit_group", "residues.busy_s", None),
    ("residues", "characters", "residues.busy_s", _count_characters),
    ("residues", "character_with_value", "residues.busy_s", None),
    ("residues", "sqrt_count", "residues.busy_s", None),
    ("trigpoly", "certified_positive_scan", "trigpoly.scan_busy_s", _count_scan),
    ("trigpoly", "find_fractional_parts", "trigpoly.search_busy_s", None),
    ("trigpoly", "find_all_negative", "trigpoly.search_busy_s", None),
    ("trigpoly", "find_simultaneous_positive", "trigpoly.search_busy_s", None),
    ("trigpoly", "find_dominating", "trigpoly.search_busy_s", None),
    ("zerosys", "dominant_data", "zerosys.busy_s", None),
    ("zerosys", "is_kt_candidate", "zerosys.busy_s", None),
    ("zerosys", "load_zero_data", "zerosys.busy_s", None),
    ("simulator", "theorem_decomposition", "simulator.decomp_busy_s", None),
    ("simulator", "dominant_member_values", "simulator.trace_busy_s", None),
    ("simulator", "one_period_trace", "simulator.trace_busy_s", _count_period_trace),
    ("simulator", "trace", _trace_metric, _count_trace),
    ("barriers", "build_thm311", "barriers.build_busy_s", None),
    ("barriers", "build_thm51", "barriers.build_busy_s", None),
    ("barriers", "build_extremal", "barriers.build_busy_s", _count_extremal),
    ("barriers", "verify_thm311", "barriers.verify_busy_s", None),
    ("barriers", "scan_qpr_properties", "barriers.verify_busy_s", None),
    ("barriers", "check_thm51_conditions", "barriers.conditions_busy_s", _count_conditions),
    ("barriers", "check_omega_type", "barriers.omega_busy_s", None),
    ("orderings", "census", "orderings.census_busy_s", _count_census),
    ("orderings", "detect_crossings", "orderings.crossings_busy_s", _count_crossings),
    ("orderings", "verdict", "orderings.verdict_busy_s", None),
    ("primes", "sieve_race", "primes.sieve_busy_s", _count_sieve),
    ("primes", "first_lead_change", "primes.lead_change_busy_s", None),
    ("primes", "compare_with_simulator", "primes.compare_busy_s", None),
    ("cli", "main", "cli.main_busy_s", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []     # [metric, start, end, parent, op, counts]
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.seen_moduli: set = set()
        self.finest = math.inf
        self.counter_s = 0.0            # time spent in the counters

    def _wrap(self, fn: Callable, metric, counter) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            idx = len(self.spans)
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1,
                    self.op, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = clock()
            if counter is not None:
                t = clock()
                span[5] = counter(self, args, kwargs, result)
                self.counter_s += clock() - t
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "racelab"
                                         or name.startswith("racelab."))]
        for mod_name, fn_name, metric, counter in SPECS:
            orig = getattr(sys.modules[f"racelab.{mod_name}"], fn_name)
            wrapped = self._wrap(orig, metric, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def overhead_s(self, calls: int = 20000, repeats: int = 5) -> float:
        """The time the wrappers added to the traced pass: the spans recorded
        times the cost of one wrapped call, plus the time in the counters.
        The cost is measured here, in the same process, as the median over
        `repeats` of (wrapped no-op calls - bare no-op calls) / `calls`."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe._wrap(noop, "trace.overhead_s", None)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t = clock()
            for _ in range(calls):
                noop()
            bare = clock() - t
            t = clock()
            for _ in range(calls):
                wrapped()
            costs.append((clock() - t - bare) / calls)
            probe.spans.clear()
        return len(self.spans) * statistics.median(costs) + self.counter_s

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "overhead_s": self.overhead_s(),
                       "finest_step": self.finest if self.finest < math.inf
                       else 0.0}, fh)


def derive(dumped: dict) -> Dict[str, float]:
    """Per-layer busy times and counts of one traced pass (cli.import_s is
    filled in by the harness)."""
    spans = dumped["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {k: 0.0 if unit == "s" else 0 for k, unit in PER_LAYER.items()}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
        if name == "zerosys.busy_s":
            out["zerosys.calls"] += 1
        for key, inc in (counts or {}).items():
            out[key] += inc
    out["trigpoly.scan_finest_step"] = dumped["finest_step"]
    out["trace.overhead_s"] = dumped["overhead_s"]
    return out
