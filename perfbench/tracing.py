"""Layer-boundary spans for the traced benchmark run, recorded without editing kpsca.

`Tracer.install` replaces each public function named in `TARGETS` by a
timing wrapper in every kpsca module that holds a reference to it, so a
call between layers (say `kpsca.attack.kp_point`, imported by name from
`kpsca.curve`) is timed where it crosses the boundary.  Each span keeps
its name, start, end, parent span and op id in flat arrays; the arrays
are written out once, when the run ends.  A layer's self time is its
span's duration minus the durations of its direct children, which never
overlap because the benchmark is single-threaded, and minus the wrapper's
own cost for each direct child: the bookkeeping a wrapper does before its
start clock and after its end clock falls in the parent's span.  That cost
is measured once per tracer (`wrapper_s`) on a no-op function.  No listed
function calls itself, so summing a name's span durations gives its
inclusive time without double counting.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from array import array

import numpy as np

# Span ids for work outside the timed ops.
SETUP_OP = -1
UNTRACED_OP = -2

# Recorded public functions, as module:function.
TARGETS = (
    "kpsca.gf2m:mul_classical",
    "kpsca.gf2m:square",
    "kpsca.gf2m:karatsuba4_partials",
    "kpsca.gf2m:invert",
    "kpsca.curve:kp_point",
    "kpsca.curve:kp_multiply",
    "kpsca.curve:ladder_step",
    "kpsca.leaksim:build_schedule",
    "kpsca.leaksim:synthesize_trace",
    "kpsca.traces:read_trace",
    "kpsca.traces:compress",
    "kpsca.traces:segment",
    "kpsca.traces:write_trace",
    "kpsca.attack:evaluate",
    "kpsca.attack:extract_candidates",
    "kpsca.attack:recover_scalar",
    "kpsca.attack:brute_force_complete",
    "kpsca.authproto:challenge",
    "kpsca.authproto:respond",
    "kpsca.cli:main",
)


def span_name(target: str) -> str:
    """'kpsca.curve:kp_point' -> 'curve.kp_point'."""
    module, func = target.split(":")
    return f"{module.removeprefix('kpsca.')}.{func}"


class Tracer:
    """Records spans and per-op counters while installed."""

    def __init__(self, paper_cycles):
        self.op = SETUP_OP
        self.names = [span_name(t) for t in TARGETS]
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._paper_cycles = paper_cycles
        # per timed op: counters the spans alone cannot give
        self.counters: dict[int, dict[str, float]] = {}
        self.check_errors: dict[int, list[str]] = {}
        self._origs = {}
        self._wrappers = {}
        for nid, target in enumerate(TARGETS):
            module, func = target.split(":")
            orig = getattr(importlib.import_module(module), func)
            self._origs[target] = orig
            self._wrappers[target] = self._wrap(nid, orig, self._observer(span_name(target)))
        self._installed: list[tuple[object, str, object]] = []
        self.wrapper_s = self._calibrate()

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every kpsca reference to a target function to its wrapper."""
        if self._installed:
            return
        by_id = {id(orig): self._wrappers[t] for t, orig in self._origs.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kpsca" or mod_name.startswith("kpsca.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, orig in self._installed:
            setattr(mod, attr, orig)
        self._installed.clear()

    # --- recording ------------------------------------------------------

    def _wrap(self, nid, fn, observe):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None and self.op >= 0:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _calibrate(self) -> float:
        """Median seconds one wrapped call adds to its parent's span outside its own."""
        calls, repeats = 20000, 5

        def noop(a, b):
            return None

        child = self._wrap(-1, noop, None)

        def parent():
            for _ in range(calls):
                child(1, 2)

        outer = self._wrap(-1, parent, None)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t = clock()
            for _ in range(calls):
                pass
            loop_s = clock() - t
            outer()
            dur = np.frombuffer(self._end) - np.frombuffer(self._start)
            costs.append((dur[0] - dur[1:].sum() - loop_s) / calls)
            for arr in (self._name, self._parent, self._op, self._start, self._end):
                del arr[:]
        return statistics.median(costs)

    def _count(self, key: str, value: float = 1) -> None:
        c = self.counters.setdefault(self.op, {})
        c[key] = c.get(key, 0) + value

    def _fail(self, msg: str) -> None:
        self.check_errors.setdefault(self.op, []).append(msg)

    def _observer(self, name: str):
        if name == "leaksim.build_schedule":
            def observe(args, schedule):
                self._count("leaksim.sim_cycles", schedule.total_cycles)
                want = self._paper_cycles(schedule.scalar.bit_length, schedule.m)
                if schedule.total_cycles != want:
                    self._fail(f"schedule has {schedule.total_cycles} cycles, "
                               f"the paper's arithmetic gives {want}")
            return observe
        if name == "attack.extract_candidates":
            def observe(args, cands):
                self._count("attack.candidates", len(cands))
                self._count("attack.distinct_candidates", len({c.bits for c in cands}))
            return observe
        if name == "attack.recover_scalar":
            def observe(args, key):
                self._count("recover_calls")
                c = self.counters[self.op]
                if key is not None:
                    self._count("recover_hits")
                    if "first_hit_rank" not in c:
                        c["first_hit_rank"] = c["recover_calls"]
            return observe
        if name == "attack.brute_force_complete":
            return lambda args, result: self._count("attack.brute_force_complete.checks",
                                                    result.checks)
        if name == "traces.read_trace":
            return lambda args, trace: self._count("traces.bytes_read", os.path.getsize(args[0]))
        return None

    # --- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._op, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def __len__(self) -> int:
        return len(self._start)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds summed over `ops`.

        Also returns, under "kp_point_in_recover", the number of kp_point
        spans whose direct parent is a recover_scalar span.
        """
        a = self.arrays()
        n = a["name"].shape[0]
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        children = np.bincount(a["parent"][has_parent], minlength=n)
        self_s = dur - child - children * self.wrapper_s
        keep = np.isin(a["op"], np.asarray(list(ops), dtype=np.int32))
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        kp = self.names.index("curve.kp_point")
        rec = self.names.index("attack.recover_scalar")
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        out["kp_point_in_recover"] = int((keep & (a["name"] == kp) & (parent_name == rec)).sum())
        return out
