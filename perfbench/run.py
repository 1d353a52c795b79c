#!/usr/bin/env python3
"""kpsca benchmark: one workload, closed loop, one client, for a given seed.

    python3 perfbench/run.py --workload auth_b233 --seed 1 --seconds 20 --trace 0

Workloads are described in workloads.py and perfbench/README.md.  The
run builds nothing: it imports kpsca from the checkout's `src/`, makes
the workload's input pool from the seed (set-up), runs one untimed
warm-up op, then runs whole passes over the pool until `--seconds` have
elapsed, checking every op's output.  Every timed piece of work is
bracketed by a fixed reference loop, and the time metrics are host
seconds scaled to the reference loop's nominal speed (see RefClock).

--trace 0 prints the end-to-end metrics.  --trace 1 instead makes one
pass over every `trace_stride`-th input of the pool with the span
recorder of tracing.py installed, pairs every traced op with an
untraced run of the same input, and prints the per-layer metrics plus
the tracing overhead.  Either way the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics, and a run
record (machine, versions, backend, seed, workload parameters, input
digest) is written with the metrics to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("auth_b233", "attack_b233", "bruteforce_test16")
SETUP_REPEATS = 3
# The reference loop and its nominal host seconds, a fixed constant near
# its time on the 2-vCPU machine of README.md's baselines (it sets only
# the unit of the scaled times).  One reference sample repeats the loop
# for about REF_SHARE of the workload's nominal op cost, so that the
# sample next to a long op is not a 5 ms snapshot.
REF_ITERS = 20000
REF_NOMINAL_S = 0.005
REF_SHARE = 0.02
_REF_MASK = (1 << 233) - 1

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "op_s_p50": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "keys_recovered_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

_CALLS_AND_SELF = ("gf2m.mul_classical", "gf2m.square", "gf2m.karatsuba4_partials",
                   "gf2m.invert", "curve.kp_point", "curve.kp_multiply",
                   "leaksim.build_schedule")
_CALLS = ("curve.ladder_step", "attack.recover_scalar", "authproto.respond")
_INCLUSIVE = ("leaksim.synthesize_trace", "traces.read_trace", "traces.compress",
              "traces.segment", "attack.extract_candidates", "authproto.challenge",
              "authproto.respond")
_SELF = ("attack.evaluate", "attack.brute_force_complete", "cli.main")
_COUNTERS = {"leaksim.sim_cycles": "cycles", "traces.bytes_read": "B",
             "attack.candidates": "count", "attack.distinct_candidates": "count",
             "attack.brute_force_complete.checks": "count"}
_SETUP_INCLUSIVE = ("traces.write_trace", "leaksim.synthesize_trace", "leaksim.build_schedule")

PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in _CALLS_AND_SELF + _CALLS},
    **{f"{n}.self_s": ("s", "lower") for n in _CALLS_AND_SELF + _SELF},
    **{f"{n}.s": ("s", "lower") for n in _INCLUSIVE},
    **{n: (unit, "lower") for n, unit in _COUNTERS.items()},
    "attack.verify_hit_ratio": ("ratio", "higher"),
    "attack.first_hit_rank": ("rank", "lower"),
    **{f"setup.{n}.s": ("s", "lower") for n in _SETUP_INCLUSIVE},
    "trace.op_s_p50": ("s", "lower"),
    "trace.untraced_op_s_p50": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import kpsca from this checkout's src/ and the modules that use it."""
    if not (SRC / "kpsca" / "__init__.py").is_file():
        fail(f"kpsca sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpsca
    if Path(kpsca.__file__).resolve().parent != SRC / "kpsca":
        fail(f"imported kpsca from {kpsca.__file__}, not from {SRC}")
    import tracing
    import workloads
    return kpsca, workloads, tracing


def run_checked(wl, item, workdir, checked_exc) -> tuple[bool, bool, str]:
    """(ok, key recovered, error) for one op; an exception is a failed op."""
    try:
        return True, wl.run_op(item, workdir), ""
    except checked_exc as exc:
        return False, False, f"check: {exc}"
    except (Exception, SystemExit) as exc:
        return False, False, f"raised {exc!r}"


def input_digest(pool) -> str:
    h = hashlib.sha256()
    for item in pool:
        fields = dataclasses.asdict(item)
        if "trace_path" in fields:
            fields["trace_path"] = hashlib.sha256(Path(fields["trace_path"]).read_bytes()).hexdigest()
        h.update(repr(sorted(fields.items())).encode())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(kpsca, args, wl) -> dict:
    import numpy
    from kpsca import _fastladder
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": wl.params(args.seconds),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kpsca": kpsca.__version__,
        "active_backend": _fastladder.active_backend(),
        "numba_imported": _fastladder.HAVE_NUMBA,
        "KPSCA_BACKEND": os.environ.get(_fastladder.BACKEND_ENV),
        "leakage_model_note": (
            "the only hardware reference figure checked is PAPER.md's cycle count "
            "(8 + 54 + 54(l-2) + 2m-2); the leakage model is otherwise unvalidated "
            "against hardware"),
    }


def reference_s(reps: int) -> float:
    """Mean host seconds of a fixed loop of 233-bit shifts and xors, like gf2m's."""
    a = _REF_MASK // 3
    t = time.perf_counter()
    for _ in range(reps):
        for i in range(REF_ITERS):
            a = ((a << 1) ^ (a >> 7) ^ i) & _REF_MASK
    return (time.perf_counter() - t) / reps


class RefClock:
    """Times work in host seconds and in seconds at the reference speed.

    The host's single-thread speed drifts by up to about 35% over seconds
    to minutes (README.md, "Steadiness").  Each piece of work is timed
    between two runs of the reference loop, and its host time is scaled
    by REF_NOMINAL_S over their mean, which cancels much of that drift.
    """

    def __init__(self, nominal_op_s: float):
        self.reps = max(1, round(REF_SHARE * nominal_op_s / REF_NOMINAL_S))
        self.last = reference_s(self.reps)

    def timed(self, fn, *args):
        """fn(*args), its host seconds and its reference seconds."""
        t = time.perf_counter()
        out = fn(*args)
        host = time.perf_counter() - t
        ref = reference_s(self.reps)
        scaled = host * REF_NOMINAL_S / ((self.last + ref) / 2)
        self.last = ref
        return out, host, scaled


def timed_loop(seconds, pool, one_op):
    """Whole passes over the pool until `seconds` have elapsed; returns wall seconds."""
    start = time.perf_counter()
    while True:
        for item in pool:
            one_op(item)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed


def end_to_end_run(args, wl_cls, workloads, workdir, import_s):
    clock = RefClock(wl_cls.nominal_op_s)
    import_ref_s = import_s * REF_NOMINAL_S / clock.last

    def make_pool():
        wl = wl_cls()
        return wl, wl.make_pool(args.seed, args.seconds, workdir)

    fixture = [clock.timed(make_pool) for _ in range(SETUP_REPEATS)]
    wl, pool = fixture[-1][0]
    (warm_ok, _, warm_err), warm_host_s, warm_ref_s = clock.timed(
        run_checked, wl, pool[0], workdir, workloads.CheckFailed)

    host_s, ref_s, errors, recovered = [], [], [], 0

    def one_op(item):
        nonlocal recovered
        (ok, rec, err), host, ref = clock.timed(run_checked, wl, item, workdir, workloads.CheckFailed)
        host_s.append(host)
        ref_s.append(ref)
        recovered += rec
        if not ok:
            errors.append(err)

    phase_s = timed_loop(args.seconds, pool, one_op)
    n = len(ref_s)
    completed = n - len(errors)
    metrics = {
        "op_s_p50": statistics.median(ref_s),
        "ops_per_s": completed / sum(ref_s),
        "keys_recovered_frac": recovered / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_ref_s + statistics.median(f[2] for f in fixture) + warm_ref_s,
    }
    summary = {
        "ops": n,
        "error_frac": len(errors) / n,
        # reported only where at least ten samples lie beyond it
        "op_s_p90": statistics.quantiles(ref_s, n=10)[-1] if n >= 100 else None,
        # the same metrics in unscaled host seconds
        "host": {
            "op_s_p50": statistics.median(host_s),
            "ops_per_s": completed / phase_s,
            "setup_s": import_s + statistics.median(f[1] for f in fixture) + warm_host_s,
        },
        "import_s": import_s,
        "fixture_s": [f[1] for f in fixture],
        "warmup_s": warm_host_s,
        "phase_s": phase_s,
        "op_s": host_s,
        "ref_op_s": ref_s,
    }
    if not warm_ok:
        errors.append(f"warm-up: {warm_err}")
    return wl, pool, metrics, summary, errors, n


def traced_run(args, wl_cls, workloads, tracing, workdir):
    tracer = tracing.Tracer(workloads.paper_cycles)
    wl = wl_cls()
    tracer.install()
    try:
        pool = wl.make_pool(args.seed, args.seconds, workdir)
    finally:
        tracer.uninstall()
    warm_ok, _, warm_err = run_checked(wl, pool[0], workdir, workloads.CheckFailed)

    traced, untraced, errors, recovered = [], [], [], 0
    for op, item in enumerate(pool[::wl.trace_stride]):
        tracer.op = op
        tracer.install()
        try:
            t = time.perf_counter()
            ok, rec, err = run_checked(wl, item, workdir, workloads.CheckFailed)
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        tracer.op = tracing.UNTRACED_OP
        recovered += rec
        for msg in tracer.check_errors.get(op, []):
            ok, err = False, f"check: {msg}"
        if not ok:
            errors.append(err)
        t = time.perf_counter()
        ok, _, err = run_checked(wl, item, workdir, workloads.CheckFailed)
        untraced.append(time.perf_counter() - t)
        if not ok:
            errors.append(f"untraced: {err}")

    n = len(traced)
    metrics = layer_metrics(tracer, tracing, n, traced, untraced)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    summary = {
        "ops": n,
        "spans": len(tracer),
        "wrapper_s": tracer.wrapper_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "keys_recovered_frac": recovered / n,
        "error_frac": len(errors) / (2 * n),
        "op_s": traced,
        "untraced_op_s": untraced,
    }
    if not warm_ok:
        errors.append(f"warm-up: {warm_err}")
    return wl, pool, metrics, summary, errors, 2 * n


def layer_metrics(tracer, tracing, n, traced, untraced) -> dict:
    totals = tracer.layer_totals(range(n))
    setup = tracer.layer_totals([tracing.SETUP_OP])
    counters = {}
    hit_ranks = []
    for op in range(n):
        c = tracer.counters.get(op, {})
        for key, value in c.items():
            counters[key] = counters.get(key, 0) + value
        if "first_hit_rank" in c:
            hit_ranks.append(c["first_hit_rank"])
    m = {}
    for name in _CALLS_AND_SELF + _CALLS:
        m[f"{name}.calls"] = totals[name]["calls"] / n
    for name in _CALLS_AND_SELF + _SELF:
        m[f"{name}.self_s"] = totals[name]["self_s"] / n
    for name in _INCLUSIVE:
        m[f"{name}.s"] = totals[name]["s"] / n
    for name in _COUNTERS:
        m[name] = counters.get(name, 0) / n
    verify_calls = totals["kp_point_in_recover"]
    m["attack.verify_hit_ratio"] = counters.get("recover_hits", 0) / verify_calls if verify_calls else 0.0
    m["attack.first_hit_rank"] = statistics.fmean(hit_ranks) if hit_ranks else 0.0
    for name in _SETUP_INCLUSIVE:
        m[f"setup.{name}.s"] = setup[name]["s"]
    m["trace.op_s_p50"] = statistics.median(traced)
    m["trace.untraced_op_s_p50"] = statistics.median(untraced)
    m["trace.overhead_frac"] = m["trace.op_s_p50"] / m["trace.untraced_op_s_p50"] - 1
    return {name: m[name] for name in PER_LAYER}


def main(argv=None) -> int:
    t_import = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    kpsca, workloads, tracing = import_program()
    import_s = time.perf_counter() - t_import
    wl_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            wl, pool, metrics, summary, errors, attempted = traced_run(
                args, wl_cls, workloads, tracing, workdir)
            table = PER_LAYER
        else:
            wl, pool, metrics, summary, errors, attempted = end_to_end_run(
                args, wl_cls, workloads, workdir, import_s)
            table = END_TO_END
        record = run_record(kpsca, args, wl)
        record["input_digest"] = input_digest(pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(errors), attempted)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result, "summary": summary,
                                "errors": errors}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {summary['ops']} ops, "
          f"backend {record['active_backend']} (numba imported: {record['numba_imported']})")
    print(f"error_frac: {summary['error_frac']} ratio")
    if not args.trace:
        p90 = summary["op_s_p90"]
        print(f"op_s_p90: {p90} s" if p90 is not None
              else f"op_s_p90: not reported ({summary['ops']} ops < 100)")
        for name, value in summary["host"].items():
            print(f"host {name}: {value} {table[name][0]} (unscaled)")
    for name, value in metrics.items():
        print(f"{name}: {value} {table[name][0]}")
    for err in errors[:5]:
        print(f"error: {err}")
    print(f"run record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
