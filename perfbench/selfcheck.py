#!/usr/bin/env python3
"""Self-check of the benchmark: counts that must repeat exactly for one seed.

    python3 perfbench/selfcheck.py

For every workload it makes two traced runs with SEED and one with
OTHER_SEED, each of SECONDS seconds, then checks that

* the exact-repeat counts (kP calls, brute-force checks, distinct
  candidates, first-hit rank, simulated cycles) and keys_recovered_frac
  are identical between the two runs of one seed,
* the other seed produced different inputs (input digest),
* every run passed its output checks,
* BENCHMARK.json names exactly the metrics run.py prints.

Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (tables only; importing it runs nothing)

SEED, OTHER_SEED, SECONDS = 1, 2, 3
EXACT = ("curve.kp_point.calls", "attack.brute_force_complete.checks",
         "attack.distinct_candidates", "attack.first_hit_rank", "leaksim.sim_cycles")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    return json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())


def fingerprint(rec: dict) -> dict:
    metrics = rec["result"]["metrics"]
    out = {name: metrics[name]["value"] for name in EXACT}
    out["keys_recovered_frac"] = rec["summary"]["keys_recovered_frac"]
    return out


def main() -> int:
    problems = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for workload in run.WORKLOAD_NAMES:
        first = traced(workload, SEED)
        second = traced(workload, SEED)
        other = traced(workload, OTHER_SEED)
        a, b = fingerprint(first), fingerprint(second)
        print(f"{workload}: seed {SEED} {a}")
        for rec in (first, second, other):
            if not rec["result"]["correct"]:
                problems.append(f"{workload} seed {rec['record']['seed']}: {rec['errors'][:3]}")
        for name in a:
            if a[name] != b[name]:
                problems.append(f"{workload}: {name} is {a[name]} then {b[name]} for one seed")
        if first["record"]["input_digest"] != second["record"]["input_digest"]:
            problems.append(f"{workload}: seed {SEED} made different inputs twice")
        if first["record"]["input_digest"] == other["record"]["input_digest"]:
            problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} made the same inputs")

    for p in problems:
        print(f"FAIL {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
