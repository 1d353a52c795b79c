"""The library names the benchmark harness in `perfbench/` relies on still exist.

The harness is read, never edited, here: a renamed or deleted public
function would otherwise fail only the traced benchmark run.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import numpy as np

from kpsca import attack, cli, curve, leaksim, traces
from kpsca.curve import Scalar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _module_refs(filename, pattern):
    """(module, name) pairs a perfbench file reads as `module.name`."""
    text = (PERFBENCH / filename).read_text()
    return sorted(set(re.findall(pattern, text)))


# kpsca modules referenced as `module.name`, not as `self.module.name`
WORKLOAD_REFS = _module_refs(
    "workloads.py", r"(?<![\w.])(attack|cli|curve|gf2m|leaksim|traces)\.([A-Za-z_]\w*)"
)
RUN_RECORD_REFS = _module_refs("run.py", r"(_fastladder)\.([A-Za-z_]\w*)")


def _from_imports():
    """(module, name) pairs a perfbench file imports as `from kpsca... import name`."""
    refs = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kpsca":
                refs.update((node.module, alias.name) for alias in node.names)
    return sorted(refs)


FROM_IMPORTS = _from_imports()
TRACING = _load_perfbench("tracing")
WORKLOADS = _load_perfbench("workloads")


@pytest.mark.parametrize("target", TRACING.TARGETS)
def test_traced_targets_resolve(target):
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))


@pytest.mark.parametrize("module, name", WORKLOAD_REFS + RUN_RECORD_REFS)
def test_harness_names_resolve(module, name):
    assert hasattr(importlib.import_module(f"kpsca.{module}"), name)


@pytest.mark.parametrize("module, name", FROM_IMPORTS)
def test_harness_from_imports_resolve(module, name):
    # as the import statement does: an attribute, else a submodule of a package
    mod = importlib.import_module(module)
    is_submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
    assert hasattr(mod, name) or is_submodule


def test_harness_refs_found():
    # an empty parametrisation would pass vacuously
    assert len(WORKLOAD_REFS) >= 10
    assert {name for _m, name in RUN_RECORD_REFS} == {"active_backend", "HAVE_NUMBA", "BACKEND_ENV"}
    assert {("kpsca.curve", "Scalar"), ("kpsca.gf2m", "FieldSpec")} <= set(FROM_IMPORTS)


def test_tracer_counts_field_and_curve_calls():
    # a refactor that routes around a traced name would read 0 for its metric
    targets = [t for t in TRACING.TARGETS if t.startswith(("kpsca.gf2m:", "kpsca.curve:"))]
    assert len(targets) == 7
    tracer = TRACING.Tracer(paper_cycles=None)  # only the timed ops' observers use it
    params = curve.get_curve("test8")
    tracer.install()
    try:
        curve.kp_point(Scalar(91), params.g, params)
        schedule = leaksim.build_schedule(curve.kp_multiply(Scalar(91), params.g, params)[1])
        leaksim.cycle_power(schedule, leaksim.LeakModel(data_weight=0.25))
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals([TRACING.SETUP_OP])
    for target in targets:
        assert totals[TRACING.span_name(target)]["calls"] > 0, target


def test_tracer_counts_verification_arithmetic():
    # the batched k*G of verification must call the field functions by
    # their module names, or the per-layer metrics would miss its work
    params = curve.get_curve("test8")
    bits = Scalar(91).main_loop_bits
    matrix = np.array([[1.0 - b for b in bits]]).T.copy()
    pub = curve.kp_point(Scalar(91), params.g, params)
    # base-256 digits (3, 2, 1) and (6, 5, 4): two tree levels in both lanes,
    # on B-233, whose table has rows for them (test8's 2 rows do not)
    b233 = curve.get_curve("b233")
    ks = [3 + (2 << 8) + (1 << 16), 6 + (5 << 8) + (4 << 16)]
    curve.fixed_base_multiples(ks, b233)  # the table rows, ready untraced
    tracer = TRACING.Tracer(paper_cycles=None)
    tracer.install()
    try:
        report = attack.evaluate(matrix, pub=pub, params=params)
        during_evaluate = tracer.layer_totals([TRACING.SETUP_OP])
        curve.fixed_base_multiples(ks, b233)
    finally:
        tracer.uninstall()
    assert report.verified.any()
    for name in ("gf2m.invert", "gf2m.mul_classical"):
        assert during_evaluate[name]["calls"] > 0, name
    totals = tracer.layer_totals([TRACING.SETUP_OP])
    # one inversion per tree level, shared by both lanes
    assert totals["gf2m.invert"]["calls"] - during_evaluate["gf2m.invert"]["calls"] == 2


def test_tracer_counts_auth_demo_ladders(capsys):
    # at data weight 0 auth-demo runs no ladder: Bob's response renders the
    # schedule of k and R, whose address leak the key bits alone decide.
    # r*Pub, k*R and the replay are variable-base kPs, which halve and add,
    # and every multiple of G is a table lookup, which the traced field
    # layer must still see
    def demo_counts():
        tracer = TRACING.Tracer(paper_cycles=None)
        tracer.install()
        try:
            code = cli.main(["auth-demo", "--curve", "test8", "--seed", "3"])
        finally:
            tracer.uninstall()
        assert code == 0
        assert "replayed response verifies: yes" in capsys.readouterr().out
        totals = tracer.layer_totals([TRACING.SETUP_OP])
        return {name: totals[name]["calls"] for name in want}

    # exact field call counts: a change inside the field kernels moves none.
    # A curve-equation check costs 3 products and 2 squares.  Three run
    # outside kP: on Pub in challenge, on R as the schedule's ladder input
    # (after respond's kp_point has checked R), and in evaluate's <G> test of Pub: 9
    # and 6.  Each kp_point runs one in its <G> test, whose trace is an
    # untraced table walk: 9 and 6 for the three.
    # test8's 2 shipped table rows hold the digits of every scalar up to
    # 128*257, C = 1279 among them, so no scalar is taken mod n = 137 (1279
    # would be 46, one term instead of 2).  Pub = k*G and R = r*G each add
    # their 2 table terms in one chord addition (2 products, 1 square and 1
    # inversion): 4, 2 and 2.
    # The attack makes one `_setup` call of 11 lanes (2^L, C, k(bits, 0) and
    # 8 flip deltas; L = 8), then decides the flags mod n.  Two of its lanes
    # have 2 terms, which share one inversion (2 chord additions and 3
    # products to share it: 7, 2 and 1).  Its targets pub - 2^L*G and
    # C*G - pub share another (7, 2 and 1), and C*G - pub + 2^L*G takes a
    # third (2, 1 and 1): 16, 5 and 3.
    # Halving's square roots and traces are untraced table walks, and so
    # are its solves but for the square of c that each takes; a kP solves
    # twice, for its first root and for a's.  On test8 (n = 137, t = 8) a
    # kP halves 7 times, one product each, and takes one product for the y
    # of each of its 2 nonzero NAF digits: 9 and 2.
    # r*Pub's digits (1 at 6, -1 at 0) share lane 1, one chord addition of
    # 2 products, 1 square and 1 inversion; S1 = Q1, and S3, S5 and S7 are
    # infinity: 11, 1 and 1.
    # k*R's (1 at 6, -7 at 0) sit in lanes 1 and 7, so S1 = Q1 + Q7 and
    # S3 = S5 = S7 = Q7: S1 + 2*(3*Q7) takes 3 chord additions and 2
    # doublings (2 products, 2 squares, 1 inversion each): 19, 7 and 5,
    # once in respond and once in the replay of the recovered key.
    # Together 9 + 9 + 4 + 16 + 11 + 2*19 = 87 products,
    # 6 + 6 + 2 + 5 + 1 + 2*7 + 3*2 = 40 squares and 2 + 3 + 1 + 2*5 = 16
    # inversions.  The counts do not depend on what ran before, so a second
    # run repeats them.
    want = {"curve.kp_multiply": 0, "leaksim.build_schedule": 0, "authproto.respond": 1,
            "curve.kp_point": 3, "gf2m.mul_classical": 87, "gf2m.square": 40,
            "gf2m.invert": 16}
    assert demo_counts() == want
    assert demo_counts() == want


def test_tracer_observers_read_schedule_and_candidates():
    # during a timed op the observers read Schedule.total_cycles, .scalar
    # and .m and KeyCandidate.bits; a rename there would otherwise fail
    # only the benchmark run.  Op 1 reaches extract_candidates through
    # evaluate, as `attack --pub` does: a refactor that routes around the
    # traced name would read 0 candidates.
    params = curve.get_curve("test8")
    _, transcript = curve.kp_multiply(Scalar(91), params.g, params)
    pub = curve.kp_point(Scalar(91), params.g, params)
    tracer = TRACING.Tracer(WORKLOADS.paper_cycles)
    tracer.op = 0
    tracer.install()
    try:
        schedule = leaksim.build_schedule(transcript)
        trace = leaksim.synthesize_trace(schedule, leaksim.LeakModel())
        matrix = traces.segment(traces.compress(trace, traces.CompressionMethod.MEAN),
                                trace.cycle0_cycle, leaksim.SLOT_CYCLES, schedule.num_slots)
        candidates = attack.extract_candidates(matrix)
        tracer.op = 1
        report = attack.evaluate(matrix, pub=pub, params=params)
    finally:
        tracer.uninstall()
    assert tracer.check_errors == {}
    counted = tracer.counters[0]
    assert counted["leaksim.sim_cycles"] == schedule.total_cycles == 346
    assert counted["attack.candidates"] == len(candidates) == 2 * leaksim.SLOT_CYCLES
    assert counted["attack.distinct_candidates"] == len({c.bits for c in candidates}) > 1
    assert report.verified.any()
    distinct_columns = np.unique(report.candidates.bits, axis=1).shape[1]
    assert tracer.counters[1] == {"attack.candidates": 2 * leaksim.SLOT_CYCLES,
                                  "attack.distinct_candidates": distinct_columns}
    assert distinct_columns == counted["attack.distinct_candidates"]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_ops_pass_their_checks(tmp_path, name):
    # every op of a one-second pool, with the harness's own output checks:
    # a wrong stdout, report.csv or key raises CheckFailed
    workload = WORKLOADS.WORKLOADS[name]()
    pool = workload.make_pool(1, 1, tmp_path)
    assert pool
    for item in pool:
        workload.run_op(item, tmp_path)
