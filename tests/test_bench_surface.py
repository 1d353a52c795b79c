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
    ks = [4227, 16710]  # base-64 digits (3, 2, 1) and (6, 5, 4): two tree levels in both lanes
    curve.fixed_base_multiples(ks, params.g, params)  # the table rows, ready untraced
    tracer = TRACING.Tracer(paper_cycles=None)
    tracer.install()
    try:
        report = attack.evaluate(matrix, pub=pub, params=params)
        during_evaluate = tracer.layer_totals([TRACING.SETUP_OP])
        curve.fixed_base_multiples(ks, params.g, params)
    finally:
        tracer.uninstall()
    assert report.verified.any()
    for name in ("gf2m.invert", "gf2m.mul_classical"):
        assert during_evaluate[name]["calls"] > 0, name
    totals = tracer.layer_totals([TRACING.SETUP_OP])
    # one inversion per tree level, shared by both lanes
    assert totals["gf2m.invert"]["calls"] - during_evaluate["gf2m.invert"]["calls"] == 2


def test_tracer_counts_auth_demo_ladders(capsys):
    # auth-demo runs the leaky ladder once (Bob's response); r*Pub and the
    # replay k*R are variable-base kPs, which halve and add, and every
    # multiple of G is a table lookup, which the traced field layer must
    # still see
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
    # Two products per ladder step, by x and by b, take gf2m.mul_by_table,
    # which the tracer does not wrap, so mul_classical counts four per step.
    # build_schedule multiplies nothing: it squares x twice to check the
    # initial state and each recorded step's five squares.  On test8,
    # 2^(L+2) > n, so the attack computes every complement pair (in one
    # table call, with 2^L and C) instead of stopping at the first
    # verifying candidate.  Its targets pub - 2^L*G and C*G - pub
    # share one inversion (three more products), C*G - pub + 2^L*G takes one.
    # test8's 2 shipped table rows cover C < 64^2, so no run builds a row.
    # With the two kPs as 10-bit ladders (9 steps and an affine conversion
    # of 10 products, 1 square and 1 inversion each) the demo counted 179
    # products, 212 squares and 8 inversions: 87, 116 and 6 without them.
    # Halving solves, square roots and traces are untraced table walks.  On
    # test8 (n = 137, t = 8) a kP halves 7 times, one product each, and
    # takes one product for the y of each of its 2 nonzero NAF digits: 18.
    # r*Pub's digits (1 at 6, -1 at 0) share lane 1, one chord addition of
    # 2 products, 1 square and 1 inversion; S1 = Q1, and S3, S5 and S7 are
    # infinity.
    # k*R's (1 at 6, -7 at 0) sit in lanes 1 and 7, so S1 = Q1 + Q7 and
    # S3 = S5 = S7 = Q7: S1 + 2*(3*Q7) takes 3 chord additions and 2
    # doublings (2 products, 2 squares, 1 inversion each): 10, 7 and 5.
    # Together 87 + 18 + 2 + 10 = 117 products, 116 + 1 + 7 = 124 squares
    # and 6 + 1 + 5 = 12 inversions.  The counts do not depend on what ran
    # before, so a second run repeats them.
    want = {"curve.kp_multiply": 1, "leaksim.build_schedule": 1, "authproto.respond": 1,
            "curve.kp_point": 2, "gf2m.mul_classical": 117, "gf2m.square": 124,
            "gf2m.invert": 12}
    assert demo_counts() == want
    assert demo_counts() == want


def test_tracer_observers_read_schedule_and_candidates():
    # during a timed op the observers read Schedule.total_cycles, .scalar
    # and .m and KeyCandidate.bits; a rename there would otherwise fail
    # only the benchmark run
    params = curve.get_curve("test8")
    _, transcript = curve.kp_multiply(Scalar(91), params.g, params)
    tracer = TRACING.Tracer(WORKLOADS.paper_cycles)
    tracer.op = 0
    tracer.install()
    try:
        schedule = leaksim.build_schedule(transcript)
        trace = leaksim.synthesize_trace(schedule, leaksim.LeakModel())
        matrix = traces.segment(traces.compress(trace, traces.CompressionMethod.MEAN),
                                trace.cycle0_cycle, leaksim.SLOT_CYCLES, schedule.num_slots)
        candidates = attack.extract_candidates(matrix)
    finally:
        tracer.uninstall()
    assert tracer.check_errors == {}
    counted = tracer.counters[0]
    assert counted["leaksim.sim_cycles"] == schedule.total_cycles == 346
    assert counted["attack.candidates"] == len(candidates) == 2 * leaksim.SLOT_CYCLES
    assert counted["attack.distinct_candidates"] == len({c.bits for c in candidates}) > 1


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_ops_pass_their_checks(tmp_path, name):
    # every op of a one-second pool, with the harness's own output checks:
    # a wrong stdout, report.csv or key raises CheckFailed
    workload = WORKLOADS.WORKLOADS[name]()
    pool = workload.make_pool(1, 1, tmp_path)
    assert pool
    for item in pool:
        workload.run_op(item, tmp_path)
