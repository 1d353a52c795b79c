"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they happen.  Tolerances are pinned here, not configurable.
"""

import functools
import random
import time

import numpy as np

from kpsca import attack, cli
from kpsca.attack import (
    KeyCandidate,
    Polarity,
    brute_force_complete,
    extract_candidates,
    recover_scalar,
    welch_t,
    worst_case_checks,
)
from kpsca.curve import (
    AffinePoint,
    Scalar,
    get_curve,
    is_on_curve,
    kp_multiply,
    kp_point,
)
from kpsca.gf2m import FieldSpec, karatsuba4_partials, mul_classical, square
from kpsca.leaksim import (
    LeakModel,
    build_schedule,
    synthesize_trace,
)
from kpsca.traces import CompressionMethod, compress, segment

from helpers import (
    complement, correctness, differing_cycles, flip_bits, make_test16_curve, oracle_double_and_add,
)


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:2d} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {n:2d} [{label}]: PASS")
        return run
    return wrap


def leaky_matrix(schedule, model=None, offset=0):
    model = model or LeakModel(addr_weight=1.0, data_weight=0.0, noise_sigma=0.0,
                               samples_per_cycle=10, rng_seed=1)
    trace = synthesize_trace(schedule, model)
    values = compress(trace, CompressionMethod.MEAN)
    return segment(values, trace.cycle0_cycle + offset, 54, schedule.num_slots)


@criterion(1, "ladder-oracle equivalence")
def test_criterion_1_ladder_oracle_equivalence():
    start = time.perf_counter()
    test8 = get_curve("test8")
    mismatches = 0
    for k in range(1, 2**10 + 1):
        got, _ = kp_multiply(Scalar(k), test8.g, test8)
        if got != oracle_double_and_add(Scalar(k), test8.g, test8):
            mismatches += 1
    rng = random.Random(1001)
    for name, nbits in (("b163", 162), ("b233", 232)):
        params = get_curve(name)
        for _ in range(100):
            k = Scalar.random(rng, nbits)
            got, _ = kp_multiply(k, params.g, params)
            if got != oracle_double_and_add(k, params.g, params):
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "karatsuba equivalence")
def test_criterion_2_karatsuba_equivalence():
    polys = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1011011}
    for m, poly in polys.items():
        spec = FieldSpec(m, poly)
        for a in range(1 << m):
            for b in range(1 << m):
                got, partials = karatsuba4_partials(spec, a, b)
                assert len(partials) == 9
                assert got == mul_classical(spec, a, b)
    import kpsca.gf2m as gf2m

    rng = random.Random(1002)
    spec = gf2m.B233
    for _ in range(10_000):
        a, b = rng.getrandbits(spec.m), rng.getrandbits(spec.m)
        got, partials = karatsuba4_partials(spec, a, b)
        assert len(partials) == 9
        assert got == mul_classical(spec, a, b)


@criterion(3, "schedule arithmetic")
def test_criterion_3_schedule_arithmetic():
    params = get_curve("b233")
    rng = random.Random(1003)

    k232 = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k232, params.g, params)
    schedule = build_schedule(transcript)
    assert schedule.num_slots == 230
    assert schedule.main_cycles == 230 * 54 == 12420
    assert schedule.per_slot_ops["MUL"] == 6
    assert schedule.per_slot_ops["SQUARE"] == 5
    assert schedule.per_slot_ops["ADD"] == 3
    assert schedule.per_slot_ops["REG"] == 11

    k233 = Scalar.random(rng, 233)
    _, transcript = kp_multiply(k233, params.g, params)
    schedule = build_schedule(transcript)
    assert schedule.total_cycles < 14000
    time_ms = schedule.total_cycles / 100e6 * 1e3
    assert abs(time_ms - 0.13) <= 0.013, f"{time_ms} ms not within 0.13 +/- 10%"


@criterion(4, "attack existence")
def test_criterion_4_attack_existence():
    start = time.perf_counter()
    params = get_curve("b233")
    rng = random.Random(1004)
    k = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k, params.g, params)
    schedule = build_schedule(transcript)
    matrix = leaky_matrix(schedule)
    report = attack.evaluate(matrix, truth_bits=k.main_loop_bits)
    assert report.best_delta == 1.0
    pub = kp_point(k, params.g, params)
    assert recover_scalar(report.best_candidate, params.g, pub, params) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(5, "noise degradation")
def test_criterion_5_noise_degradation():
    params = get_curve("b233")
    rng = random.Random(1005)
    k = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k, params.g, params)
    schedule = build_schedule(transcript)
    truth = k.main_loop_bits

    addr_weight = 1.0  # sigma_0
    levels = [0.0, 0.5 * addr_weight, addr_weight, 2.0 * addr_weight]
    means = []
    for sigma in levels:
        deltas = []
        for seed in range(20):
            model = LeakModel(addr_weight=addr_weight, data_weight=0.0,
                              noise_sigma=sigma, samples_per_cycle=10, rng_seed=seed)
            matrix = leaky_matrix(schedule, model)
            report = attack.evaluate(matrix, truth_bits=truth)
            deltas.append(report.best_delta)
        means.append(float(np.mean(deltas)))
    print(f"    mean best-delta by noise level {levels}: "
          f"{[f'{m:.4f}' for m in means]}")
    inversions = [
        means[i + 1] - means[i] for i in range(len(means) - 1)
        if means[i + 1] > means[i]
    ]
    assert len(inversions) <= 1
    assert all(v <= 0.01 for v in inversions)


@criterion(6, "complement identity and scale invariance")
def test_criterion_6_complement_and_rescaling():
    params = get_curve("b233")
    rng = random.Random(1006)
    k = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k, params.g, params)
    schedule = build_schedule(transcript)
    matrix = leaky_matrix(schedule)
    truth = k.main_loop_bits

    # the noiseless leaky fixture is tie-free at leaking cycles and
    # all-ties elsewhere; restrict the exactness claim to tie-free columns
    mean = matrix.mean(axis=0)
    candidates = extract_candidates(matrix)
    tie_free = {
        j for j in range(matrix.shape[1])
        if not np.any(matrix[:, j] == mean[j])
    }
    assert tie_free  # the differing cycles are tie-free by construction
    checked = 0
    for cand in candidates:
        if cand.sample_index in tie_free:
            d, _ = correctness(cand, truth)
            dc, _ = correctness(complement(cand), truth)
            assert d + dc == 1.0
            checked += 1
    assert checked == 2 * len(tie_free)

    # positive affine rescaling leaves every candidate's bits unchanged
    before = [c.bits for c in candidates]
    rescaled = 3.0 * matrix + 11.0
    after = [c.bits for c in extract_candidates(rescaled)]
    assert before == after


@criterion(7, "welch sanity")
def test_criterion_7_welch_sanity():
    params = get_curve("b233")
    rng = random.Random(1007)
    k = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k, params.g, params)
    schedule = build_schedule(transcript)
    truth = k.main_loop_bits
    leak_cycles = set(differing_cycles())
    threshold = 4.5

    leaky_ok = 0
    quiet_ok = 0
    for seed in range(20):
        leaky = LeakModel(addr_weight=1.0, data_weight=0.0, noise_sigma=1.0,
                          samples_per_cycle=10, rng_seed=seed)
        t = welch_t(leaky_matrix(schedule, leaky), truth)
        if all(abs(t[j]) > threshold for j in leak_cycles):
            leaky_ok += 1
        quiet = LeakModel(addr_weight=0.0, data_weight=0.0, noise_sigma=1.0,
                          samples_per_cycle=10, rng_seed=seed)
        tq = welch_t(leaky_matrix(schedule, quiet), truth)
        if all(abs(v) < threshold for v in tq):
            quiet_ok += 1
    print(f"    leaky runs passing: {leaky_ok}/20, quiet runs passing: {quiet_ok}/20")
    assert leaky_ok >= 19
    assert quiet_ok >= 19


@criterion(8, "brute force")
def test_criterion_8_brute_force():
    params = make_test16_curve()

    # worst case, 17 suspects: exhausting the subsets costs exactly
    # 2^17 = 131072 point multiplications and never more
    assert worst_case_checks(17) == 131072
    rng = random.Random(1008)
    k17 = Scalar.random(rng, 19)  # 17 main-loop bits
    cand = KeyCandidate(k17.main_loop_bits, 0, Polarity.SMALLER_IS_ONE)
    # a 2-torsion target outside <G>: no subset can match, forcing full enumeration
    spec = params.field
    sqrt_b = params.b.value
    for _ in range(spec.m - 1):
        sqrt_b = square(spec, sqrt_b)
    unreachable = AffinePoint(spec.element(0), spec.element(sqrt_b))
    assert is_on_curve(unreachable, params)
    result = brute_force_complete(
        cand, list(range(17)), params.g, unreachable, params,
        budget=131072, preloop_bits=(k17.bits[1],),
    )
    assert result.key is None
    assert not result.budget_exhausted
    assert result.checks == 131072

    # desk-scale: 12 suspects, 3 planted errors, both pre-loop hypotheses
    start = time.perf_counter()
    planted = Scalar.random(rng, 14)  # 12 main-loop bits, well below ord(G)
    pub = kp_point(planted, params.g, params)
    wrong = [2, 5, 9]
    cand = KeyCandidate(flip_bits(planted.main_loop_bits, wrong), 0,
                        Polarity.SMALLER_IS_ONE)
    result = brute_force_complete(cand, list(range(12)), params.g, pub, params)
    elapsed = time.perf_counter() - start
    assert result.key == planted
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(9, "segmentation sensitivity")
def test_criterion_9_segmentation_sensitivity():
    params = get_curve("b233")
    rng = random.Random(1009)
    k = Scalar.random(rng, 232)
    _, transcript = kp_multiply(k, params.g, params)
    schedule = build_schedule(transcript)
    truth = k.main_loop_bits

    aligned = attack.evaluate(leaky_matrix(schedule), truth_bits=truth)
    best = aligned.best_candidate
    best_delta = aligned.best_delta
    assert best_delta == 1.0

    # shifting the segmentation start by one cycle strictly lowers the
    # best candidate's correctness: its sample index now reads a
    # different cycle of (or bleeds across) each slot
    for off in (-1, +1):
        rep = attack.evaluate(leaky_matrix(schedule, offset=off), truth_bits=truth)
        shifted = next(
            c for c in rep.candidates
            if c.sample_index == best.sample_index and c.polarity == best.polarity
        )
        delta_off, _ = correctness(shifted, truth)
        print(f"    offset {off:+d}: best candidate's delta {best_delta:.4f} -> {delta_off:.4f}")
        assert delta_off < best_delta
        # and no re-maximised candidate does better than proper alignment
        assert rep.best_delta <= best_delta


@criterion(10, "stolen-identity demo")
def test_criterion_10_auth_demo(capsys):
    argv = ["auth-demo", "--curve", "b233", "--seed", "77"]
    assert cli.main(argv) == 0
    out1 = capsys.readouterr().out
    assert "honest authentication: ok" in out1
    assert "key recovered: yes" in out1
    assert "replayed response verifies: yes" in out1
    assert cli.main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    with capsys.disabled():
        print()  # keep the PASS line on its own row under -v
