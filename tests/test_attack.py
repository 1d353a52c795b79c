import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpsca import attack, curve, gf2m
from kpsca.attack import (
    KeyCandidate,
    Polarity,
    brute_force_complete,
    expand_candidate,
    extract_candidates,
    mean_slot,
    recover_scalar,
    separation_scores,
    welch_t,
    worst_case_checks,
)
from kpsca.curve import Scalar, fixed_base_multiples, kp_point
from kpsca.leaksim import LeakModel, synthesize_trace
from kpsca.traces import CompressionMethod, compress, segment

from helpers import complement, correctness, differing_cycles, flip_bits


def matrix_of(rows):
    return np.asarray(rows, dtype=float)


def scores_of(m):
    """separation_scores with the split that extraction reads: below the mean slot."""
    return separation_scores(m, m < mean_slot(m))


def segment_trace(trace, num_slots, offset=0, method=CompressionMethod.MEAN):
    return segment(compress(trace, method), trace.cycle0_cycle + offset, 54, num_slots)


class TestMeanSlot:
    def test_identical_slots(self):
        m = matrix_of([[1, 2, 3]] * 4)
        assert list(mean_slot(m)) == [1, 2, 3]

    def test_two_slots(self):
        m = matrix_of([[0, 0, 0], [2, 2, 2]])
        assert list(mean_slot(m)) == [1, 1, 1]

    def test_needs_two_slots(self):
        with pytest.raises(ValueError):
            mean_slot(matrix_of([[1, 2]]))

    def test_mean_between_classes_on_leaky_trace(self, b233_run, b233_leaky_trace):
        _, k, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        mean = mean_slot(m)
        bits = np.array(k.main_loop_bits)
        for j in differing_cycles():
            v1 = m[bits == 1, j][0]
            v0 = m[bits == 0, j][0]
            assert min(v0, v1) < mean[j] < max(v0, v1)


class TestExtractCandidates:
    def test_count_and_order(self):
        m = matrix_of([[1, 2], [3, 4], [5, 6]])
        cands = extract_candidates(m)
        assert len(cands) == 4  # 2 * slot_len
        assert [c.polarity for c in cands][:2] == [Polarity.SMALLER_IS_ONE] * 2
        assert [c.sample_index for c in cands] == [0, 1, 0, 1]

    def test_hand_example(self):
        # column j=0: values (1, 3, 1), mean 5/3 -> smaller-is-one bits (1, 0, 1)
        m = matrix_of([[1], [3], [1]])
        cands = extract_candidates(m)
        assert cands[0].bits == (1, 0, 1)
        assert cands[1].bits == (0, 1, 0)

    def test_tie_rule_all_identical(self):
        m = matrix_of([[7, 7], [7, 7], [7, 7]])
        cands = extract_candidates(m)
        by = {(c.sample_index, c.polarity): c for c in cands}
        # nothing is smaller than the mean: "not smaller" branch everywhere
        assert by[(0, Polarity.SMALLER_IS_ONE)].bits == (0, 0, 0)
        assert by[(0, Polarity.SMALLER_IS_ZERO)].bits == (1, 1, 1)

    def test_polarity_duality_tie_free(self):
        rng = np.random.default_rng(3)
        m = matrix_of(rng.normal(size=(16, 6)))  # continuous: ties have measure zero
        cands = list(extract_candidates(m))
        half = len(cands) // 2
        for c1, c0 in zip(cands[:half], cands[half:]):
            assert c0.bits == complement(c1).bits

    def test_polarity_disagreement_exactly_at_ties(self):
        m = matrix_of([[1, 5], [1, 3], [4, 1]])  # column 0: mean 2, tie at rows 0,1? no: 1<2,1<2,4>2
        # craft a real tie: column values (2, 2, 2) -> mean 2 -> all ties
        m = matrix_of([[2, 5], [2, 3], [2, 1]])
        cands = extract_candidates(m)
        by = {(c.sample_index, c.polarity): c for c in cands}
        one = by[(0, Polarity.SMALLER_IS_ONE)].bits
        zero = by[(0, Polarity.SMALLER_IS_ZERO)].bits
        # ties (all of column 0) resolve to 0 and 1 respectively: equal, not complementary
        assert one == (0, 0, 0) and zero == (1, 1, 1)


class TestSeparationScores:
    def test_degenerate_columns_score_zero(self):
        # constant; a NaN; a lone outlier; two slots on each side
        m = matrix_of([[1, math.nan, 0, 0], [1, 0, 0, 0], [1, 0, 0, 3], [1, 0, 5, 3]])
        assert list(scores_of(m)[:3]) == [0, 0, 0]
        assert scores_of(m)[3] == math.inf  # classes {0, 0} and {3, 3}

    def test_gap_over_pooled_spread(self):
        # below the mean 2.75: {0, 1}; the rest: {4, 6}; pooled variance (0.5 + 2) / 2
        m = matrix_of([[0], [1], [4], [6]])
        assert scores_of(m)[0] == pytest.approx(4.5 / math.sqrt(1.25))

    def test_leaking_cycles_rank_first(self, b233_run):
        """At sigma 0.5 the five cycles that leak the key bit score highest."""
        _, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=0.5, rng_seed=1))
        scores = scores_of(segment_trace(trace, k.bit_length - 2))
        assert set(np.argsort(-scores)[:5]) == set(differing_cycles())


def _separation_per_column(matrix):
    """Reference: the score by its definition, one Python loop per column."""
    out = []
    for col in matrix.T:
        mean = sum(col) / len(col)
        below = [v for v in col if v < mean]
        rest = [v for v in col if not v < mean]
        if len(below) < 2 or len(rest) < 2:
            out.append(0.0)
            continue
        mb, mr = sum(below) / len(below), sum(rest) / len(rest)
        ss = sum((v - mb) ** 2 for v in below) + sum((v - mr) ** 2 for v in rest)
        spread = math.sqrt(ss / max(len(col) - 2, 1))
        out.append((mr - mb) / spread if spread else math.inf)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 6), st.data())
def test_property_separation_matches_per_column_loop(num_slots, slot_len, data):
    values = data.draw(st.lists(st.integers(-3, 3), min_size=num_slots * slot_len,
                                max_size=num_slots * slot_len))
    m = matrix_of(np.array(values, dtype=float).reshape(num_slots, slot_len))
    got = scores_of(m)
    assert all(v >= 0 for v in got)
    assert list(got) == pytest.approx(_separation_per_column(m), rel=1e-9)


class TestCorrectness:
    def test_exact_match(self):
        c = KeyCandidate((1, 0, 1, 1), 0, Polarity.SMALLER_IS_ONE)
        delta, wrong = correctness(c, (1, 0, 1, 1))
        assert delta == 1.0 and wrong == []

    def test_complement_is_zero(self):
        c = KeyCandidate((1, 0, 1, 1), 0, Polarity.SMALLER_IS_ONE)
        delta, wrong = correctness(complement(c), (1, 0, 1, 1))
        assert delta == 0.0 and wrong == [0, 1, 2, 3]

    def test_17_wrong_of_230(self):
        rng = random.Random(4)
        truth = tuple(rng.randint(0, 1) for _ in range(230))
        wrong_positions = sorted(rng.sample(range(230), 17))
        cand = KeyCandidate(flip_bits(truth, wrong_positions), 0, Polarity.SMALLER_IS_ONE)
        delta, wrong = correctness(cand, truth)
        assert delta == 213 / 230
        assert delta == pytest.approx(0.926, abs=5e-4)
        assert wrong == wrong_positions

    def test_length_mismatch(self):
        c = KeyCandidate((1, 0), 0, Polarity.SMALLER_IS_ONE)
        with pytest.raises(ValueError):
            correctness(c, (1, 0, 1))


class TestWelch:
    def test_zero_for_identical_constant_data(self):
        m = matrix_of([[5.0, 1.0]] * 10)
        t = welch_t(m, [0, 1] * 5)
        assert list(t) == [0.0, 0.0]

    def test_frozen_formula_case(self):
        # class means 0 and 1, each unit sample variance, n = 100 each:
        # t = (0 - 1) / sqrt(1/100 + 1/100) = -1/sqrt(0.02)
        rows = []
        labels = []
        for i in range(100):
            v = 1.0 if i % 2 == 0 else -1.0  # mean 0, sample variance ~1
            rows.append([v])
            labels.append(0)
        for i in range(100):
            v = 2.0 if i % 2 == 0 else 0.0  # mean 1, sample variance ~1
            rows.append([v])
            labels.append(1)
        m = matrix_of(rows)
        t = welch_t(m, labels)
        var = np.var([1.0, -1.0] * 50, ddof=1)  # 50/49ths of 1
        expect = -1.0 / math.sqrt(2 * var / 100)
        assert t[0] == pytest.approx(expect)
        assert t[0] == pytest.approx(-1 / math.sqrt(2 / 100), rel=0.03)

    def test_zero_variance_unequal_means_gives_infinity(self):
        m = matrix_of([[0.0], [0.0], [1.0], [1.0]])
        t = welch_t(m, [0, 0, 1, 1])
        assert t[0] == -math.inf

    def test_class_size_validation(self):
        m = matrix_of([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            welch_t(m, [0, 0, 1])
        with pytest.raises(ValueError, match="labels must have one entry per slot"):
            welch_t(m, [0, 0, 1, 1])

    def test_leaky_trace_flags_only_differing_cycles(self, b233_run, b233_leaky_trace):
        _, k, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        t = welch_t(m, k.main_loop_bits)
        flagged = {j for j in range(54) if abs(t[j]) > 4.5}
        assert flagged == set(differing_cycles())
        for j in range(54):
            if j in flagged:
                assert math.isinf(t[j])  # zero within-class variance, unequal means
            else:
                assert t[j] == 0.0  # noiseless and key-independent


class TestVerifyAndRecover:
    def test_ground_truth_candidate_verifies(self, test16):
        rng = random.Random(5)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        cand = KeyCandidate(k.main_loop_bits, 0, Polarity.SMALLER_IS_ONE)
        assert recover_scalar(cand, test16.g, pub, test16) == k

    def test_single_flip_fails(self, test16):
        rng = random.Random(6)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        cand = KeyCandidate(flip_bits(k.main_loop_bits, [3]), 0, Polarity.SMALLER_IS_ONE)
        assert recover_scalar(cand, test16.g, pub, test16) is None

    def test_random_candidate_vs_random_pub(self, test16):
        rng = random.Random(7)
        hits = 0
        for _ in range(30):
            k1, k2 = Scalar.random(rng, 14), Scalar.random(rng, 14)
            pub = kp_point(k2, test16.g, test16)
            cand = KeyCandidate(k1.main_loop_bits, 0, Polarity.SMALLER_IS_ONE)
            hits += recover_scalar(cand, test16.g, pub, test16) is not None and k1 != k2
        assert hits == 0

    def test_expansion_convention(self):
        assert expand_candidate((1, 0, 1), 0).bits == (1, 0, 1, 0, 1)
        assert expand_candidate((1, 0, 1), 1).bits == (1, 1, 1, 0, 1)


class TestBruteForce:
    def test_zero_suspects_one_check(self, test16):
        rng = random.Random(8)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        cand = KeyCandidate(k.main_loop_bits, 0, Polarity.SMALLER_IS_ONE)
        res = brute_force_complete(cand, [], test16.g, pub, test16,
                                   preloop_bits=(k.bits[1],))
        assert res.key == k and res.checks == 1

    def test_three_wrong_among_five_suspects(self, test16):
        rng = random.Random(9)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        wrong = [1, 4, 7]
        suspects = [1, 3, 4, 7, 9]
        cand = KeyCandidate(flip_bits(k.main_loop_bits, wrong), 0, Polarity.SMALLER_IS_ONE)
        res = brute_force_complete(cand, suspects, test16.g, pub, test16,
                                   preloop_bits=(k.bits[1],))
        assert res.key == k
        # at most C(5,0)+C(5,1)+C(5,2)+C(5,3) = 26 point multiplications
        assert res.checks <= 26

    def test_budget_exhaustion_reported(self, test16):
        rng = random.Random(10)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        cand = KeyCandidate(flip_bits(k.main_loop_bits, [0, 2, 5, 8]), 0,
                            Polarity.SMALLER_IS_ONE)
        res = brute_force_complete(cand, [0, 2], test16.g, pub, test16,
                                   budget=3, preloop_bits=(k.bits[1],))
        assert res.key is None and res.budget_exhausted and res.checks == 3

    def test_enumeration_order_is_increasing_weight(self, test16):
        rng = random.Random(11)
        k = Scalar.random(rng, 14)
        pub = kp_point(k, test16.g, test16)
        # plant 1 wrong bit; with suspects covering it, weight-1 pass finds it
        cand = KeyCandidate(flip_bits(k.main_loop_bits, [5]), 0, Polarity.SMALLER_IS_ONE)
        res = brute_force_complete(cand, list(range(12)), test16.g, pub, test16,
                                   preloop_bits=(k.bits[1],))
        assert res.key == k
        assert res.checks <= 1 + 12

    def test_malformed_preloop_bits_raise(self, test8):
        """A repeated pre-loop bit or one outside {0, 1} is refused, not
        reduced mod 2: (2, 3) would run as (0, 1) and (1, 1, 1) would count
        3 checks per subset.  () is refused too, as it would search nothing.
        A single bit stays valid."""
        k = Scalar(0b1011010011)
        pub = kp_point(k, test8.g, test8)
        cand = KeyCandidate(flip_bits(k.main_loop_bits, [3]), 0, Polarity.SMALLER_IS_ONE)
        for preloop in [(2, 3), (1, 1, 1), (0, 0), (-1,), (0, 2), ()]:
            with pytest.raises(ValueError, match="pre-loop bits"):
                brute_force_complete(cand, [1, 3, 5], test8.g, pub, test8,
                                     preloop_bits=preloop)
        res = brute_force_complete(cand, [1, 3, 5], test8.g, pub, test8, preloop_bits=(0,))
        assert res.key == k and res.checks == 3  # subsets (), (1,), (3,)

    def test_candidate_bit_other_than_0_and_1_raises(self, test8, monkeypatch):
        """A candidate bit of 2 is refused before any point is computed: read
        as 0, (1, 1, 2, 1, 0, 0, 1, 1) would verify k after 1 check."""
        k = Scalar(0b1011010011)
        pub = kp_point(k, test8.g, test8)
        assert k.main_loop_bits == (1, 1, 0, 1, 0, 0, 1, 1)
        tables = []
        monkeypatch.setattr(attack, "_fixed_base_pairs", lambda *args: tables.append(args))
        cand = KeyCandidate((1, 1, 2, 1, 0, 0, 1, 1), 0, Polarity.SMALLER_IS_ONE)
        for suspects in ([], [2], [0, 5]):
            with pytest.raises(curve.CurveError, match="bits 0 and 1"):
                brute_force_complete(cand, suspects, test8.g, pub, test8)
        assert tables == []

    def test_suspect_limit(self, test16):
        cand = KeyCandidate((0,) * 30, 0, Polarity.SMALLER_IS_ONE)
        with pytest.raises(ValueError):
            brute_force_complete(cand, list(range(25)), test16.g, test16.g, test16)

    def test_worst_case_formula(self):
        assert worst_case_checks(17) == 1 << 17


class TestEndToEndExtraction:
    def test_noiseless_leaky_trace_yields_exact_key(self, b233_run, b233_leaky_trace):
        params, k, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        report = attack.evaluate(m, truth_bits=k.main_loop_bits)
        assert report.best_delta == 1.0
        pub = kp_point(k, params.g, params)
        assert recover_scalar(report.best_candidate, params.g, pub, params) == k

    def test_scores_match_correctness(self, b233_run):
        """evaluate's vectorized scores equal one correctness() call per
        candidate on a noisy trace, where the deltas spread."""
        params, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=1.0, rng_seed=9))
        m = segment_trace(trace, schedule.num_slots)
        report = attack.evaluate(m, truth_bits=k.main_loop_bits)
        scored = [correctness(c, k.main_loop_bits) for c in report.candidates]
        assert len(set(report.deltas)) > 10
        assert [float(d) for d in report.deltas] == [d for d, _ in scored]
        assert report.best_index == max(range(len(scored)), key=lambda i: scored[i][0])
        n = len(k.main_loop_bits)
        with pytest.raises(ValueError, match=f"candidate has {n - 2} bits, truth has {n}"):
            attack.evaluate(segment_trace(trace, n - 2), truth_bits=k.main_loop_bits)
        with pytest.raises(ValueError, match="verification needs params alongside pub"):
            attack.evaluate(m, pub=params.g)

    def test_both_polarities_win_somewhere(self, b233_run, b233_leaky_trace):
        _, k, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        report = attack.evaluate(m, truth_bits=k.main_loop_bits)
        perfect = [c for c, d in zip(report.candidates, report.deltas) if d == 1.0]
        assert {c.polarity for c in perfect} == {Polarity.SMALLER_IS_ONE,
                                                 Polarity.SMALLER_IS_ZERO}
        assert {c.sample_index for c in perfect} == set(differing_cycles())

    def test_rescaling_leaves_bits_unchanged(self, b233_run, b233_leaky_trace):
        _, _, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        before = [c.bits for c in extract_candidates(m)]
        m2 = 2.0 * m + 1.0
        after = [c.bits for c in extract_candidates(m2)]
        assert before == after

    def test_offset_does_not_improve_attack(self, b233_run, b233_leaky_trace):
        _, k, _, _, schedule = b233_run
        best = {}
        for off in (-1, 0, 1):
            m = segment_trace(b233_leaky_trace, schedule.num_slots, offset=off)
            rep = attack.evaluate(m, truth_bits=k.main_loop_bits)
            best[off] = rep.best_delta
        assert best[0] >= best[-1]
        assert best[0] >= best[1]

    def test_report_csv(self, tmp_path, b233_run, b233_leaky_trace):
        _, k, _, _, schedule = b233_run
        m = segment_trace(b233_leaky_trace, schedule.num_slots)
        report = attack.evaluate(m, truth_bits=k.main_loop_bits)
        path = tmp_path / "report.csv"
        attack.report_to_csv(report, path, config_lines=["curve=b233"])
        lines = path.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "sample_index,polarity,delta,verified"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 108  # 2 * 54 candidates
        assert any("1.000000" in r for r in rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
                min_size=3, max_size=12))
def test_property_delta_complement(rows):
    m = matrix_of(rows)
    truth = (1, 0, 1) + (0,) * (m.shape[0] - 3) if m.shape[0] >= 3 else None
    truth = truth[: m.shape[0]]
    for cand in extract_candidates(m):
        d1, w1 = correctness(cand, truth)
        d0, w0 = correctness(complement(cand), truth)
        assert len(w1) + len(w0) == m.shape[0]
        assert d1 + d0 == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**20))
def test_property_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    m = matrix_of(rng.normal(size=(8, 5)))
    scaled = m * 3.0 + 7.0
    assert [c.bits for c in extract_candidates(m)] == \
        [c.bits for c in extract_candidates(scaled)]


def _extract_candidates_per_column(matrix):
    """Reference: the comparison to the mean, one Python loop per column."""
    smaller = matrix < attack.mean_slot(matrix)[np.newaxis, :]
    out = []
    for j in range(matrix.shape[1]):
        out.append(KeyCandidate(tuple(int(v) for v in smaller[:, j]), j, Polarity.SMALLER_IS_ONE))
    for j in range(matrix.shape[1]):
        out.append(KeyCandidate(tuple(int(not v) for v in smaller[:, j]), j, Polarity.SMALLER_IS_ZERO))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 8), st.data())
def test_property_extraction_matches_per_column_loop(num_slots, slot_len, data):
    # small integer values make ties with the column mean common; constant
    # columns tie in every slot
    values = data.draw(st.lists(st.integers(-3, 3), min_size=num_slots * slot_len,
                                max_size=num_slots * slot_len))
    slots = np.array(values, dtype=float).reshape(num_slots, slot_len)
    for j in data.draw(st.sets(st.integers(0, slot_len - 1))):
        slots[:, j] = data.draw(st.integers(-100, 100))  # the mean is exact
    m = matrix_of(slots)
    got = extract_candidates(m)
    reference = _extract_candidates_per_column(m)
    assert list(got) == reference
    # the view's contract: length, int indexing from either end, no slices
    assert len(got) == len(reference)
    assert [got[c] for c in range(len(got))] == reference
    assert [got[c] for c in range(-len(got), 0)] == reference
    assert [got.label(c) for c in range(len(got))] == [(c.sample_index, c.polarity)
                                                       for c in reference]
    assert [got.column(c.sample_index, c.polarity) for c in reference] == list(range(len(got)))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        got[data.draw(st.slices(len(reference)))]
    for c in (len(got), -len(got) - 1):
        with pytest.raises(IndexError):
            got[c]
    assert all(type(b) is int for c in [*got, got[0], got[-1]] for b in c.bits)


class TestVerificationB233:
    """Verification on B-233 traces: the flags equal full per-pair
    verification's.  With noise seed 9, one call, of the combined
    candidate's lane and its COMBINED_SUSPECTS flip deltas besides 2^L
    and C, finds the key up to sigma 1.0, where no single candidate
    verifies, and the flags follow mod n.  At sigma 1.5 it misses, and a
    second call computes 2^L, C and every pair once, which finds nothing."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 1.5])
    def test_flags_and_work(self, monkeypatch, b233_run, sigma):
        params, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=sigma, rng_seed=9))
        matrix = segment_trace(trace, k.bit_length - 2)
        pub, = fixed_base_multiples([k.value], params)
        calls = []

        def counting_multiples(ks, params):
            calls.append(list(ks))
            return curve._fixed_base_pairs(ks, params)

        monkeypatch.setattr(attack, "_fixed_base_pairs", counting_multiples)
        report = attack.evaluate(matrix, pub=pub, params=params)
        combined_calls = calls[:]
        calls.clear()
        # with no verifying key, every complement pair is computed
        flags, pair_key = attack._verify_all(report.candidates.bits, pub.pair, params, None)
        monkeypatch.undo()
        assert np.array_equal(report.verified, flags)
        assert list(report.verified) == [c.bits == k.main_loop_bits for c in report.candidates]
        assert report.verified.any() == (sigma < 1)
        # at sigma 1.5 the combined search misses: a second call, and no key
        hit = sigma < 1.5
        assert report.key == (k if hit else None)
        # the pair path has only the single candidates
        assert pair_key == (k if sigma < 1 else None)
        n = len(k.main_loop_bits)
        head = [1 << n, (1 << (n + 2)) + (1 << n) - 1]
        mean = mean_slot(matrix)
        bits, _ = attack.combined_candidate(matrix, mean, separation_scores(matrix, matrix < mean))
        first, *rest = combined_calls
        assert first[:3] == head + [expand_candidate(bits, 0).value]
        assert len(first) == 3 + attack.COMBINED_SUSPECTS
        assert all(lane in {1 << p for p in range(n)} for lane in first[3:])
        # one lane per distinct pair, in extraction order
        lanes = {rep: expand_candidate(rep, 0).value
                 for rep in (min(c.bits, complement(c).bits) for c in report.candidates)}
        assert calls == [head + list(lanes.values())]
        # a miss makes the pair path's call: 2^L, C and every pair
        assert rest == ([] if hit else calls)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_hit_field_work(self, monkeypatch, b233_run, sigma):
        # exact field counts of a hit: one table call (A, C*G, the combined
        # lane and 8 flip deltas), the four targets, one comparison
        params, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=sigma, rng_seed=9))
        matrix = segment_trace(trace, k.bit_length - 2)
        pub, = fixed_base_multiples([k.value], params)
        counts = dict.fromkeys(["mul_classical", "square", "invert"], 0)

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        for name in counts:
            monkeypatch.setattr(gf2m, name, counted(name, getattr(gf2m, name)))
        report = attack.evaluate(matrix, pub=pub, params=params)
        monkeypatch.undo()
        assert report.key == k
        assert counts == {"mul_classical": 152, "square": 36, "invert": 7}

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_no_candidate_objects(self, monkeypatch, tmp_path, b233_run, sigma):
        # verification and the report read the bit matrix's columns; the
        # combined search hits at sigma 0 and misses at 1.5
        params, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel(noise_sigma=sigma, rng_seed=9))
        matrix = segment_trace(trace, k.bit_length - 2)
        pub, = fixed_base_multiples([k.value], params)

        def no_candidate(*args):
            raise AssertionError("a KeyCandidate was built")

        monkeypatch.setattr(attack, "KeyCandidate", no_candidate)
        report = attack.evaluate(matrix, pub=pub, params=params)
        attack.report_to_csv(report, tmp_path / "report.csv")
        assert report.key == (k if sigma < 1.5 else None)
        truth = np.array(k.main_loop_bits, dtype=bool)[:, np.newaxis]
        assert np.array_equal(report.verified, (report.candidates.bits == truth).all(axis=0))
        rows = (tmp_path / "report.csv").read_text().splitlines()[2:]
        assert [r.endswith(",yes") for r in rows] == list(report.verified)

    def test_mean_slot_computed_once(self, monkeypatch, b233_run, b233_leaky_trace):
        params, k, _, _, _ = b233_run
        matrix = segment_trace(b233_leaky_trace, k.bit_length - 2)
        calls = []

        def counting_mean(m):
            calls.append(m)
            return mean_slot(m)

        monkeypatch.setattr(attack, "mean_slot", counting_mean)
        pub, = fixed_base_multiples([k.value], params)
        report = attack.evaluate(matrix, k.main_loop_bits, pub=pub, params=params)
        assert len(calls) == 1
        assert report.key == k

    def test_split_below_mean_computed_once(self, b233_run, b233_leaky_trace):
        # separation_scores reads the split from the candidates' bit matrix
        params, k, _, _, _ = b233_run
        compared = []

        class Slots(np.ndarray):
            def __lt__(self, other):
                compared.append(self.shape)
                return super().__lt__(other)

        matrix = segment_trace(b233_leaky_trace, k.bit_length - 2).view(Slots)
        pub, = fixed_base_multiples([k.value], params)
        report = attack.evaluate(matrix, pub=pub, params=params)
        assert report.key == k
        assert compared.count(matrix.shape) == 1
