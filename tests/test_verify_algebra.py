"""Candidate verification by point algebra agrees with one ladder per scalar.

evaluate(), recover_scalar() and brute_force_complete() derive every
expansion's point from fixed-base multiples plus affine additions.  These
properties compare them with the reference loops in helpers, which run
one full kP per tested scalar, on the small test curves, including
scalars whose kP is the point at infinity and off-curve public keys.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpsca import attack, curve, gf2m
from kpsca.attack import (
    KeyCandidate,
    Polarity,
    brute_force_complete,
    evaluate,
    expand_candidate,
    extract_candidates,
    recover_scalar,
)
from kpsca.curve import (
    AffinePoint,
    CurveError,
    Scalar,
    fixed_base_multiples,
    get_curve,
    in_base_subgroup,
    is_on_curve,
    kp_multiply,
    kp_point,
    negate,
)
from kpsca.gf2m import FieldSpec
from kpsca.leaksim import LeakModel, build_schedule, synthesize_trace
from kpsca.traces import CompressionMethod, compress, segment

from helpers import (
    make_test16_curve,
    point_add,
    reference_brute_force,
    reference_flip_search,
    reference_recover_scalar,
    reference_verified,
    two_torsion,
)

TEST8 = get_curve("test8")
TEST16 = make_test16_curve()
CURVES = {"test8": TEST8, "test16": TEST16}
PRELOOP_TUPLES = [(0, 1), (0,), (1,), (1, 0)]


def off_curve_twin(point, params):
    """A point off the curve sharing point's x: the equal-x addition branch."""
    d = 1 if point.x.value != 1 else 2
    twin = AffinePoint(point.x, params.field.element(point.y.value ^ d))
    assert not is_on_curve(twin, params)
    return twin


def matrix_for(bits, extra_columns=()):
    """Slot matrix whose first SMALLER_IS_ONE candidate reads `bits` (unless constant)."""
    cols = [[1.0 - b for b in bits]] + [list(c) for c in extra_columns]
    return np.array(cols, dtype=float).T.copy()


@st.composite
def key_bits(draw, curve_name):
    """Main-loop bits: random, or on test8 those of a multiple of the order."""
    params = CURVES[curve_name]
    if curve_name == "test8" and draw(st.booleans()):
        k = params.order_hint * draw(st.integers(1, 14))
        return Scalar(k).main_loop_bits
    n = draw(st.integers(2, 9))
    return tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@st.composite
def public_key(draw, params, bits):
    """A planted key (for bits), a random multiple, infinity, or off-curve."""
    kind = draw(st.sampled_from(["planted", "multiple", "infinity", "off_curve"]))
    if kind == "planted":
        return kp_point(expand_candidate(bits, draw(st.integers(0, 1))), params.g, params)
    if kind == "multiple":
        return kp_point(Scalar(draw(st.integers(1, 4 * params.order_hint))), params.g, params)
    if kind == "infinity":
        return AffinePoint.at_infinity()
    near = draw(st.sampled_from(["step", "base"]))
    anchor = kp_point(Scalar(1 << len(bits)), params.g, params) if near == "step" else params.g
    return off_curve_twin(anchor, params)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(CURVES)))
def test_evaluate_matches_reference(data, curve_name):
    params = CURVES[curve_name]
    bits = data.draw(key_bits(curve_name))
    extra = data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=len(bits), max_size=len(bits)),
        max_size=2,
    ))
    matrix = matrix_for(bits, extra)
    pub = data.draw(public_key(params, bits))
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, attack, "_fixed_base_pairs")
        report = evaluate(matrix, pub=pub, params=params)
    cands = extract_candidates(matrix)
    want = reference_verified(cands, params.g, pub, params)
    assert np.array_equal(report.verified, want)
    # at most two table calls: the combined candidate's, then every pair's
    # on a miss (none for an off-curve pub)
    assert len(calls) <= 2 * is_on_curve(pub, params)
    # the key is the first verified candidate's, pre-loop bit 0 first; the
    # combined candidate's flip search may also find a verifying scalar
    # that no candidate reads
    if want.any():
        first = cands[int(np.argmax(want))]
        assert report.key == reference_recover_scalar(first, params.g, pub, params)
    elif report.key is not None:
        assert report.key.bit_length == len(bits) + 2
        assert kp_point(report.key, params.g, params) == pub


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(sorted(CURVES)), st.sampled_from(PRELOOP_TUPLES))
def test_recover_scalar_matches_reference(data, curve_name, preloop):
    params = CURVES[curve_name]
    bits = data.draw(key_bits(curve_name))
    pub = data.draw(public_key(params, bits))
    cand = KeyCandidate(bits, 0, Polarity.SMALLER_IS_ONE)
    want = reference_recover_scalar(cand, params.g, pub, params, preloop)
    assert brute_force_complete(cand, (), params.g, pub, params, preloop_bits=preloop).key == want
    if preloop == (0, 1):
        assert recover_scalar(cand, params.g, pub, params) == want


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(CURVES)), st.sampled_from(PRELOOP_TUPLES))
def test_brute_force_matches_reference(data, curve_name, preloop):
    params = CURVES[curve_name]
    truth = data.draw(key_bits(curve_name))
    positions = range(len(truth))
    suspects = data.draw(st.lists(st.sampled_from(positions), max_size=6, unique=True))
    errors = data.draw(st.lists(st.sampled_from(positions), max_size=3, unique=True))
    cand_bits = tuple(b ^ (i in errors) for i, b in enumerate(truth))
    cand = KeyCandidate(cand_bits, 0, Polarity.SMALLER_IS_ONE)
    pub = data.draw(public_key(params, truth))
    budget = data.draw(st.one_of(st.integers(0, 70).map(lambda v: 2 * v + 1),
                                 st.just(1 << 17)))
    got = brute_force_complete(cand, suspects, params.g, pub, params,
                               budget=budget, preloop_bits=preloop)
    want = reference_brute_force(cand, suspects, params.g, pub, params,
                                 budget=budget, preloop_bits=preloop)
    assert got == want


# a 14-bit test16 key and planted flips of weights 0-4 among its 12 main-loop bits
KEY14 = Scalar(0b10110100111011)
PLANTED_FLIPS = [(), (7,), (3, 10), (2, 5, 11), (0, 4, 8, 9)]
BRUTE_ORDER = [c for w in range(13) for c in itertools.combinations(range(12), w)]


def brute_force_args(flips):
    cand = KeyCandidate(flipped(KEY14.main_loop_bits, flips), 0, Polarity.SMALLER_IS_ONE)
    return cand, range(12), TEST16.g, kp_point(KEY14, TEST16.g, TEST16), TEST16


@pytest.mark.parametrize("preloop", [(0, 1), (1, 0)])
@pytest.mark.parametrize("flips", PLANTED_FLIPS, ids=lambda f: f"weight{len(f)}")
def test_brute_force_budgets_around_the_hit(flips, preloop):
    """With 12 suspects and 2 targets, weights 1-4 are decided by table
    lookups of their parents' points; the result equals the reference's
    with the budget one short of the hit, exactly at it and at 2^17."""
    args = brute_force_args(flips)
    hit = reference_brute_force(*args, preloop_bits=preloop)
    assert hit.key == KEY14
    assert hit.checks == 2 * BRUTE_ORDER.index(flips) + 1 + (preloop[0] != KEY14.bits[1])
    for budget in (hit.checks - 1, hit.checks, 1 << 17):
        assert (brute_force_complete(*args, budget=budget, preloop_bits=preloop)
                == reference_brute_force(*args, budget=budget, preloop_bits=preloop))


def test_parent_plus_its_own_delta_is_no_child():
    """pub is the point of slot 3 flipped, plus slot 3's delta once more:
    the weight-2 lookup of parent {3} matches T_0 - delta_3, which names
    no subset.  The first real hit is {0, 1, 2} with pre-loop bit 1."""
    bits = (1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    pub = kp_point(Scalar(expand_candidate(bits, 0).value + (1 << 9)), TEST16.g, TEST16)
    cand = KeyCandidate(bits, 0, Polarity.SMALLER_IS_ONE)
    want = reference_brute_force(cand, range(12), TEST16.g, pub, TEST16)
    assert want.key == expand_candidate(flipped(bits, {0, 1, 2}), 1)
    assert brute_force_complete(cand, range(12), TEST16.g, pub, TEST16) == want


def count_calls(monkeypatch, module, name, size=lambda *args: 1):
    """Record size(*args) of every call of module.name, until monkeypatch.undo()."""
    real, sizes = getattr(module, name), []

    def counted(*args):
        sizes.append(size(*args))
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return sizes


@pytest.mark.parametrize("flips", [(0, 1, 2), (3, 7, 11), (9, 10, 11)])
def test_weight3_hit_computes_no_weight3_point(monkeypatch, flips):
    """12 suspects, 2 targets: once the unflipped point misses, one
    24-point table is built, and from then on a subset is decided by its
    parent's point.  A weight-3 hit computes the 11 weight-1 points that
    have children and the weight-2 points that have children up to its
    parent's (55 at most), no weight-3 point; pub - A takes a batch of
    one pair before the table."""
    args = brute_force_args(flips)
    adds = count_calls(monkeypatch, attack, "_point_add")
    batches = count_calls(monkeypatch, attack, "_add_many", lambda ps, qs, params: len(ps))
    res = brute_force_complete(*args)
    monkeypatch.undo()
    assert res.key == KEY14 and res.checks == 2 * BRUTE_ORDER.index(flips) + 1 + KEY14.bits[1]
    parents = [c for c in itertools.combinations(range(12), 2) if c[-1] < 11]
    assert batches == [1, 24]
    assert len(adds) == 11 + parents.index(flips[:2]) + 1 <= 66


def combined_inputs(params, bits, suspects, pub):
    """The combined search's points and the targets of its 4 variants, as
    `attack._complete` computes them, by `attack._setup`: int pairs."""
    return attack._setup(len(bits), flip_lanes(bits, suspects), pub.pair, params, True)


def combined_key(bits, suspects, pub, params):
    """The scalar that `attack._complete` over all 4 variants finds, as
    `evaluate` runs it, or None."""
    found = attack._complete(bits, suspects, pub.pair, params, range(4))
    return None if found is None else found[0]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(sorted(CURVES)))
def test_combined_key_matches_reference_flip_search(data, curve_name):
    """With 4 targets and up to 8 suspects, the table lookups find what
    one addition and four comparisons per subset find."""
    params = CURVES[curve_name]
    n = data.draw(st.integers(2, 12 if curve_name == "test16" else 9))
    truth = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    order = data.draw(st.permutations(range(n)))
    size = data.draw(st.one_of(st.integers(0, min(n, 8)), st.just(min(n, 8))))
    suspects = sorted(order[:size])
    # errors among the suspects, perhaps one outside them, perhaps complemented
    flips = set(order[:data.draw(st.integers(0, size))] + order[size:size + data.draw(st.integers(0, 1))])
    if data.draw(st.booleans()):
        flips ^= set(range(n))
    bits = flipped(truth, flips)
    pub = data.draw(public_key(params, truth).filter(lambda p: is_on_curve(p, params)))
    points, targets = combined_inputs(params, bits, suspects, pub)
    assert (combined_key(bits, suspects, pub, params)
            == reference_flip_search(bits, suspects, points, targets, params))


@pytest.mark.parametrize("flips", [(), (5,), (1, 9), (9, 11)])
def test_combined_hit_builds_at_most_one_batch(monkeypatch, flips):
    """With 8 suspects and 4 targets, a hit of the unflipped point builds
    no table; a weight-1 or weight-2 hit builds the one 32-point table of
    T_j - delta_i and finds the key the per-subset walk finds."""
    suspects = [0, 1, 3, 5, 6, 8, 9, 11]
    bits = flipped(KEY12, flips)
    pub = kp_point(expand_candidate(KEY12, 1), TEST16.g, TEST16)
    points, targets = combined_inputs(TEST16, bits, suspects, pub)
    batches = count_calls(monkeypatch, attack, "_add_many", lambda ps, qs, params: len(ps))
    key, _ = attack._flip_search(bits, suspects, points, targets, range(4), TEST16)
    monkeypatch.undo()
    assert key == reference_flip_search(bits, suspects, points, targets, TEST16)
    assert key == expand_candidate(KEY12, 1)
    assert batches == ([32] if flips else [])


class TestOffCurvePublicKey:
    """An off-curve pub verifies nothing, even where the equal-x branch of
    point_add would turn a derived target into the point at infinity."""

    def setup_method(self):
        # k(c, 0) = 137 = ord(G) on test8, so k(c, 0)*G is the point at infinity
        self.bits = Scalar(TEST8.order_hint).main_loop_bits
        self.step = kp_point(Scalar(1 << len(self.bits)), TEST8.g, TEST8)
        self.pub = off_curve_twin(self.step, TEST8)
        self.cand = KeyCandidate(self.bits, 0, Polarity.SMALLER_IS_ONE)

    def test_unguarded_target_would_match(self):
        assert kp_point(expand_candidate(self.bits, 0), TEST8.g, TEST8).infinity
        assert point_add(self.pub, negate(self.step), TEST8).infinity

    def test_recover_scalar(self):
        assert recover_scalar(self.cand, TEST8.g, self.pub, TEST8) is None
        assert reference_recover_scalar(self.cand, TEST8.g, self.pub, TEST8) is None

    def test_evaluate(self):
        report = evaluate(matrix_for(self.bits), pub=self.pub, params=TEST8)
        assert report.candidates[0].bits == self.bits
        assert not report.verified.any()

    @pytest.mark.parametrize("budget, checks, exhausted",
                             [(1 << 17, 16, False), (16, 16, False), (5, 5, True)])
    def test_brute_force_counts_full_checks(self, budget, checks, exhausted):
        res = brute_force_complete(self.cand, [0, 2, 4], TEST8.g, self.pub, TEST8,
                                   budget=budget)
        assert res == attack.BruteForceResult(None, checks, exhausted)


def in_field(point, spec):
    return AffinePoint(spec.element(point.x.value), spec.element(point.y.value))


B233 = get_curve("b233")
PLANTED = Scalar(0b110100111011)
OTHER_233 = FieldSpec(233, (1 << 233) | 0b11)  # B-233's degree, another polynomial


@pytest.mark.parametrize("pub", [TEST8.g, in_field(kp_point(PLANTED, B233.g, B233), OTHER_233)],
                         ids=["test8_g", "b233_pub_in_other_field"])
def test_foreign_field_point(monkeypatch, pub):
    """A point of another field is off the curve at every boundary check.

    The arithmetic runs on ints in the curve's field, so the second point,
    whose ints are the planted key's B-233 public key, would verify without it.
    With a 12-bit key the combined search would run on B-233, but the curve
    check comes first: no combined candidate and no table call.
    """
    assert not is_on_curve(pub, B233)
    with pytest.raises(CurveError):
        kp_point(Scalar(3), pub, B233)
    matrix = matrix_for(PLANTED.main_loop_bits)
    tables = count_calls(monkeypatch, attack, "_fixed_base_pairs")
    combined = count_calls(monkeypatch, attack, "combined_candidate")
    assert not evaluate(matrix, pub=pub, params=B233).verified.any()
    monkeypatch.undo()
    assert tables == combined == []
    same_ints = evaluate(matrix, pub=in_field(pub, B233.field), params=B233)
    assert same_ints.verified.any() == (pub.x.spec == OTHER_233)


@pytest.mark.parametrize("params, key", [(TEST8, Scalar(0b1011001110)), (B233, PLANTED)],
                         ids=["test8", "b233"])
def test_pub_outside_base_subgroup(monkeypatch, params, key):
    """pub + T2, T2 = (0, sqrt(b)), is on the curve but outside <G>, so no
    multiple of G equals it: no candidate verifies, brute force reports its
    whole enumeration, and neither searches, so no table call is made."""
    pub = kp_point(key, params.g, params)
    outside = point_add(pub, two_torsion(params), params)
    assert is_on_curve(outside, params) and not in_base_subgroup(outside, params)
    bits = key.main_loop_bits
    cand = KeyCandidate(bits, 0, Polarity.SMALLER_IS_ONE)
    assert evaluate(matrix_for(bits), pub=pub, params=params).key == key
    tables = count_calls(monkeypatch, attack, "_fixed_base_pairs")
    report = evaluate(matrix_for(bits), pub=outside, params=params)
    forced = brute_force_complete(cand, range(len(bits)), params.g, outside, params)
    monkeypatch.undo()
    assert tables == []
    assert not report.verified.any() and report.key is None
    assert forced == attack.BruteForceResult(None, 2 << len(bits), False)
    if params is TEST8:
        assert forced == reference_brute_force(cand, range(len(bits)), params.g, outside, params)
        want = reference_verified(report.candidates, params.g, outside, params)
        assert np.array_equal(report.verified, want)


# The key (1, 0, 1, 1, 0, 0, 1, 0) is read at column 1, with some spread;
# column 0 separates two levels perfectly (score inf) but reads wrong bits,
# so the key's column scores second.  Score order: columns 0, 1, 3, 6, 4, 5, 2.
SCORED_KEY = (1, 0, 1, 1, 0, 0, 1, 0)
SCORED_COLUMNS = [
    [0, 0, 1, 1, 0, 1, 1, 0],
    [1 - b + 0.1 * (i % 3) for i, b in enumerate(SCORED_KEY)],
    [3, 1, 4, 1, 5, 9, 2, 6],
    [2, 7, 1, 8, 2, 8, 1, 8],
    [1, 4, 1, 4, 2, 1, 3, 5],
    [1, 7, 3, 2, 0, 5, 0, 8],
    [5, 7, 7, 2, 1, 5, 6, 6],
]
SCORE_ORDER = [0, 1, 3, 6, 4, 5, 2]


def counted_evaluate(monkeypatch, matrix, pub, params):
    """evaluate() on matrix, with no ladder allowed: the report and the
    scalars of each fixed_base_multiples call."""
    calls = []

    def no_ladder(k, p, params):
        raise AssertionError("verification ran a ladder")

    def counting_multiples(ks, params):
        calls.append(list(ks))
        return curve._fixed_base_pairs(ks, params)

    monkeypatch.setattr(curve, "kp_point", no_ladder)
    monkeypatch.setattr(attack, "_fixed_base_pairs", counting_multiples)
    report = evaluate(matrix, pub=pub, params=params)
    monkeypatch.undo()
    return report, calls


def target_lanes(n):
    """The first call's lanes before any pair: 2^L and C."""
    return [1 << n, (1 << (n + 2)) + (1 << n) - 1]


def combined_of(matrix):
    """The combined candidate's bits, margins and sorted flip-search suspects."""
    mean = attack.mean_slot(matrix)
    bits, margins = attack.combined_candidate(matrix, mean,
                                              attack.separation_scores(matrix, matrix < mean))
    suspects = sorted(np.argsort(margins, kind="stable")[:attack.COMBINED_SUSPECTS].tolist())
    return bits, margins, suspects


def flip_lanes(bits, suspects):
    """The combined lanes of the first call: k(bits, 0), then each suspect's delta."""
    return [expand_candidate(bits, 0).value] + [1 << (len(bits) - 1 - p) for p in suspects]


def scored_matrix():
    return np.array(SCORED_COLUMNS, dtype=float).T.copy()


def scored_evaluate(monkeypatch, params):
    """evaluate() on the scored matrix: the report, the scalars of each
    fixed_base_multiples call, and the pair scalars in extraction order."""
    matrix = scored_matrix()
    scores = attack.separation_scores(matrix, matrix < attack.mean_slot(matrix))
    assert list(np.argsort(-scores, kind="stable")) == SCORE_ORDER
    cands = extract_candidates(matrix)
    assert cands[1].bits == SCORED_KEY
    # one distinct pair per column; its lane is k(c, 0) of its member that starts with 0
    lanes = [pair_lane(cands[c].bits) for c in range(len(SCORED_COLUMNS))]
    assert len(set(lanes)) == len(SCORED_COLUMNS)
    pub = kp_point(expand_candidate(SCORED_KEY, 1), params.g, params)
    report, calls = counted_evaluate(monkeypatch, matrix, pub, params)
    return report, calls, lanes, pub


def test_combined_flip_search_finds_key_in_one_call(monkeypatch):
    """On test16, where 2^(L+2) <= n, evaluate() first computes the combined
    candidate's pair, with 2^L, C and the flip deltas of its 8 least-margin
    slots.  Its complement is one bit from the key, so the flip search
    finds the key.  With 8 slots that search covers every bit string, so
    no second call runs; after a miss,
    test_combined_miss_verifies_other_pairs_in_one_call makes one."""
    report, calls, lanes, pub = scored_evaluate(monkeypatch, TEST16)
    n = len(SCORED_KEY)
    assert (1 << (n + 2)) <= TEST16.order_hint
    bits, _, suspects = combined_of(scored_matrix())
    assert sum(a != (1 - b) for a, b in zip(bits, SCORED_KEY)) == 1
    assert calls == [target_lanes(n) + flip_lanes(bits, suspects)]
    assert report.key == expand_candidate(SCORED_KEY, 1)
    # the key directly at column 1; no other column reads it or its complement
    assert list(np.flatnonzero(report.verified)) == [1]
    want = reference_verified(report.candidates, TEST16.g, pub, TEST16)
    assert np.array_equal(report.verified, want)


def test_test8_hit_decides_flags_mod_n(monkeypatch):
    """On test8, 2^(L+2) > n = 137, so several scalars may verify: the
    completion's hit k' still decides every candidate mod n.  One table
    call, with 2^L, C and the combined lanes, computes no pair, and the
    key is the first verified candidate's, as trying candidates in order
    finds it."""
    report, calls, lanes, pub = scored_evaluate(monkeypatch, TEST8)
    n = len(SCORED_KEY)
    assert (1 << (n + 2)) > TEST8.order_hint
    bits, _, suspects = combined_of(scored_matrix())
    assert calls == [target_lanes(n) + flip_lanes(bits, suspects)]
    want = reference_verified(report.candidates, TEST8.g, pub, TEST8)
    assert np.array_equal(report.verified, want)
    first = int(np.argmax(want))
    assert report.key == reference_recover_scalar(report.candidates[first], TEST8.g, pub, TEST8)


def noisy_test8_matrix():
    """The slots of a 10-bit test8 key's trace at sigma 1.0: 8 slots, 54 cycles."""
    schedule = build_schedule(kp_multiply(Scalar(0b1011001110), TEST8.g, TEST8)[1])
    trace = synthesize_trace(schedule, LeakModel(noise_sigma=1.0, rng_seed=5))
    return segment(compress(trace, CompressionMethod.MEAN), trace.cycle0_cycle, 54, 8)


def test_test8_flags_mod_n_for_every_pub():
    """For every pub in <G> and infinity, on one noisy test8 matrix: the
    completion, whose 8 flips over 4 variants reach every 10-bit scalar,
    hits in the one table call, and the flags it decides mod n equal the
    pair path's (`_verify_all` with no key) and the reference's.  The key
    verifies, and is the pair path's wherever that has one."""
    matrix = noisy_test8_matrix()
    cands = extract_candidates(matrix)
    verified_any = []
    for pub in fixed_base_multiples(range(1, TEST8.order_hint + 1), TEST8):
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, attack, "_fixed_base_pairs")
            report = evaluate(matrix, pub=pub, params=TEST8)
        assert len(calls) == 1
        flags, key = attack._verify_all(cands.bits, pub.pair, TEST8, None)
        assert np.array_equal(report.verified, flags)
        assert np.array_equal(report.verified, reference_verified(cands, TEST8.g, pub, TEST8))
        assert kp_point(report.key, TEST8.g, TEST8) == pub
        assert key in (None, report.key)
        verified_any.append(flags.any())
    assert 0 < sum(verified_any) < len(verified_any)


def three_add_targets(step, c_g, pub, params):
    """`attack._setup`'s targets of the 4 variants as three `point_add`s, one inversion each."""
    c_minus_pub = point_add(c_g, negate(pub), params)
    return [pub, point_add(pub, negate(step), params),
            c_minus_pub, point_add(c_minus_pub, step, params)]


@pytest.mark.parametrize("nbits", [2, 5, 8])
def test_pair_targets_match_three_additions(monkeypatch, nbits):
    """With the complement, the targets of the 4 variants, pub - A and
    C*G - pub sharing one inversion, and without it (no C*G) those of
    variants 0 and 1, equal separate additions for every pub in <G> on
    test8, infinity included, and so through `_add_many`'s infinity and
    equal-x fallbacks.  The inversions are counted net of `_setup`'s
    fixed-base call: 2 with the complement, 1 (pub - A) without."""
    step, c_g = fixed_base_multiples([1 << nbits, (1 << (nbits + 2)) + (1 << nbits) - 1],
                                     TEST8)
    pubs = fixed_base_multiples(range(1, TEST8.order_hint), TEST8)
    # pub - A at infinity or a doubling, C*G - pub at infinity or a
    # doubling, C*G - pub + A at infinity
    special = [step, negate(step), c_g, negate(c_g), point_add(c_g, step, TEST8)]
    assert all(p in pubs for p in special)
    for pub in pubs + [AffinePoint.at_infinity()]:
        want = [p.pair for p in three_add_targets(step, c_g, pub, TEST8)]
        assert attack._setup(nbits, [], pub.pair, TEST8, True) == ([], want)
        assert attack._setup(nbits, [], pub.pair, TEST8, False) == ([], want[:2])
    inversions = []
    invert = gf2m.invert
    monkeypatch.setattr(gf2m, "invert", lambda f, a: inversions.append(a) or invert(f, a))
    fixed_base = attack._fixed_base_pairs

    def uncounted(ks, params):  # the fixed-base call's inversions are not the targets'
        before = len(inversions)
        pairs = fixed_base(ks, params)
        del inversions[before:]
        return pairs

    monkeypatch.setattr(attack, "_fixed_base_pairs", uncounted)
    for complement, count in [(True, 2), (False, 1)]:
        del inversions[:]
        attack._setup(nbits, [], pubs[0].pair, TEST8, complement)  # G: no fallback
        assert len(inversions) == count


@pytest.mark.parametrize("variants", [(0,), (1,), (1, 0)])
def test_complete_searches_the_named_targets(monkeypatch, variants):
    """`_complete` hands `_flip_search` the targets of the variants it
    names, in their order, picked from `_setup`'s list without the
    complement, for every pub in <G> on test8, infinity included.  That
    list always holds pub - A, so brute force with a single pre-loop bit,
    0 included, makes one 1-pair `_add_many`.  The count: the fixed-base
    call computes A and the candidate's point with no `_add_many` of
    `attack`; `_setup` without the complement batches one pair,
    (pub, -A); and with the key's pre-loop bit first the unflipped point
    hits, so `_flip_search` builds no table of T_j - delta_i."""
    bits = (1, 0, 1, 1, 0)
    step, = fixed_base_multiples([1 << len(bits)], TEST8)
    searched = []
    monkeypatch.setattr(attack, "_flip_search",
                        lambda bits, positions, points, targets, *rest: searched.append(targets))
    pubs = fixed_base_multiples(range(1, TEST8.order_hint), TEST8) + [AffinePoint.at_infinity()]
    for pub in pubs:
        attack._complete(bits, [], pub.pair, TEST8, variants)
    monkeypatch.undo()
    want = [[pub.pair, point_add(pub, negate(step), TEST8).pair] for pub in pubs]
    assert searched == [[targets[j] for j in variants] for targets in want]
    key = expand_candidate(bits, variants[0])
    cand = KeyCandidate(bits, 0, Polarity.SMALLER_IS_ONE)
    batches = count_calls(monkeypatch, attack, "_add_many", lambda ps, qs, params: len(ps))
    res = brute_force_complete(cand, (), TEST8.g, kp_point(key, TEST8.g, TEST8), TEST8,
                               preloop_bits=variants)
    monkeypatch.undo()
    assert res == attack.BruteForceResult(key, 1, False)
    assert batches == [1]


# 12-bit keys on test16: 2^14 <= n, and the flip search covers 8 of 12 slots
KEY12 = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)
NOISE12 = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
           [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5],
           [1, 4, 1, 4, 2, 1, 3, 5, 6, 2, 3, 7]]


def two_level(bits, amplitude):
    """A column that separates perfectly and whose SMALLER_IS_ONE candidate reads bits."""
    return [amplitude * (1 - b) for b in bits]


def flipped(bits, positions):
    return tuple(b ^ (i in positions) for i, b in enumerate(bits))


def pair_lane(bits):
    """The lane of bits' complement pair: k(c, 0) of its member that starts with 0."""
    return expand_candidate(min(bits, flipped(bits, range(len(bits)))), 0).value


def test_combined_flip_finds_one_wrong_bit(monkeypatch):
    """Four of the five best columns misread slot 5, so the combined
    candidate does too, with its least margin there: the first flip finds
    the key and no second call runs."""
    misread = flipped(KEY12, {5})
    matrix = matrix_for(misread, [two_level(misread, a) for a in (2, 3, 4)]
                        + [two_level(KEY12, 5)] + NOISE12)
    bits, margins, suspects = combined_of(matrix)
    assert bits == misread and int(np.argmin(margins)) == 5
    pub = kp_point(expand_candidate(KEY12, 1), TEST16.g, TEST16)
    report, calls = counted_evaluate(monkeypatch, matrix, pub, TEST16)
    assert calls == [target_lanes(12) + flip_lanes(misread, suspects)]
    assert report.key == expand_candidate(KEY12, 1)
    want = reference_verified(report.candidates, TEST16.g, pub, TEST16)
    assert want.any() and np.array_equal(report.verified, want)


def test_combined_miss_verifies_other_pairs_in_one_call(monkeypatch):
    """The four best columns read a wrong string w, so the combined
    candidate is w, and neither w nor its complement reaches the key by
    flipping the 8 suspects.  A second call then computes 2^L, C and
    every pair once, in extraction order, the key's pair among them and
    w's pair too, whether w starts with 0 or with 1."""
    for wrong in ({0, 3, 4, 7, 9, 10}, {2, 3, 4, 7, 9, 10}):
        w = flipped(KEY12, wrong)
        w2 = flipped(w, {1, 6, 11})
        key_column = [1 - b + 0.1 * (i % 3) for i, b in enumerate(KEY12)]
        matrix = matrix_for(w, [two_level(w, a) for a in (2, 3, 4)]
                            + [two_level(w2, 1), key_column] + NOISE12)
        bits, _, suspects = combined_of(matrix)
        assert bits == w
        for start in (w, flipped(w, range(12))):
            assert {i for i in range(12) if start[i] != KEY12[i]} - set(suspects)
        pub = kp_point(expand_candidate(KEY12, 0), TEST16.g, TEST16)
        report, calls = counted_evaluate(monkeypatch, matrix, pub, TEST16)
        lanes = list(dict.fromkeys(pair_lane(c.bits) for c in report.candidates))
        assert calls == [target_lanes(12) + flip_lanes(w, suspects), target_lanes(12) + lanes]
        assert {pair_lane(KEY12), pair_lane(w2), pair_lane(w)} <= set(lanes)
        assert report.key == expand_candidate(KEY12, 0)
        want = reference_verified(report.candidates, TEST16.g, pub, TEST16)
        assert want.any() and np.array_equal(report.verified, want)


@pytest.mark.parametrize("case", ["constant_columns", "nan_sample", "narrow_slot"])
def test_degenerate_matrices(case):
    """The combined candidate raises and warns nothing on constant
    columns, a NaN sample or fewer than COMBINED_CYCLES sample indices,
    and the flags stay those of per-candidate verification."""
    if case == "constant_columns":
        matrix = np.full((12, 6), 4.0)
    elif case == "nan_sample":
        matrix = matrix_for(KEY12, [two_level(KEY12, 2)] + NOISE12)
        matrix[3, 0] = np.nan
    else:
        matrix = matrix_for(KEY12, NOISE12[:1])
    assert (matrix.shape[1] < attack.COMBINED_CYCLES) == (case == "narrow_slot")
    pub = kp_point(expand_candidate(KEY12, 1), TEST16.g, TEST16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(matrix, pub=pub, params=TEST16)
    want = reference_verified(report.candidates, TEST16.g, pub, TEST16)
    assert np.array_equal(report.verified, want)
    assert report.key in (None, expand_candidate(KEY12, 1))
    assert want.any() == (case != "constant_columns")


def test_brute_force_takes_g_positionally():
    """g passed positionally, as the benchmark passes it: params.g gives the
    reference's result, and another valid base point, 2G, raises instead of
    being ignored."""
    cand, suspects, g, pub, params = brute_force_args((3, 10))
    assert (brute_force_complete(cand, suspects, g, pub, params)
            == reference_brute_force(cand, suspects, g, pub, params))
    g2 = point_add(g, g, params)
    assert is_on_curve(g2, params) and g2 != g
    with pytest.raises(CurveError):
        brute_force_complete(cand, suspects, g2, pub, params)


@pytest.mark.parametrize("g", [AffinePoint.at_infinity(), off_curve_twin(TEST8.g, TEST8),
                               two_torsion(TEST8)],
                         ids=["infinity", "off_curve", "x_zero"])
def test_bad_base_point_raises(g):
    """A base point the ladder would reject is rejected by verification too:
    an off-curve one by CurveParams, infinity and x = 0 by the window table."""
    bits = Scalar(91).main_loop_bits
    pub = kp_point(Scalar(91), TEST8.g, TEST8)
    cand = KeyCandidate(bits, 0, Polarity.SMALLER_IS_ONE)
    with pytest.raises(CurveError):
        evaluate(matrix_for(bits), pub=pub, params=dataclasses.replace(TEST8, g=g))
    with pytest.raises(CurveError):
        brute_force_complete(cand, [0, 1], g, pub, TEST8)
