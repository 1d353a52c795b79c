import random

import pytest

from kpsca import authproto
from kpsca.authproto import Identity, challenge, respond, verify
from kpsca.curve import (
    AffinePoint, CurveError, NOMINAL_SCALAR_BITS, Scalar, get_curve, is_on_curve, kp_point,
)
from kpsca.leaksim import LeakModel

from helpers import oracle_double_and_add, point_add, two_torsion

MODEL = LeakModel(addr_weight=1.0, noise_sigma=0.0, samples_per_cycle=2, rng_seed=0)


@pytest.fixture(scope="module")
def bob():
    return Identity.generate("b233", random.Random(100), NOMINAL_SCALAR_BITS["b233"])


class TestIdentity:
    def test_public_key_matches(self, bob):
        assert bob.pub == kp_point(bob.k, bob.params.g, bob.params)

    def test_nominal_scalar_bits(self, bob):
        assert bob.k.bit_length == 232

    def test_key_multiple_of_order_rejected(self):
        # the 10-bit key drawn from seed 66 is 548 = 4 * 137
        with pytest.raises(CurveError, match="private key is a multiple of the base point's order"):
            Identity.generate("test8", random.Random(66), 10)


class TestChallengeResponse:
    def test_honest_round_trip(self, bob):
        rng = random.Random(101)
        ch = challenge(bob.pub, bob.params, rng, 232)
        q_b, trace = respond(bob, ch.R, MODEL)
        assert verify(ch.q_expected, q_b)
        assert trace.ground_truth == bob.k

    def test_commutativity(self, bob):
        # [k_B][r]G == [r][k_B]G, asserted numerically
        rng = random.Random(102)
        r = Scalar.random(rng, 64)
        R = kp_point(r, bob.params.g, bob.params)
        lhs, _ = respond(bob, R, MODEL)
        rhs = kp_point(r, bob.pub, bob.params)
        assert lhs == rhs

    def test_r_equals_one_hook(self, bob):
        # r = 1 makes R = G and Q = Pub_B
        r = Scalar(1)
        R = kp_point(r, bob.params.g, bob.params)
        assert R == bob.params.g
        q = kp_point(r, bob.pub, bob.params)
        assert q == bob.pub

    # test8's 10-bit r covers every residue class mod 137, 0 included,
    # and challenge rejects the r whose R would be at infinity
    @pytest.mark.parametrize("curve, seeds, nbits, some_rejected",
                             [("b233", range(105, 107), 232, False),
                              ("test8", range(1000), 10, True)])
    def test_challenge_R_matches_ladder(self, curve, seeds, nbits, some_rejected):
        params = get_curve(curve)
        pub = kp_point(Scalar(91), params.g, params)
        rejected = 0
        for seed in seeds:
            r = Scalar.random(random.Random(seed), nbits)
            if r.value % params.order_hint == 0:
                with pytest.raises(CurveError, match="multiple of the base point's order"):
                    challenge(pub, params, random.Random(seed), nbits)
                rejected += 1
                continue
            ch = challenge(pub, params, random.Random(seed), nbits)
            assert ch.r == r
            assert ch.R == kp_point(ch.r, params.g, params)
        assert (rejected > 0) == some_rejected

    def test_challenge_q_matches_oracle(self, bob):
        rng = random.Random(103)
        ch = challenge(bob.pub, bob.params, rng, 24)
        assert ch.q_expected == oracle_double_and_add(ch.r, bob.pub, bob.params)
        assert ch.r.bits[0] == 1

    def test_wrong_identity_fails(self, bob):
        rng = random.Random(104)
        mallory = Identity.generate("b233", random.Random(999), 232)
        ch = challenge(bob.pub, bob.params, rng, 232)
        q_m, _ = respond(mallory, ch.R, MODEL)
        assert not verify(ch.q_expected, q_m)

    def test_off_curve_challenge_rejected(self, bob):
        bad = AffinePoint(bob.params.g.x, bob.params.field.element(bob.params.g.y.value ^ 1))
        with pytest.raises(CurveError):
            respond(bob, bad, MODEL)

    def test_infinity_challenge_rejected(self, bob):
        with pytest.raises(CurveError):
            respond(bob, AffinePoint.at_infinity(), MODEL)

    def test_bad_public_key_rejected(self, bob):
        bad = AffinePoint(bob.params.g.x, bob.params.field.element(bob.params.g.y.value ^ 1))
        with pytest.raises(CurveError):
            challenge(bad, bob.params, random.Random(0), 232)

    def test_challenge_outside_base_subgroup_rejected(self, bob, monkeypatch):
        # R = r'G + T2 would be answered with k_B*r'G + (k_B mod 2)*T2, which
        # shows k_B mod 2 to whoever knows r'; it is refused before any trace
        params = bob.params
        R = point_add(kp_point(Scalar(12345), params.g, params), two_torsion(params), params)
        assert is_on_curve(R, params)

        def no_trace(*args):
            raise AssertionError("rendered a trace for a refused challenge point")

        monkeypatch.setattr(authproto, "synthesize_trace", no_trace)
        with pytest.raises(CurveError):
            respond(bob, R, MODEL)

    def test_public_key_outside_base_subgroup_rejected(self, bob):
        pub = point_add(bob.pub, two_torsion(bob.params), bob.params)
        assert is_on_curve(pub, bob.params)
        with pytest.raises(CurveError):
            challenge(pub, bob.params, random.Random(0), 232)
