import random

import pytest

from kpsca import gf2m
from kpsca.curve import (
    AffinePoint,
    CurveError,
    CurveParams,
    LadderState,
    Scalar,
    get_curve,
    is_on_curve,
    kp_multiply,
    kp_point,
    ladder_finalize,
    ladder_init,
    ladder_step,
    negate,
    oracle_double_and_add,
)

from helpers import count_curve_points


class TestScalar:
    def test_msb_is_always_one(self):
        assert Scalar(5).bits == (1, 0, 1)
        assert Scalar(5).main_loop_bits == (1,)

    def test_from_bits_requires_leading_one(self):
        with pytest.raises(CurveError):
            Scalar.from_bits((0, 1, 1))
        assert Scalar.from_bits((1, 0, 1)).value == 5

    def test_random_has_exact_length(self):
        rng = random.Random(0)
        for _ in range(50):
            assert Scalar.random(rng, 232).bit_length == 232

    def test_positive_required(self):
        with pytest.raises(CurveError):
            Scalar(0)

    def test_hex_roundtrip(self):
        k = Scalar(0xDEADBEEF)
        assert Scalar.from_hex(k.to_hex()) == k


class TestRegistry:
    @pytest.mark.parametrize("name", ["b163", "b233", "test8"])
    def test_base_point_on_curve(self, name):
        params = get_curve(name)
        assert is_on_curve(params.g, params)

    @pytest.mark.parametrize("name", ["b163", "b233", "test8"])
    def test_order_hint(self, name):
        params = get_curve(name)
        assert kp_point(Scalar(params.order_hint), params.g, params).infinity

    def test_unknown_curve(self):
        with pytest.raises(CurveError):
            get_curve("p256")

    def test_point_count_oracle_matches_test8(self, test8):
        # ord(G) = 137 divides the curve order counted by enumeration
        assert count_curve_points(test8) % test8.order_hint == 0

    def test_point_serialization_roundtrip(self, b233):
        assert AffinePoint.from_hex(b233.field, b233.g.to_hex()) == b233.g
        inf = AffinePoint.at_infinity()
        assert AffinePoint.from_hex(b233.field, inf.to_hex()).infinity


class TestLadderInit:
    def test_formulas(self, b163):
        state = ladder_init(b163.g, b163)
        x = b163.g.x
        assert state.X1 == x
        assert state.Z1.value == 1
        assert state.Z2 == gf2m.square(x)
        # X2 = x^4 + b recomputed by the field oracle
        assert state.X2 == gf2m.add(gf2m.square(gf2m.square(x)), b163.b)

    def test_x_equals_one(self):
        # curve crafted so (1, 0) is on it: y^2 + y = 1 + a + b = 0
        spec = get_curve("test8").field
        a, b = spec.element(0x20), spec.element(0x21)
        params = CurveParams(
            field=spec, a=a, b=b, g=AffinePoint(spec.one(), spec.zero())
        )
        state = ladder_init(params.g, params)
        assert state.X1.value == 1 and state.Z1.value == 1
        assert state.X2 == gf2m.add(spec.one(), b)  # 1^4 + b
        assert state.Z2.value == 1  # 1^2

    def test_degenerate_x_zero_rejected(self, test8):
        # (0, sqrt(b)) is on the curve but breaks the Z2 != 0 invariant
        spec = test8.field
        sqrt_b = test8.b
        for _ in range(spec.m - 1):
            sqrt_b = gf2m.square(sqrt_b)
        p = AffinePoint(spec.zero(), sqrt_b)
        assert is_on_curve(p, test8)
        with pytest.raises(CurveError):
            ladder_init(p, test8)

    def test_infinity_rejected(self, b233):
        with pytest.raises(CurveError):
            ladder_init(AffinePoint.at_infinity(), b233)

    def test_off_curve_rejected(self, b233):
        bad = AffinePoint(b233.g.x, gf2m.add(b233.g.y, b233.field.one()))
        with pytest.raises(CurveError):
            ladder_init(bad, b233)


class TestLadderStep:
    def test_mirror_property(self, b233):
        rng = random.Random(1)
        spec = b233.field
        for _ in range(20):
            state = LadderState(*(spec.random_element(rng) for _ in range(4)))
            x, b = spec.random_element(rng), b233.b
            direct = ladder_step(state, 0, x, b)
            mirrored = ladder_step(state.swapped(), 1, x, b).swapped()
            assert direct == mirrored

    def test_double_degenerate_flagged(self, b233):
        spec = b233.field
        state = LadderState(spec.one(), spec.zero(), spec.one(), spec.zero())
        with pytest.raises(CurveError):
            ladder_step(state, 1, spec.one(), b233.b)

    def test_one_step_doubles(self, b163):
        # k = (1,0): one step with bit 0 lands on 2G
        state = ladder_init(b163.g, b163)
        state = ladder_step(state, 0, b163.g.x, b163.b)
        r = ladder_finalize(state, b163.g)
        expect = oracle_double_and_add(Scalar(2), b163.g, b163)
        assert r.x == expect.x

    def test_one_step_triples(self, b163):
        state = ladder_init(b163.g, b163)
        state = ladder_step(state, 1, b163.g.x, b163.b)
        r = ladder_finalize(state, b163.g)
        expect = oracle_double_and_add(Scalar(3), b163.g, b163)
        assert r.x == expect.x


class TestLadderFinalize:
    def test_k_equals_one_returns_p(self, b233):
        result, _ = kp_multiply(Scalar(1), b233.g, b233)
        assert result == b233.g

    def test_result_on_curve(self, b233):
        rng = random.Random(2)
        for _ in range(10):
            k = Scalar.random(rng, rng.randint(2, 64))
            result, _ = kp_multiply(k, b233.g, b233)
            assert is_on_curve(result, b233)

    def test_infinity_when_k_is_order(self, test8):
        assert kp_point(Scalar(test8.order_hint), test8.g, test8).infinity

    def test_minus_p_when_z2_vanishes(self, test8):
        got = kp_point(Scalar(test8.order_hint - 1), test8.g, test8)
        assert got == negate(test8.g)


class TestKpMultiply:
    def test_small_scalars_vs_oracle(self, b163):
        for k in range(1, 40):
            got, _ = kp_multiply(Scalar(k), b163.g, b163)
            assert got == oracle_double_and_add(Scalar(k), b163.g, b163)

    def test_exhaustive_range_small_curve(self, test8):
        for k in range(1, 300):
            got = kp_point(Scalar(k), test8.g, test8)
            assert got == oracle_double_and_add(Scalar(k), test8.g, test8), k

    def test_random_on_big_curves(self, b163, b233):
        rng = random.Random(3)
        for params, nbits in ((b163, 162), (b233, 232)):
            for _ in range(5):
                k = Scalar.random(rng, nbits)
                got, _ = kp_multiply(k, params.g, params)
                assert got == oracle_double_and_add(k, params.g, params)

    def test_transcript_geometry_232(self, b233_run):
        _, k, result, transcript, _ = b233_run
        assert k.bit_length == 232
        # states before the pre-loop step and the 230 main-loop steps, then the final state
        states = transcript.states
        assert len(states) == 1 + 230 + 1
        assert states[0] == ladder_init(transcript.point, transcript.params)
        assert ladder_finalize(states[-1], transcript.point) == result

    def test_transcript_bits_match_scalar(self, b233_run):
        # states[i] -> states[i + 1] is the step for bits[i + 1], and only that bit
        _, k, _, transcript, _ = b233_run
        x, b, states = transcript.point.x, transcript.params.b, transcript.states
        for i, bit in enumerate(k.bits[1:]):
            assert ladder_step(states[i], bit, x, b) == states[i + 1]
            assert ladder_step(states[i], 1 - bit, x, b) != states[i + 1]

    def test_projective_consistency(self, test8):
        # before each step with running prefix m: X1/Z1 = x([m]P), X2/Z2 = x([m+1]P)
        k = Scalar(0b110101101)
        _, transcript = kp_multiply(k, test8.g, test8)
        l = k.bit_length
        for j, state in enumerate(transcript.states):
            prefix = k.value >> (l - 1 - j)  # bits processed so far; all of k at the end
            for reg_x, reg_z, mult in ((state.X1, state.Z1, prefix),
                                       (state.X2, state.Z2, prefix + 1)):
                expect = oracle_double_and_add(Scalar(mult), test8.g, test8)
                if reg_z.value == 0:
                    assert expect.infinity
                else:
                    got = gf2m.mul_classical(reg_x, gf2m.invert(reg_z))
                    assert got == expect.x, (j, mult)

    def test_result_transcript_agree(self, b233):
        rng = random.Random(4)
        k = Scalar.random(rng, 50)
        result, transcript = kp_multiply(k, b233.g, b233)
        assert transcript.result == result
        assert transcript.scalar == k


class TestOracle:
    def test_identity(self, b163):
        assert oracle_double_and_add(Scalar(1), b163.g, b163) == b163.g

    def test_negation_sums_to_infinity(self, b163):
        from kpsca.curve import point_add

        assert point_add(b163.g, negate(b163.g), b163).infinity

    def test_consecutive_scalars_differ_by_p(self, test8):
        from kpsca.curve import point_add

        rng = random.Random(6)
        for _ in range(20):
            k = rng.randint(1, 500)
            r1 = oracle_double_and_add(Scalar(k), test8.g, test8)
            r2 = oracle_double_and_add(Scalar(k + 1), test8.g, test8)
            assert point_add(r1, test8.g, test8) == r2

    def test_rejects_bad_input(self, b233):
        with pytest.raises(CurveError):
            oracle_double_and_add(Scalar(3), AffinePoint.at_infinity(), b233)
