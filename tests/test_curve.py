import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from kpsca import curve, gf2m
from kpsca.curve import (
    AffinePoint,
    CurveError,
    CurveParams,
    LadderState,
    Scalar,
    fixed_base_multiples,
    get_curve,
    is_on_curve,
    kp_multiply,
    kp_point,
    ladder_finalize,
    ladder_step,
    negate,
    next_state,
    point_add,
    step_relations_hold,
)

from helpers import (
    count_curve_points,
    encode_window_rows,
    is_probable_prime,
    make_test16_curve,
    oracle_double_and_add,
    shipped_row_count,
)


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

    def test_bit_tuples_cached_on_frozen_scalar(self):
        k = Scalar(0b1011001)
        assert k.main_loop_bits is k.main_loop_bits and k.bits is k.bits
        assert k == Scalar(0b1011001) and hash(k) == hash(Scalar(0b1011001))
        with pytest.raises(AttributeError):
            k.value = 3


class TestRegistry:
    @pytest.mark.parametrize("name", ["b163", "b233", "test8"])
    def test_base_point_on_curve(self, name):
        params = get_curve(name)
        assert is_on_curve(params.g, params)

    @pytest.mark.parametrize("name", ["b163", "b233", "test8"])
    def test_order_hint(self, name):
        params = get_curve(name)
        assert kp_point(Scalar(params.order_hint), params.g, params).infinity

    @pytest.mark.parametrize("name", ["b163", "b233", "test8"])
    def test_order_hint_is_prime(self, name):
        # with n*G = infinity and G != infinity this pins ord(G) = n, on
        # which verification's rule "at most one scalar below n verifies"
        # rests
        assert is_probable_prime(get_curve(name).order_hint)

    def test_primality_helper(self):
        small = [n for n in range(200) if is_probable_prime(n)]
        assert small == [n for n in range(2, 200) if all(n % d for d in range(2, n))]
        # strong pseudoprimes to base 2, and a Carmichael number
        assert not any(map(is_probable_prime, (2047, 3215031751, 561)))
        assert is_probable_prime(2**127 - 1) and not is_probable_prime(2**128 + 1)

    def test_unknown_curve(self):
        with pytest.raises(CurveError):
            get_curve("p256")

    def test_point_count_oracle_matches_test8(self, test8):
        # ord(G) = 137 divides the curve order counted by enumeration
        assert count_curve_points(test8) % test8.order_hint == 0

    def test_coefficients_of_another_field_rejected(self, b233, test8):
        with pytest.raises(CurveError):
            dataclasses.replace(b233, a=test8.a)

    def test_point_serialization_roundtrip(self, b233):
        assert AffinePoint.from_hex(b233.field, b233.g.to_hex()) == b233.g
        inf = AffinePoint.at_infinity()
        assert AffinePoint.from_hex(b233.field, inf.to_hex()).infinity


class TestLadderInit:
    def test_formulas(self, b163):
        state = kp_multiply(Scalar(1), b163.g, b163)[1].states[0]
        f, x = b163.field, b163.g.x.value
        assert state.X1 == x
        assert state.Z1 == 1
        assert state.Z2 == gf2m.square(f, x)
        # X2 = x^4 + b recomputed by the field oracle
        assert state.X2 == gf2m.square(f, gf2m.square(f, x)) ^ b163.b.value

    def test_x_equals_one(self):
        # curve crafted so (1, 0) is on it: y^2 + y = 1 + a + b = 0
        spec = get_curve("test8").field
        a, b = spec.element(0x20), spec.element(0x21)
        params = CurveParams(
            field=spec, a=a, b=b, g=AffinePoint(spec.element(1), spec.element(0))
        )
        state = kp_multiply(Scalar(1), params.g, params)[1].states[0]
        assert state.X1 == 1 and state.Z1 == 1
        assert state.X2 == 1 ^ b.value  # 1^4 + b
        assert state.Z2 == 1  # 1^2

    def test_degenerate_x_zero_rejected(self, test8):
        # (0, sqrt(b)) is on the curve but breaks the Z2 != 0 invariant
        spec = test8.field
        sqrt_b = test8.b.value
        for _ in range(spec.m - 1):
            sqrt_b = gf2m.square(spec, sqrt_b)
        p = AffinePoint(spec.element(0), spec.element(sqrt_b))
        assert is_on_curve(p, test8)
        with pytest.raises(CurveError):
            kp_point(Scalar(3), p, test8)

    def test_infinity_rejected(self, b233):
        with pytest.raises(CurveError):
            kp_point(Scalar(3), AffinePoint.at_infinity(), b233)

    def test_off_curve_rejected(self, b233):
        bad = AffinePoint(b233.g.x, b233.field.element(b233.g.y.value ^ 1))
        with pytest.raises(CurveError):
            kp_point(Scalar(3), bad, b233)


def ladder_tables(p, params):
    """The product tables of x_P and b that `ladder_step` takes."""
    return gf2m.product_table(p.x.value), gf2m.product_table(params.b.value)


class TestLadderStep:
    def test_mirror_property(self, b233):
        rng = random.Random(1)
        spec = b233.field
        for _ in range(20):
            regs = [rng.getrandbits(spec.m) for _ in range(4)]
            x, b = gf2m.product_table(rng.getrandbits(spec.m)), gf2m.product_table(b233.b.value)
            direct, v0 = ladder_step(spec, LadderState(*regs), 0, x, b)
            m, v1 = ladder_step(spec, LadderState(*regs[2:], *regs[:2]), 1, x, b)
            assert direct == LadderState(m.X2, m.Z2, m.X1, m.Z1)
            assert v0 == v1

    def test_step_values_satisfy_relations(self, b233):
        rng = random.Random(7)
        spec, b = b233.field, gf2m.product_table(b233.b.value)
        for bit in (0, 1):
            state = LadderState(*(rng.getrandbits(spec.m) for _ in range(4)))
            after, v = ladder_step(spec, state, bit, gf2m.product_table(rng.getrandbits(spec.m)), b)
            assert after == next_state(bit, v)
            assert step_relations_hold(spec, state, bit, v)
            # the other bit doubles the other register pair
            assert not step_relations_hold(spec, state, 1 - bit, v)

    def test_double_degenerate_flagged(self, b233):
        state = LadderState(1, 0, 1, 0)
        with pytest.raises(CurveError):
            ladder_step(b233.field, state, 1, gf2m.product_table(1), gf2m.product_table(b233.b.value))

    def test_one_step_doubles(self, b163):
        # k = (1,0): one step with bit 0 lands on 2G
        state = kp_multiply(Scalar(1), b163.g, b163)[1].states[0]
        state, _ = ladder_step(b163.field, state, 0, *ladder_tables(b163.g, b163))
        r = ladder_finalize(state, b163.g)
        expect = oracle_double_and_add(Scalar(2), b163.g, b163)
        assert r.x == expect.x

    def test_one_step_triples(self, b163):
        state = kp_multiply(Scalar(1), b163.g, b163)[1].states[0]
        state, _ = ladder_step(b163.field, state, 1, *ladder_tables(b163.g, b163))
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
        # the initialisation depends on the point only, not on the scalar
        assert states[0] == kp_multiply(Scalar(1), transcript.point, transcript.params)[1].states[0]
        assert ladder_finalize(states[-1], transcript.point) == result

    def test_transcript_bits_match_scalar(self, b233_run):
        # states[i] -> states[i + 1] is the step for bits[i + 1], and only that
        # bit; steps[i] holds that step's values
        _, k, _, transcript, _ = b233_run
        f, states = transcript.params.field, transcript.states
        x, b = ladder_tables(transcript.point, transcript.params)
        assert len(transcript.steps) == len(states) - 1
        for i, bit in enumerate(k.bits[1:]):
            assert ladder_step(f, states[i], bit, x, b) == (states[i + 1], transcript.steps[i])
            assert ladder_step(f, states[i], 1 - bit, x, b)[0] != states[i + 1]

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
                if reg_z == 0:
                    assert expect.infinity
                else:
                    got = gf2m.mul_classical(test8.field, reg_x, gf2m.invert(test8.field, reg_z))
                    assert got == expect.x.value, (j, mult)

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


FIXED_BASE_CURVES = {"test8": get_curve("test8"), "test16": make_test16_curve(),
                     "b233": get_curve("b233")}


@st.composite
def fixed_base_scalar(draw, params):
    """A scalar of random length up to past the order, a multiple of the
    order, one past it, or a single-digit power of two."""
    n = params.order_hint
    kind = draw(st.sampled_from(["random", "order", "past_order", "power"]))
    if kind == "order":
        return n * draw(st.integers(1, 3))
    if kind == "past_order":
        return n + draw(st.integers(1, n))
    if kind == "power":
        return 1 << draw(st.integers(0, n.bit_length() + 4))
    return draw(st.integers(1, (1 << draw(st.integers(1, n.bit_length() + 4))) - 1))


class TestFixedBaseMultiples:
    def test_exhaustive_test8(self):
        params = get_curve("test8")
        ks = range(1, 4096)
        got = fixed_base_multiples(ks, params.g, params)
        assert len(got) == len(ks)
        for k, point in zip(ks, got):
            assert point == kp_point(Scalar(k), params.g, params)
            assert point.infinity == (k % params.order_hint == 0)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from(sorted(FIXED_BASE_CURVES)))
    def test_matches_ladder(self, data, name):
        # lanes of independent lengths share the rounds of one call
        params = FIXED_BASE_CURVES[name]
        ks = data.draw(st.lists(fixed_base_scalar(params), min_size=1, max_size=4))
        want = [kp_point(Scalar(k), params.g, params) for k in ks]
        assert fixed_base_multiples(ks, params.g, params) == want

    def test_equal_x_fallback(self, test8, monkeypatch):
        # 4219 has the digits (-5, 2, 1): the tree's first level sums
        # -5*G + 2*64*G = 123*G, which the second meets with the carried
        # term 4096*G = 123*G (mod 137), so the lane doubles; 4247 has the
        # digits (23, 2, 1) and meets 151*G + 4096*G = 14*G - 14*G, which
        # is infinity
        equal_x = []

        def spy(p, q, params):
            if not p.infinity and not q.infinity and p.x == q.x:
                equal_x.append("double" if p == q else "opposite")
            return point_add(p, q, params)

        ks = [4219, 4247, 91]
        assert [curve._signed_digits(k) for k in ks] == [[-5, 2, 1], [23, 2, 1], [27, 1]]
        fixed_base_multiples(ks, test8.g, test8)  # the table rows, ready unspied
        monkeypatch.setattr(curve, "point_add", spy)
        got = fixed_base_multiples(ks, test8.g, test8)
        assert sorted(equal_x) == ["double", "opposite"]
        assert got == [kp_point(Scalar(k), test8.g, test8) for k in ks]
        assert got[1].infinity

    def test_one_inversion_per_tree_level(self, b233, monkeypatch):
        # a lane of n nonzero digits sums in ceil(log2 n) levels; a 232-bit
        # scalar has at most 39 signed base-64 digits
        k = Scalar.random(random.Random(11), 232).value
        n = sum(map(bool, curve._signed_digits(k)))
        want = kp_point(Scalar(k), b233.g, b233)
        fixed_base_multiples([k], b233.g, b233)  # loads the table
        inverted = []
        invert = gf2m.invert
        monkeypatch.setattr(gf2m, "invert", lambda f, a: inverted.append(a) or invert(f, a))
        assert fixed_base_multiples([k], b233.g, b233) == [want]
        assert n <= 39
        assert (n - 1).bit_length() == 6
        assert len(inverted) <= 6

    def test_lanes_of_unequal_depth(self, b233):
        # a 1-digit lane is done before the tree starts, a 39-digit lane
        # (every signed digit nonzero) takes all 6 levels; the digits in
        # -31..32 are unique, so they are the ones the call writes
        rng = random.Random(12)
        digits = [rng.choice([d for d in range(-31, 33) if d]) for _ in range(38)]
        digits.append(rng.randint(1, 32))
        deep = sum(d << 6 * i for i, d in enumerate(digits))
        assert curve._signed_digits(deep) == digits
        ks = [5, deep, 1]
        assert fixed_base_multiples(ks, b233.g, b233) == [kp_point(Scalar(k), b233.g, b233)
                                                         for k in ks]

    def test_table_shared_by_value_and_grown(self, test8):
        table = curve._window_table(test8.g, test8)
        assert curve._window_table(get_curve("test8").g, get_curve("test8")) is table
        fixed_base_multiples([1 << 90], test8.g, test8)
        assert len(table) >= 16
        for i, row in enumerate(table[:16]):
            assert row == tuple(kp_point(Scalar(d << 6 * i), test8.g, test8)
                                for d in range(1, 33))

    @pytest.mark.parametrize("name, rows", [("test16", 4), ("b233", 2)])
    def test_table_columns_are_multiples(self, name, rows):
        # every column d of row i is d*64^i*G; test16's 4 rows pass its order
        params = FIXED_BASE_CURVES[name]
        table = []
        curve._extend_table(table, rows, params.g, params)
        assert len(table) == rows
        for i, row in enumerate(table):
            assert row == tuple(kp_point(Scalar(d << 6 * i), params.g, params)
                                for d in range(1, 33))

    def test_table_extension_inverts_once_per_set_bit_pass(self, b233, monkeypatch):
        # six doublings per new row (the first row of a fresh table starts
        # at G), then one batched addition each for the columns with 2, 3,
        # 4 and 5 set bits
        inverted = []
        invert = gf2m.invert
        monkeypatch.setattr(gf2m, "invert", lambda f, a: inverted.append(a) or invert(f, a))
        table = []
        curve._extend_table(table, 3, b233.g, b233)
        assert len(inverted) == 6 * 3 - 1 + 4
        del inverted[:]
        curve._extend_table(table, 5, b233.g, b233)
        assert len(inverted) == 6 * 2 + 4
        assert table[3][0] == kp_point(Scalar(1 << 18), b233.g, b233)
        assert table[4][30] == kp_point(Scalar(31 << 24), b233.g, b233)

    def test_scalar_checks(self, test8):
        assert fixed_base_multiples([], test8.g, test8) == []
        with pytest.raises(CurveError):
            fixed_base_multiples([5, 0], test8.g, test8)


class TestShippedTables:
    # `_window_table.__wrapped__` reads the shipped rows past the cache,
    # which other tests grow in place

    @pytest.mark.parametrize("name, rows", [("test8", 2), ("b163", 28), ("b233", 40)])
    def test_shipped_rows_are_a_fresh_build(self, name, rows):
        # the rows that cover every scalar below 2^(m+2), byte for byte
        params = get_curve(name)
        assert shipped_row_count(params) == rows
        built = []
        curve._extend_table(built, rows, params.g, params)
        assert (curve._TABLE_DIR / f"window_{name}.bin").read_bytes() == encode_window_rows(
            built, params)
        assert curve._window_table.__wrapped__(params.g, params) == built

    def test_other_base_points_start_empty(self, b233):
        test16 = FIXED_BASE_CURVES["test16"]
        assert curve._window_table.__wrapped__(test16.g, test16) == []
        g2 = point_add(b233.g, b233.g, b233)
        assert curve._window_table.__wrapped__(g2, dataclasses.replace(b233, g=g2)) == []

    def test_scalar_past_the_shipped_rows_extends_them(self, b233, monkeypatch):
        # 2^240 + 12345 has 41 signed digits: one row past the shipped 40,
        # which six doublings from the last shipped row start
        k = (1 << 240) + 12345
        table = curve._window_table.__wrapped__(b233.g, b233)
        assert len(curve._signed_digits(k)) == len(table) + 1
        monkeypatch.setattr(curve, "_window_table", lambda g, params: table)
        doubled = []
        double = curve._point_double
        monkeypatch.setattr(curve, "_point_double",
                            lambda p, params: doubled.append(p) or double(p, params))
        assert fixed_base_multiples([k], b233.g, b233) == [kp_point(Scalar(k), b233.g, b233)]
        assert len(table) == 41
        assert doubled[0] == table[39][-1] and len(doubled) == 6

    @pytest.mark.parametrize("defect, error", [
        ("missing", OSError), ("truncated", CurveError), ("empty", CurveError),
        ("not_g", CurveError), ("off_field", ValueError)])
    def test_malformed_file_raises(self, b233, tmp_path, monkeypatch, defect, error):
        # a broken install raises; it is never rebuilt
        data = (curve._TABLE_DIR / "window_b233.bin").read_bytes()
        n = 30  # bytes per b233 coordinate
        row_1 = 64 * n
        bad = {"truncated": data[:-1], "empty": b"",
               "not_g": data[2 * n:4 * n] + data[2 * n:],  # 2G where G belongs
               # row 1's first x with degree 239
               "off_field": data[:row_1] + b"\xff" + data[row_1 + 1:]}
        if defect in bad:
            (tmp_path / "window_b233.bin").write_bytes(bad[defect])
        monkeypatch.setattr(curve, "_TABLE_DIR", tmp_path)
        with pytest.raises(error):
            curve._window_table.__wrapped__(b233.g, b233)
