import dataclasses
import random
import types

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
    in_base_subgroup,
    is_on_curve,
    kp_multiply,
    kp_point,
    ladder_finalize,
    ladder_step,
    negate,
    next_state,
    roles,
)

from helpers import (
    count_curve_points,
    encode_window_rows,
    is_probable_prime,
    make_test16_curve,
    oracle_double_and_add,
    point_add,
    shipped_row_count,
    step_relations_hold,
    two_torsion,
)


class TestScalar:
    def test_msb_is_always_one(self):
        assert Scalar(5).bits == (1, 0, 1)
        assert Scalar(5).main_loop_bits == (1,)

    def test_from_bits_requires_leading_one(self):
        with pytest.raises(CurveError):
            Scalar.from_bits((0, 1, 1))
        assert Scalar.from_bits((1, 0, 1)).value == 5

    def test_from_bits_refuses_bits_other_than_0_and_1(self):
        # a 2 is refused, not read as its low bit: (1, 2, 0) is not 4
        for bits in [(1, 2, 0), (1, 0, -1), (1, 1, 3, 0), (2,)]:
            with pytest.raises(CurveError, match="bits 0 and 1"):
                Scalar.from_bits(bits)
        assert Scalar.from_bits((1, 0, 0)).value == 4

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
        # which verification's rule "k'*G = pub iff k' = k mod n" rests
        assert is_probable_prime(get_curve(name).order_hint)

    def test_order_is_required(self, test8):
        with pytest.raises(TypeError):
            CurveParams(test8.field, test8.a, test8.b, test8.g)

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
        with pytest.raises(CurveError, match="curve coefficient b must be nonzero"):
            dataclasses.replace(b233, b=b233.field.element(0))

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
        # a base point with x = 1 lies in <G> only where Tr(1) = Tr(a), so on an
        # odd-degree field: GF(2^9) with x^9 + x^4 + 1, a = 1 and b = 2 has
        # #E = 2 * 257, and (1, 0x20) is on it
        spec = gf2m.FieldSpec(9, 0x211)
        params = CurveParams(spec, spec.element(1), spec.element(2),
                             AffinePoint(spec.element(1), spec.element(0x20)), order_hint=257)
        assert count_curve_points(params) == 2 * 257
        assert kp_multiply(Scalar(257), params.g, params)[0].infinity
        state = kp_multiply(Scalar(1), params.g, params)[1].states[0]
        assert state.X1 == 1 and state.Z1 == 1
        assert state.X2 == 1 ^ params.b.value  # 1^4 + b
        assert state.Z2 == 1  # 1^2
        for k in map(Scalar, range(1, 600)):
            assert kp_point(k, params.g, params) == kp_multiply(k, params.g, params)[0], k

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


class TestLadderStep:
    def test_roles_is_its_own_inverse(self):
        state = LadderState(1, 2, 3, 4)
        assert roles(1, state) == (1, 2, 3, 4) and roles(0, state) == (3, 4, 1, 2)
        for k_i in (0, 1):
            assert LadderState(*roles(k_i, roles(k_i, state))) == state

    def test_mirror_property(self, b233):
        rng = random.Random(1)
        spec = b233.field
        for _ in range(20):
            regs = [rng.getrandbits(spec.m) for _ in range(4)]
            x, b = rng.getrandbits(spec.m), b233.b.value
            direct, v0 = ladder_step(spec, LadderState(*regs), 0, x, b)
            m, v1 = ladder_step(spec, LadderState(*regs[2:], *regs[:2]), 1, x, b)
            assert direct == LadderState(m.X2, m.Z2, m.X1, m.Z1)
            assert v0 == v1

    def test_step_values_satisfy_relations(self, b233):
        rng = random.Random(7)
        spec, b = b233.field, b233.b.value
        for bit in (0, 1):
            state = LadderState(*(rng.getrandbits(spec.m) for _ in range(4)))
            after, v = ladder_step(spec, state, bit, rng.getrandbits(spec.m), b)
            assert after == next_state(bit, v)
            assert step_relations_hold(spec, state, bit, v)
            # the other bit doubles the other register pair
            assert not step_relations_hold(spec, state, 1 - bit, v)

    def test_double_degenerate_flagged(self, b233):
        state = LadderState(1, 0, 1, 0)
        with pytest.raises(CurveError):
            ladder_step(b233.field, state, 1, 1, b233.b.value)

    def test_one_step_doubles(self, b163):
        # k = (1,0): one step with bit 0 lands on 2G
        state = kp_multiply(Scalar(1), b163.g, b163)[1].states[0]
        state, _ = ladder_step(b163.field, state, 0, b163.g.x.value, b163.b.value)
        r = ladder_finalize(state, b163.g)
        expect = oracle_double_and_add(Scalar(2), b163.g, b163)
        assert r.x == expect.x

    def test_one_step_triples(self, b163):
        state = kp_multiply(Scalar(1), b163.g, b163)[1].states[0]
        state, _ = ladder_step(b163.field, state, 1, b163.g.x.value, b163.b.value)
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
        got = kp_multiply(Scalar(test8.order_hint - 1), test8.g, test8)[0]
        assert got == negate(test8.g)


class TestKpMultiply:
    def test_small_scalars_vs_oracle(self, b163):
        for k in range(1, 40):
            got, _ = kp_multiply(Scalar(k), b163.g, b163)
            assert got == oracle_double_and_add(Scalar(k), b163.g, b163)

    def test_exhaustive_range_small_curve(self, test8):
        for k in range(1, 300):
            got = kp_multiply(Scalar(k), test8.g, test8)[0]
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
        x, b = transcript.point.x.value, transcript.params.b.value
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
        assert point_add(b163.g, negate(b163.g), b163).infinity

    def test_consecutive_scalars_differ_by_p(self, test8):
        rng = random.Random(6)
        for _ in range(20):
            k = rng.randint(1, 500)
            r1 = oracle_double_and_add(Scalar(k), test8.g, test8)
            r2 = oracle_double_and_add(Scalar(k + 1), test8.g, test8)
            assert point_add(r1, test8.g, test8) == r2

    def test_rejects_bad_input(self, b233):
        with pytest.raises(CurveError):
            oracle_double_and_add(Scalar(3), AffinePoint.at_infinity(), b233)

    def test_two_torsion_point_doubles_to_infinity(self, test8):
        # (0, sqrt(b)) is its own negative: the equal-x branch doubles it,
        # with no inversion of x = 0
        t2 = two_torsion(test8)
        assert negate(t2) == t2
        assert point_add(t2, t2, test8).infinity


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
        got = fixed_base_multiples(ks, params)
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
        assert fixed_base_multiples(ks, params) == want

    def test_equal_x_fallback(self, test8, monkeypatch):
        # 375 has the digits (119, 1): the tree sums 119*G + 256*G, and
        # 256 = 119 (mod 137), so the lane doubles; 274 = 2*137 has the
        # digits (18, 1) and meets 18*G + 256*G = -119*G + 119*G, which is
        # infinity
        equal_x = []

        def spy(p, q, params):
            if p is not None and q is not None and p[0] == q[0]:
                equal_x.append("double" if p == q else "opposite")
            return add(p, q, params)

        ks = [375, 274, 91]
        assert [curve._signed_digits(k) for k in ks] == [[119, 1], [18, 1], [91]]
        fixed_base_multiples(ks, test8)  # the table rows, ready unspied
        add = curve._point_add
        monkeypatch.setattr(curve, "_point_add", spy)
        got = fixed_base_multiples(ks, test8)
        assert sorted(equal_x) == ["double", "opposite"]
        assert got == [kp_point(Scalar(k), test8.g, test8) for k in ks]
        assert got[1].infinity

    @pytest.mark.parametrize("k, digits", [
        (128, [128]), (129, [-127, 1]), (0x80FF, [-1, -127, 1]),
        (0xFFFF, [-1, 0, 1]),  # the carry makes a row past k's two bytes
        (0x7F80, [128, 127]), (1 << 16, [0, 0, 1])])
    def test_digit_boundaries(self, b233, k, digits):
        # the digits 128 and -127 read table columns 128 and 127, the last
        # two; a carry out of the top byte adds a row of digit 1
        assert curve._signed_digits(k) == digits
        assert sum(d << 8 * i for i, d in enumerate(digits)) == k
        assert fixed_base_multiples([k], b233) == [kp_point(Scalar(k), b233.g, b233)]

    def test_one_inversion_per_tree_level(self, b233, monkeypatch):
        # a lane of n nonzero digits sums in ceil(log2 n) levels, one
        # inversion each; a 232-bit scalar has at most 30 signed base-256
        # digits, and a 30-digit lane takes all 5 levels
        k = Scalar.random(random.Random(11), 232).value
        n = sum(map(bool, curve._signed_digits(k)))
        rng = random.Random(12)
        deep = sum(rng.choice([d for d in range(-127, 129) if d]) << 8 * i for i in range(29))
        deep += rng.randint(1, 128) << 8 * 29
        assert all(curve._signed_digits(deep)) and len(curve._signed_digits(deep)) == 30
        want = [kp_point(Scalar(v), b233.g, b233) for v in (k, deep)]
        fixed_base_multiples([k], b233)  # loads the table
        inverted = []
        invert = gf2m.invert
        monkeypatch.setattr(gf2m, "invert", lambda f, a: inverted.append(a) or invert(f, a))
        assert fixed_base_multiples([k], b233) == want[:1]
        assert 17 <= n <= 30 and len(inverted) == (n - 1).bit_length() == 5
        del inverted[:]
        assert fixed_base_multiples([deep], b233) == want[1:]
        assert len(inverted) == 5

    def test_lanes_of_unequal_depth(self, b233):
        # a 1-digit lane is done before the tree starts, a 30-digit lane
        # (every signed digit nonzero) takes all 5 levels; the digits in
        # -127..128 are unique, so they are the ones the call writes
        rng = random.Random(12)
        digits = [rng.choice([d for d in range(-127, 129) if d]) for _ in range(29)]
        digits.append(rng.randint(1, 128))
        deep = sum(d << 8 * i for i, d in enumerate(digits))
        assert curve._signed_digits(deep) == digits
        ks = [5, deep, 1]
        assert fixed_base_multiples(ks, b233) == [kp_point(Scalar(k), b233.g, b233)
                                                  for k in ks]

    def test_table_is_one_value_per_curve(self, test8):
        # the table is cached by the curve's value and no call changes it:
        # a scalar past its 2 rows is taken mod n
        table = curve._window_table(test8)
        assert curve._window_table(get_curve("test8")) is table
        assert isinstance(table, tuple) and len(table) == shipped_row_count(test8) == 2
        assert fixed_base_multiples([1 << 120], test8) == [
            kp_point(Scalar(1 << 120), test8.g, test8)]
        assert curve._window_table(test8) is table and len(table) == 2
        for i, row in enumerate(table):
            assert row == tuple(kp_point(Scalar(d << 8 * i), test8.g, test8).pair
                                for d in range(1, 129))

    @pytest.mark.parametrize("name, rows", [("test16", 4), ("b233", 2)])
    def test_table_columns_are_multiples(self, name, rows):
        # every column d of row i is d*256^i*G, as an int pair; test16's 4
        # rows pass its order
        params = FIXED_BASE_CURVES[name]
        table = curve._build_rows(params, rows)
        assert len(table) == rows
        for i, row in enumerate(table):
            assert row == tuple(kp_point(Scalar(d << 8 * i), params.g, params).pair
                                for d in range(1, 129))

    def test_table_extension_inverts_once_per_set_bit_pass(self, b233, monkeypatch):
        # the build extends the table one row at a time from G: eight
        # doublings per row, the first row starting at G, then one batched
        # addition each for the columns with 2, 3, 4, 5, 6 and 7 set bits
        inverted = []
        invert = gf2m.invert
        monkeypatch.setattr(gf2m, "invert", lambda f, a: inverted.append(a) or invert(f, a))
        table = curve._build_rows(b233, 5)
        assert len(inverted) == 8 * 5 - 1 + 6
        assert table[3][0] == kp_point(Scalar(1 << 24), b233.g, b233).pair
        assert table[4][126] == kp_point(Scalar(127 << 32), b233.g, b233).pair

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(FIXED_BASE_CURVES)), st.randoms(use_true_random=False))
    def test_scalars_around_the_order(self, name, rng):
        # k mod n is what a scalar past the table's rows reads; the table
        # keeps its rows whatever ran before
        params = FIXED_BASE_CURVES[name]
        n, m = params.order_hint, params.field.m
        ks = [n - 1, n, n + 1, 2 * n - 1, (1 << m + 40) + rng.getrandbits(m + 40),
              (1 << 4095) | rng.getrandbits(4095)]
        want = [AffinePoint.at_infinity() if k % n == 0 else kp_point(Scalar(k), params.g, params)
                for k in ks]
        assert fixed_base_multiples(ks, params) == want
        assert [fixed_base_multiples([k], params) for k in ks] == [[p] for p in want]
        assert len(curve._window_table(params)) == shipped_row_count(params)

    def test_scalar_checks(self, test8):
        assert fixed_base_multiples([], test8) == []
        with pytest.raises(CurveError):
            fixed_base_multiples([5, 0], test8)


class TestShippedTables:
    @pytest.mark.parametrize("name, rows", [("test8", 2), ("b163", 21), ("b233", 30)])
    def test_shipped_rows_are_a_fresh_build(self, name, rows):
        # the rows that cover every scalar below n, byte for byte
        params = get_curve(name)
        assert shipped_row_count(params) == rows
        built = curve._build_rows(params, rows)
        assert (curve._TABLE_DIR / f"window_{name}.bin").read_bytes() == encode_window_rows(
            built, params)
        assert curve._shipped_rows(name, params, rows) == built

    def test_other_base_points_are_built(self, b233):
        test16 = FIXED_BASE_CURVES["test16"]
        assert curve._window_table(test16) == curve._build_rows(test16, 3)
        g2 = point_add(b233.g, b233.g, b233)
        table = curve._window_table(dataclasses.replace(b233, g=g2))
        assert len(table) == 30 and table[0][0] == g2.pair
        assert table[0][1] == point_add(g2, g2, b233).pair

    @pytest.mark.parametrize("g", ["g_plus_t2", "infinity"])
    def test_base_point_outside_the_subgroup_raises(self, test8, g):
        # a G of order 2n would make k mod n wrong: 137*(G + T2) is T2
        bad_g = {"g_plus_t2": point_add(test8.g, two_torsion(test8), test8),
                 "infinity": AffinePoint.at_infinity()}[g]
        bad = dataclasses.replace(test8, g=bad_g)
        with pytest.raises(CurveError, match="not a point of <G>"):
            fixed_base_multiples([137], bad)

    @pytest.mark.parametrize("name", ["test8", "b163", "b233"])
    def test_largest_covered_scalar_needs_no_new_row(self, name):
        # n - 1 and 2^(m+2) - 1 take every row of the table, so neither is
        # reduced and the table keeps its rows
        params = get_curve(name)
        for k in (params.order_hint - 1, (1 << params.field.m + 2) - 1):
            assert len(curve._signed_digits(k)) == shipped_row_count(params)
            assert fixed_base_multiples([k], params) == [kp_point(Scalar(k), params.g, params)]
        assert len(curve._window_table(params)) == shipped_row_count(params)

    def test_scalar_past_the_shipped_rows_is_reduced(self, b233, monkeypatch):
        # the shipped 30 rows reach the digit 128 in every place, the scalar
        # 128*(256^30 - 1)/255; one more carries into a 31st digit, so it is
        # taken mod n, as a 4096-bit scalar of 513 digits is, and nothing
        # doubles
        table = curve._window_table(b233)
        k = 128 * (256 ** len(table) - 1) // 255 + 1
        assert curve._signed_digits(k - 1) == [128] * 30
        assert curve._signed_digits(k) == [-127] * 30 + [1]
        ks = [k, (1 << 4095) | random.Random(41).getrandbits(4095)]
        want = [kp_point(Scalar(k), b233.g, b233) for k in ks]  # which double too
        doubled = []
        double = curve._point_double
        monkeypatch.setattr(curve, "_point_double",
                            lambda p, params: doubled.append(p) or double(p, params))
        assert fixed_base_multiples(ks, b233) == want
        assert curve._window_table(b233) is table and len(table) == 30
        assert doubled == []

    @pytest.mark.parametrize("defect, error", [
        ("missing", OSError), ("truncated", CurveError), ("short", CurveError),
        ("empty", CurveError),
        ("not_g", CurveError), ("off_field", ValueError)])
    def test_malformed_file_raises(self, b233, tmp_path, monkeypatch, defect, error):
        # a broken install raises; it is never rebuilt
        data = (curve._TABLE_DIR / "window_b233.bin").read_bytes()
        n = 30  # bytes per b233 coordinate
        row_1 = 256 * n
        bad = {"truncated": data[:-1], "empty": b"",
               "short": data[:29 * row_1],  # 29 whole rows of 30
               "not_g": data[2 * n:4 * n] + data[2 * n:],  # 2G where G belongs
               # row 1's first x with degree 239
               "off_field": data[:row_1] + b"\xff" + data[row_1 + 1:]}
        if defect in bad:
            (tmp_path / "window_b233.bin").write_bytes(bad[defect])
        monkeypatch.setattr(curve, "_TABLE_DIR", tmp_path)
        with pytest.raises(error):
            curve._shipped_rows("b233", b233, 30)


def points_off_x0(params: CurveParams) -> list[AffinePoint]:
    """Every point with x != 0, by search: small fields only."""
    f = params.field
    candidates = (AffinePoint(f.element(x), f.element(y))
                  for x in range(1, 1 << f.m) for y in range(1 << f.m))
    return [p for p in candidates if is_on_curve(p, params)]


def in_subgroup(p: AffinePoint, params: CurveParams) -> bool:
    return kp_multiply(Scalar(params.order_hint), p, params)[0].infinity


GF256 = get_curve("test8").field

# test8's field and a with b = 0x24: #E = 254 = 2 * 127, so t = 7 and some
# k' < 127 have a width-4 NAF digit at position t (k' = 125 is 128 - 3)
TOP_DIGIT = CurveParams(GF256, GF256.element(0x20), GF256.element(0x24),
                        AffinePoint(GF256.element(0x20), GF256.element(0x59)), order_hint=127)


class TestKpPointHalving:
    """Every curve has #E = 2n with n = order_hint odd, and kp_point halves and
    adds in <G>: its results equal the ladder's there, and it refuses every
    point outside <G>."""

    @pytest.mark.parametrize("params", [get_curve("test8"), make_test16_curve(), TOP_DIGIT],
                             ids=["test8", "test16", "top_digit"])
    def test_curve_order_is_twice_n(self, params):
        assert count_curve_points(params) == 2 * params.order_hint
        assert dataclasses.replace(params) == params  # and the shape check passes

    def test_registered_curves_halve(self):
        for name in curve.CURVE_IDS:
            params = get_curve(name)
            assert dataclasses.replace(params) == params

    @pytest.mark.parametrize("m, poly, a, b, g, n, count", [
        (8, 0x11B, 0x20, 0x03, (0x8C, 0xD4), 128, 274),  # test8 with n even, 2n within Hasse
        (8, 0x11B, 0x20, 0x03, (0x8C, 0xD4), 3 * 137, 274),  # 2n past the Hasse bound
        # #E = 22 = 2 * 11, but n < 4*sqrt(q): the Hasse interval [9, 25] holds 11 too
        (4, 0x13, 8, 9, (8, 1), 11, 22),
    ], ids=["even", "outside_hasse", "below_4_sqrt_q"])
    def test_other_group_shapes_rejected(self, m, poly, a, b, g, n, count):
        f = gf2m.FieldSpec(m, poly)
        shape = dict(field=f, a=f.element(a), b=f.element(b),
                     g=AffinePoint(f.element(g[0]), f.element(g[1])))
        assert count_curve_points(types.SimpleNamespace(**shape)) == count
        with pytest.raises(CurveError, match=f"order_hint {n} "):
            CurveParams(**shape, order_hint=n)

    def test_every_test8_point(self, test8):
        # 2n = 274: k = 1..16 and the classes next to n and 2n reach every
        # point's NAF lanes; one k runs past 2^20
        points = points_off_x0(test8)
        inside = [p for p in points if in_subgroup(p, test8)]
        assert len(points) == 272 and len(inside) == 136
        n = test8.order_hint
        ks = [*range(1, 17), n - 1, n, n + 1, 2 * n - 1, 2 * n, 2 * n + 1, 300, 3 * n + 5,
              (1 << 20) + 3]
        for p in inside:
            for k in map(Scalar, ks):
                assert kp_point(k, p, test8) == kp_multiply(k, p, test8)[0], (p, k)
        for p in points:
            if p not in inside:
                with pytest.raises(CurveError):
                    kp_point(Scalar(3), p, test8)

    def test_test8_scalars_1_to_300(self, test8):
        g_out = point_add(test8.g, two_torsion(test8), test8)
        for p in (test8.g, negate(test8.g)):
            for k in map(Scalar, range(1, 301)):
                assert kp_point(k, p, test8) == kp_multiply(k, p, test8)[0], (p, k)
        for p in (g_out, negate(g_out)):
            with pytest.raises(CurveError):
                kp_point(Scalar(1), p, test8)

    @pytest.mark.parametrize("params", [get_curve("test8"), TOP_DIGIT], ids=["test8", "top_digit"])
    def test_base_subgroup_is_the_order_n_points(self, params):
        # by search: every point, T2 and infinity included, against n*P
        points = [*points_off_x0(params), two_torsion(params), AffinePoint.at_infinity()]
        inside = [p for p in points if in_base_subgroup(p, params)]
        assert inside == [p for p in points if p.infinity or p.x.value and in_subgroup(p, params)]
        assert len(inside) == params.order_hint
        f = params.field
        assert not in_base_subgroup(AffinePoint(f.element(1), f.element(1)), params)

    def test_top_naf_digit(self):
        # a NAF digit at position t stands for 2P, which kp_point doubles;
        # as k' < 2^t, that digit is always 1
        n = TOP_DIGIT.order_hint
        t = n.bit_length()
        nafs = [curve._naf4(pow(2, t - 1, n) * k % n) for k in range(1, n)]
        assert {naf[t] for naf in nafs if len(naf) > t} == {1}
        g = TOP_DIGIT.g
        for k in map(Scalar, range(1, 2 * n + 3)):
            assert kp_point(k, g, TOP_DIGIT) == kp_multiply(k, g, TOP_DIGIT)[0], k
        with pytest.raises(CurveError):
            kp_point(Scalar(1), point_add(g, two_torsion(TOP_DIGIT), TOP_DIGIT), TOP_DIGIT)

    @pytest.mark.parametrize("params", [make_test16_curve(), get_curve("b163"), get_curve("b233")],
                             ids=["test16", "b163", "b233"])
    def test_random_points_and_scalars(self, params):
        rng = random.Random(params.field.m)
        n, m = params.order_hint, params.field.m
        t2 = two_torsion(params)
        assert is_on_curve(t2, params)
        p_in, = fixed_base_multiples([rng.getrandbits(m)], params)
        p_out = point_add(p_in, t2, params)
        assert not in_subgroup(p_out, params)
        ks = [1, 2, n - 1, n, n + 1, 2 * n, 2 * n + 1, rng.getrandbits(m - 1) | 1,
              rng.getrandbits(m + 20)]
        for k in map(Scalar, ks):
            assert kp_point(k, p_in, params) == kp_multiply(k, p_in, params)[0], k
            with pytest.raises(CurveError):
                kp_point(k, p_out, params)
        assert kp_point(Scalar(n), p_in, params).infinity  # k = 0 mod n

    def test_b233_field_work(self, b233, monkeypatch):
        # exact field calls of one seeded B-233 kP: halving's trace and square
        # root are untraced table walks, and a solve is one too after one
        # square (it walks the rows with c^2, whose root is c).  The kP solves
        # twice, for its first root and for a's.  The subgroup check is 3
        # products and 2 squares.  t = 233, so 232 halvings at one product
        # each, and one product for the y of each of the 49 nonzero NAF digits
        # (12, 14, 15 and 8 of magnitude 1, 3, 5 and 7): 284 and 4.  A lane level of b chord additions shares one
        # inversion for 3(b - 1) products, and each addition takes 2 products
        # and 1 square.  The lanes sum in levels of 24, 12, 6 and 3 additions
        # (213 products, 45 squares, 4 inversions); S1, S3 and S5 from lanes
        # of 4, 3 and 2 Q's in levels of 4 and 2 (24, 6, 2); S3 + S5 + Q7 in
        # two levels of 1 (4, 2, 2); the doubling (2, 2, 1) and the last
        # addition (2, 1, 1): 529 products, 60 squares and 10 inversions.
        # P + T2, outside <G>, is refused after the curve check alone.
        rng = random.Random(233)
        p_in, = fixed_base_multiples([rng.getrandbits(233)], b233)
        p_out = point_add(p_in, two_torsion(b233), b233)
        k = Scalar(rng.getrandbits(232) | 1)
        n = b233.order_hint
        naf = curve._naf4(pow(2, n.bit_length() - 1, n) * k.value % n)
        assert [sum(abs(d) == j for d in naf) for j in (1, 3, 5, 7)] == [12, 14, 15, 8]
        want = kp_multiply(k, p_in, b233)[0]
        calls = {}
        for name in ("mul_classical", "square", "invert"):
            def counted(*args, name=name, fn=getattr(gf2m, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(gf2m, name, counted)
        calls.update(mul_classical=0, square=0, invert=0)
        assert kp_point(k, p_in, b233) == want
        assert (calls["mul_classical"], calls["square"], calls["invert"]) == (529, 60, 10)
        calls.update(mul_classical=0, square=0, invert=0)
        with pytest.raises(CurveError):
            kp_point(k, p_out, b233)
        assert (calls["mul_classical"], calls["square"], calls["invert"]) == (3, 2, 0)
