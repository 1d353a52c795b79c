import random

import pytest
from hypothesis import given, settings, strategies as st

from kpsca import gf2m
from kpsca.gf2m import (
    B163,
    B233,
    FieldSpec,
    ZeroInversionError,
    invert,
    karatsuba4_partials,
    mul_by_table,
    mul_classical,
    product_table,
    segment_width,
    solve_quadratic,
    sqrt,
    square,
    trace,
)

from helpers import make_test16_curve, mul_shift_xor, rabin_irreducible, trace_mask

GF8 = FieldSpec(3, 0b1011)  # x^3 + x + 1
AES = FieldSpec(8, 0x11B)  # x^8 + x^4 + x^3 + x + 1
TEST16 = make_test16_curve().field
B571 = FieldSpec(571, (1 << 571) | (1 << 10) | (1 << 5) | (1 << 2) | 1)  # FIPS 186-4


class TestFieldSpec:
    def test_degree_must_match(self):
        with pytest.raises(ValueError):
            FieldSpec(4, 0b1011)

    def test_constant_term_required(self):
        with pytest.raises(ValueError):
            FieldSpec(3, 0b1010)

    def test_minimum_degree(self):
        with pytest.raises(ValueError):
            FieldSpec(1, 0b11)

    def test_builtin_polynomials(self):
        assert B163.reduction_poly == (1 << 163) | (1 << 7) | (1 << 6) | (1 << 3) | 1
        assert B233.reduction_poly == (1 << 233) | (1 << 74) | 1

    def test_builtin_irreducibility(self):
        assert rabin_irreducible(B163)
        assert rabin_irreducible(B233)
        assert rabin_irreducible(GF8)

    def test_rabin_rejects_reducible(self):
        # x^4 + x^3 + x^2 + x + 1... is irreducible; use (x+1)^2 * ... pick
        # x^4 + 1 = (x+1)^4 over GF(2)
        assert not rabin_irreducible(FieldSpec(4, 0b10001))

    def test_element_must_be_reduced(self):
        with pytest.raises(ValueError):
            GF8.element(0b1000)


class TestMultiplication:
    def test_hand_example_gf8(self):
        # (x+1)(x^2+1) = x^3+x^2+x+1 = x^2 mod x^3+x+1
        assert mul_classical(GF8, 0b011, 0b101) == 0b100

    def test_multiplicative_identity(self):
        rng = random.Random(2)
        for spec in (GF8, B163, B233):
            a = rng.getrandbits(spec.m)
            assert mul_classical(spec, a, 1) == a

    def test_against_shift_xor_oracle_b163(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.getrandbits(163)
            b = rng.getrandbits(163)
            expect = mul_shift_xor(a, b, B163.reduction_poly, 163)
            assert mul_classical(B163, a, b) == expect

    def test_commutative(self):
        rng = random.Random(4)
        for _ in range(50):
            a, b = rng.getrandbits(233), rng.getrandbits(233)
            assert mul_classical(B233, a, b) == mul_classical(B233, b, a)

    def test_associative(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (rng.getrandbits(163) for _ in range(3))
            left = mul_classical(B163, mul_classical(B163, a, b), c)
            right = mul_classical(B163, a, mul_classical(B163, b, c))
            assert left == right


class TestKaratsuba4:
    def test_partial_count_always_nine(self):
        rng = random.Random(6)
        for spec in (GF8, B163, B233):
            a, b = rng.getrandbits(spec.m), rng.getrandbits(spec.m)
            _, partials = karatsuba4_partials(spec, a, b)
            assert len(partials) == 9

    def test_saving_vs_classical_four_segment(self):
        # a classical 4-segment multiplier needs 16 segment products
        assert (16 - 9) / 16 == pytest.approx(0.4375)

    @pytest.mark.parametrize("m,poly", [(3, 0b1011), (4, 0b10011), (5, 0b100101),
                                        (6, 0b1011011), (7, 0b10000011), (8, 0x11B)])
    def test_exhaustive_small_fields(self, m, poly):
        spec = FieldSpec(m, poly)
        for a in range(1 << m):
            for b in range(1 << m):
                got, partials = karatsuba4_partials(spec, a, b)
                assert len(partials) == 9
                assert got == mul_classical(spec, a, b)

    def test_random_big_fields(self):
        rng = random.Random(7)
        for spec in (B163, B233):
            for _ in range(300):
                a, b = rng.getrandbits(spec.m), rng.getrandbits(spec.m)
                assert karatsuba4_partials(spec, a, b)[0] == mul_classical(spec, a, b)

    def test_segment_widths(self):
        assert segment_width(B233) == 59
        assert segment_width(B163) == 41

    def test_partials_accumulate_to_product(self):
        # the 9 partials are what the hardware accumulates cycle by cycle
        rng = random.Random(8)
        a, b = rng.getrandbits(233), rng.getrandbits(233)
        result, partials = karatsuba4_partials(B233, a, b)
        assert len(partials) == 9
        assert result == mul_classical(B233, a, b)


class TestSquare:
    def test_hand_example(self):
        # (x+1)^2 = x^2 + 1 in characteristic 2
        assert square(GF8, 0b011) == 0b101

    def test_fixed_points(self):
        assert square(B163, 0) == 0
        assert square(B163, 1) == 1

    def test_equals_self_multiplication(self):
        rng = random.Random(9)
        for spec in (GF8, B163, B233):
            for _ in range(50):
                a = rng.getrandbits(spec.m)
                assert square(spec, a) == mul_classical(spec, a, a)

    def test_frobenius_linearity(self):
        rng = random.Random(10)
        for _ in range(50):
            a, b = rng.getrandbits(233), rng.getrandbits(233)
            assert square(B233, a ^ b) == square(B233, a) ^ square(B233, b)


class TestKernelsAgainstOracle:
    """`mul_classical` and `square` against the shift-XOR oracle, which
    shares no code with the package's windowed comb or bit spreading."""

    def test_every_product_and_square_gf256(self):
        for a in range(1 << AES.m):
            assert square(AES, a) == mul_shift_xor(a, a, AES.reduction_poly, AES.m)
            for b in range(1 << AES.m):
                assert mul_classical(AES, a, b) == mul_shift_xor(a, b, AES.reduction_poly, AES.m)

    @pytest.mark.parametrize("spec", [TEST16, B163, B233, B571],
                             ids=["test16", "b163", "b233", "b571"])
    def test_every_operand_bit_length(self, spec):
        # bit length n covers a = 1 (n = 1) and a lone top hex digit '1'
        # (n = 4k + 1); the power of two has one nonzero digit, the other
        # operand has random low digits
        rng = random.Random(spec.m)
        poly, m = spec.reduction_poly, spec.m
        for n in range(m + 1):
            top = (1 << n) >> 1
            for a in {top, top | rng.getrandbits(max(n - 1, 0))}:
                b = rng.getrandbits(m)
                want = mul_shift_xor(a, b, poly, m)
                assert mul_classical(spec, a, b) == want, (n, a, b)
                assert mul_classical(spec, b, a) == want, (n, a, b)
                assert karatsuba4_partials(spec, a, b)[0] == want, (n, a, b)
                assert square(spec, a) == mul_shift_xor(a, a, poly, m), (n, a)

    def test_every_table_product_gf256(self):
        for c in range(1 << AES.m):
            tbl = product_table(c)
            assert tbl == [gf2m._clmul(c, d) for d in range(256)], c
            for a in range(1 << AES.m):
                assert mul_by_table(AES, tbl, a) == mul_shift_xor(c, a, AES.reduction_poly, AES.m)

    @pytest.mark.parametrize("spec", [TEST16, B163, B233, B571],
                             ids=["test16", "b163", "b233", "b571"])
    def test_table_product_every_operand_bit_length(self, spec):
        # the fixed operand c and the walked operand a each take 0, 1 and
        # all-ones; a also takes every bit length, which covers a lone top
        # byte 0x01 (n = 8k + 1) and partial top bytes
        rng = random.Random(spec.m)
        poly, m = spec.reduction_poly, spec.m
        edges = [0, 1, (1 << m) - 1]
        walked = edges + [((1 << n) >> 1) | rng.getrandbits(max(n - 1, 0)) for n in range(m + 1)]
        for c in edges + [rng.getrandbits(m)]:
            tbl = product_table(c)
            assert tbl == [gf2m._clmul(c, d) for d in range(256)], c
            for a in walked:
                assert mul_by_table(spec, tbl, a) == mul_shift_xor(c, a, poly, m), (c, a)


HALVING_FIELDS = pytest.mark.parametrize("spec", [AES, TEST16, B163, B233],
                                         ids=["test8", "test16", "b163", "b233"])


class TestHalvingPrimitives:
    """`trace`, `solve_quadratic` and `sqrt`, which point halving runs,
    against the trace-mask oracle and by squaring back."""

    @HALVING_FIELDS
    def test_trace_matches_oracle(self, spec):
        # trace is linear, so agreeing on every x^i is agreeing everywhere
        mask = trace_mask(spec)
        assert [trace(spec, 1 << i) for i in range(spec.m)] == [mask >> i & 1 for i in range(spec.m)]
        rng = random.Random(spec.m)
        for c in (rng.getrandbits(spec.m) for _ in range(2000)):
            assert trace(spec, c) == (c & mask).bit_count() % 2

    @pytest.mark.parametrize("spec", [AES, TEST16], ids=["test8", "test16"])
    def test_every_element_small_fields(self, spec):
        # every c of trace 0 is some z^2 + z, and solve_quadratic finds a z;
        # every c is a square
        solved = 0
        for c in range(1 << spec.m):
            assert square(spec, sqrt(spec, c)) == c, c
            assert trace(spec, square(spec, c) ^ c) == 0, c
            if trace(spec, c) == 0:
                z = solve_quadratic(spec, c)
                assert square(spec, z) ^ z == c, c
                solved += 1
        assert solved == 1 << spec.m - 1

    @pytest.mark.parametrize("spec", [B163, B233], ids=["b163", "b233"])
    def test_random_big_fields(self, spec):
        rng = random.Random(spec.m)
        poly, m = spec.reduction_poly, spec.m
        one = trace_mask(spec) & -trace_mask(spec)  # an x^i of trace 1
        for _ in range(2000):
            c = rng.getrandbits(m)
            s = sqrt(spec, c)
            assert mul_shift_xor(s, s, poly, m) == c
            c ^= one * trace(spec, c)
            z = solve_quadratic(spec, c)
            assert mul_shift_xor(z, z, poly, m) ^ z == c

    def test_edges(self):
        for spec in (AES, TEST16, B163, B233):
            top = (1 << spec.m) - 1
            for c in (0, 1, top):
                assert square(spec, sqrt(spec, c)) == c
            assert solve_quadratic(spec, 0) in (0, 1)


class TestInvert:
    def test_one_is_self_inverse(self):
        assert invert(B233, 1) == 1

    def test_hand_example_gf8(self):
        # x * (x^2 + 1) = x^3 + x = 1 mod x^3 + x + 1
        assert invert(GF8, 0b010) == 0b101

    def test_inverse_contract(self):
        # exhaustive: the inverse is the unique reduced b with a*b = 1,
        # found here by search with the shift-XOR multiplication oracle
        for av in range(1, 1 << AES.m):
            (want,) = [b for b in range(1 << AES.m)
                       if mul_shift_xor(av, b, AES.reduction_poly, AES.m) == 1]
            assert invert(AES, av) == want

    def test_involution(self):
        rng = random.Random(12)
        for _ in range(30):
            a = rng.getrandbits(163)
            if a:
                assert invert(B163, invert(B163, a)) == a

    def test_zero_rejected(self):
        with pytest.raises(ZeroInversionError):
            invert(B233, 0)

    def test_reducible_polynomial(self):
        # x^4 + 1 = (x + 1)^4: x + 1 shares a factor with it, x does not
        spec = FieldSpec(4, 0b10001)
        with pytest.raises(ZeroInversionError):
            invert(spec, 0b11)
        assert invert(spec, 0b10) == 0b1000


class TestReduction:
    def test_all_outputs_reduced(self):
        rng = random.Random(13)
        for spec in (GF8, B163, B233):
            for _ in range(100):
                a, b = rng.getrandbits(spec.m), rng.getrandbits(spec.m)
                results = [mul_classical(spec, a, b), karatsuba4_partials(spec, a, b)[0],
                           square(spec, a)]
                if a:
                    results.append(invert(spec, a))
                for r in results:
                    assert r.bit_length() <= spec.m


class TestHexSerialization:
    def test_padding(self):
        assert B233.element(1).to_hex() == "0" * 58 + "1"
        assert len(B163.element(0).to_hex()) == 41

    def test_roundtrip(self):
        rng = random.Random(14)
        for spec in (GF8, B163, B233):
            a = spec.element(rng.getrandbits(spec.m))
            assert gf2m.FieldElement.from_hex(spec, a.to_hex()) == a


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, (1 << 233) - 1), b=st.integers(0, (1 << 233) - 1))
def test_property_karatsuba_equals_classical(a, b):
    assert karatsuba4_partials(B233, a, b)[0] == mul_classical(B233, a, b)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, (1 << 163) - 1), b=st.integers(0, (1 << 163) - 1))
def test_property_frobenius(a, b):
    assert square(B163, a ^ b) == square(B163, a) ^ square(B163, b)


@pytest.mark.parametrize("spec", [TEST16, B163, B233], ids=["test16", "b163", "b233"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_inverse(spec, data):
    a = data.draw(st.integers(1, (1 << spec.m) - 1))
    assert mul_classical(spec, a, invert(spec, a)) == 1
