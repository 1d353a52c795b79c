"""Arithmetic in binary extension fields GF(2^m).

Field elements are polynomials over GF(2) stored as Python integers
(bit i holds the coefficient of x^i) and are always kept fully reduced
modulo the field's irreducible polynomial.  Addition is coefficient-wise
XOR, written `^`; there is no carry propagation anywhere.

The operations take the field's `FieldSpec` and plain ints and return
ints: `mul_classical(f, a, b)`, `mul_by_table(f, product_table(c), a)`,
`square(f, a)`, `invert(f, a)`, `karatsuba4_partials(f, a, b)`, and for
point halving `trace(f, c)`, `solve_quadratic(f, c)` and `sqrt(f, c)`.
`FieldElement` is the boundary type: point coordinates and curve
coefficients, with their hex I/O and repr.

``mul_classical`` (a 4-bit windowed comb, then fold reduction) and
``square`` (bit spreading, then the same reduction) are the arithmetic
the ladder runs (Hankerson, Menezes, Vanstone, *Guide to Elliptic Curve
Cryptography*, Alg. 2.36 and Sec. 2.3.4).  Both read the operand's 4-bit
windows as one hex-digit stream, `format(a, "x").encode().translate(...)`,
so no Python loop shifts and masks the operand.  A product by an
operand c that recurs, as x and b do at every ladder step, walks the
other operand's bytes against ``product_table(c)``, built once
(``mul_by_table``; the fixed-operand comb, ibid. Sec. 2.3.3).
``karatsuba4_partials`` is the modelled multiplier hardware: a 4-segment
Karatsuba product that computes 9 segment-level partial products instead
of the 16 of a classical 4-segment multiplier, and returns them so the
leakage simulator can accumulate one per clock cycle.  The test suite checks
that it and ``mul_classical`` give the same product.
"""

from __future__ import annotations

from dataclasses import dataclass


class ZeroInversionError(ZeroDivisionError):
    """Attempted to invert the zero element."""


# ASCII hex digit -> its value (for _clmul), or its bits i moved to 2i (for square)
_HEX_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_SQUARE_DIGIT = bytes.maketrans(
    b"0123456789abcdef", bytes(sum((d >> i & 1) << 2 * i for i in range(4)) for d in range(16))
)


class FieldSpec:
    """Degree and irreducible polynomial of one GF(2^m) instance."""

    __slots__ = ("m", "reduction_poly", "_tails", "_mask", "hex_digits", "_halving")

    def __init__(self, m: int, reduction_poly: int):
        if m < 2:
            raise ValueError(f"field degree must be >= 2, got {m}")
        if reduction_poly.bit_length() != m + 1:
            raise ValueError(
                f"reduction polynomial must have degree exactly {m}, "
                f"got degree {reduction_poly.bit_length() - 1}"
            )
        if not reduction_poly & 1:
            raise ValueError("reduction polynomial must have constant term 1")
        self.m = m
        self.reduction_poly = reduction_poly
        # exponents of the tail f(x) - x^m, used for fold-reduction
        tail = reduction_poly ^ (1 << m)
        self._tails = tuple(i for i in range(m) if (tail >> i) & 1)
        self._mask = (1 << m) - 1
        self.hex_digits = (m + 3) // 4
        self._halving = None  # `_halving_tables`, built on first use

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.m == other.m
            and self.reduction_poly == other.reduction_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.reduction_poly))

    def __repr__(self) -> str:
        return f"FieldSpec(m={self.m}, reduction_poly={self.reduction_poly:#x})"

    def reduce(self, v: int) -> int:
        """Reduce an arbitrary carry-less product modulo the field polynomial."""
        m = self.m
        mask = self._mask
        tails = self._tails
        while v >> m:
            hi = v >> m
            v &= mask
            for t in tails:
                v ^= hi << t
        return v

    def element(self, value: int) -> "FieldElement":
        if value >> self.m:
            raise ValueError(f"value has degree >= {self.m}, not a reduced element")
        return FieldElement(self, value)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A reduced polynomial over GF(2), tied to its FieldSpec."""

    spec: FieldSpec
    value: int

    def to_hex(self) -> str:
        """Lowercase hex, most-significant bit first, zero-padded to ceil(m/4) digits."""
        return format(self.value, f"0{self.spec.hex_digits}x")

    @classmethod
    def from_hex(cls, spec: FieldSpec, text: str) -> "FieldElement":
        return spec.element(int(text, 16))

    def __repr__(self) -> str:
        return f"<GF(2^{self.spec.m}): {self.to_hex()}>"


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints (4-bit windowed comb):
    tbl[d] is b times the 4-bit polynomial d, for each hex digit d of a."""
    b2, b4, b8 = b << 1, b << 2, b << 3
    b3, b6 = b2 ^ b, b4 ^ b2
    b7 = b6 ^ b
    tbl = (0, b, b2, b3, b4, b4 ^ b, b6, b7,
           b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b4 ^ b, b8 ^ b6, b8 ^ b7)
    r = 0
    for d in format(a, "x").encode().translate(_HEX_NIBBLE):
        r = (r << 4) ^ tbl[d]
    return r


def mul_classical(f: FieldSpec, a: int, b: int) -> int:
    """Schoolbook carry-less multiplication, then modular reduction."""
    return f.reduce(_clmul(a, b))


def product_table(c: int) -> list[int]:
    """c times every 8-bit polynomial d, indexed by d (unreduced), for
    `mul_by_table`: a fixed operand pays for its table once."""
    tbl = [0]
    for ci in (c << i for i in range(8)):  # the entries d + 2^i after those d < 2^i
        tbl += [t ^ ci for t in tbl]
    return tbl


def mul_by_table(f: FieldSpec, tbl: list[int], a: int) -> int:
    """c*a for the c that `product_table` made tbl from: one table entry
    per byte of a, then modular reduction."""
    r = 0
    for d in a.to_bytes((a.bit_length() + 7) >> 3, "big"):
        r = (r << 8) ^ tbl[d]
    return f.reduce(r)


def segment_width(spec: FieldSpec) -> int:
    """Operand width of the segment-level partial multiplier: ceil(m/4).

    The top segment is zero-padded when m is not a multiple of 4
    (59 bits for m=233, 41 bits for m=163).
    """
    return (spec.m + 3) // 4


def karatsuba4_partials(f: FieldSpec, a: int, b: int) -> tuple[int, tuple[int, ...]]:
    """4-segment Karatsuba multiplication: the reduced product and the
    9 segment-level partial products, in the order the modelled
    multiplier accumulates them.

    The partials feed the leakage simulator's data model: one partial is
    accumulated per multiplier clock cycle.
    """
    w = segment_width(f)
    mask = (1 << w) - 1
    a0, a1, a2, a3 = a & mask, (a >> w) & mask, (a >> 2 * w) & mask, a >> 3 * w
    b0, b1, b2, b3 = b & mask, (b >> w) & mask, (b >> 2 * w) & mask, b >> 3 * w

    # low half (a1*x^w + a0)(b1*x^w + b0) via 2-segment Karatsuba
    p1 = _clmul(a0, b0)
    p2 = _clmul(a1, b1)
    p3 = _clmul(a0 ^ a1, b0 ^ b1)
    lo = p1 ^ ((p1 ^ p2 ^ p3) << w) ^ (p2 << 2 * w)

    # high half (a3*x^w + a2)(b3*x^w + b2)
    p4 = _clmul(a2, b2)
    p5 = _clmul(a3, b3)
    p6 = _clmul(a2 ^ a3, b2 ^ b3)
    hi = p4 ^ ((p4 ^ p5 ^ p6) << w) ^ (p5 << 2 * w)

    # cross term (lo segs + hi segs) pairwise
    s0, s1 = a0 ^ a2, a1 ^ a3
    t0, t1 = b0 ^ b2, b1 ^ b3
    p7 = _clmul(s0, t0)
    p8 = _clmul(s1, t1)
    p9 = _clmul(s0 ^ s1, t0 ^ t1)
    mid = p7 ^ ((p7 ^ p8 ^ p9) << w) ^ (p8 << 2 * w)

    prod = lo ^ ((mid ^ lo ^ hi) << 2 * w) ^ (hi << 4 * w)
    return f.reduce(prod), (p1, p2, p3, p4, p5, p6, p7, p8, p9)


def square(f: FieldSpec, a: int) -> int:
    """Squaring: interleave a zero bit after every coefficient, then reduce.

    Each hex digit of a becomes one byte with its bits at the even
    positions; read big-endian, those bytes are a^2 before reduction.
    """
    return f.reduce(int.from_bytes(format(a, "x").encode().translate(_SQUARE_DIGIT), "big"))


def invert(f: FieldSpec, a: int) -> int:
    """Multiplicative inverse by the binary-polynomial extended Euclidean
    algorithm (Hankerson, Menezes, Vanstone, Guide to Elliptic Curve
    Cryptography, Alg. 2.48).

    Invariant: u = g1*a and v = g2*a (mod f).  Each step cancels the
    leading term of u with v shifted into place; g1 never reaches degree
    m, so the result needs no reduction.
    """
    if a == 0:
        raise ZeroInversionError(f"zero has no inverse in GF(2^{f.m})")
    u, v = a, f.reduction_poly
    g1, g2 = 1, 0
    while u > 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    if u == 0:
        raise ZeroInversionError("element not invertible; polynomial is reducible")
    return g1


# byte -> the ASCII hex digit of its even bits 0, 2, 4, 6 (or of its odd bits), for sqrt
_EVEN_HEX, _ODD_HEX = (bytes.maketrans(bytes(range(256)), bytes(
    b"0123456789abcdef"[sum((v >> 2 * i + odd & 1) << i for i in range(4))] for v in range(256)))
    for odd in (0, 1))


def _halving_tables(f: FieldSpec) -> tuple:
    """f's trace mask, solver rows for z^2 + z = c and the product table of
    sqrt(x), built on first use from `FieldSpec.reduce` alone.  In the
    echelon form of the images of x^1..x^(m-1) under the linear z^2 + z,
    each row kept with its preimage, one bit p has no pivot.  A trace-0 c
    is the sum of the rows at its pivot bits, z the sum of their preimages,
    and the trace-1 bits are p and the pivots whose row has bit p."""
    if f._halving is not None:
        return f._halving
    rows = {}  # pivot bit -> (image, preimage); no row has another row's pivot bit
    for i in range(1, f.m):
        img, pre = f.reduce(1 << 2 * i) ^ 1 << i, 1 << i
        for bit, (r, z) in rows.items():
            if img >> bit & 1:
                img, pre = img ^ r, pre ^ z
        top = img.bit_length() - 1
        for bit, (r, z) in rows.items():
            if r >> top & 1:
                rows[bit] = r ^ img, z ^ pre
        rows[top] = img, pre
    p, = set(range(f.m)) - rows.keys()
    tmask = 1 << p | sum(1 << bit for bit, (r, _) in rows.items() if r >> p & 1)
    solver = []  # row d: the 16 values of c's hex digit d -> their preimage sums
    for d in range(f.hex_digits):
        row = [0]
        for j in range(4 * d, 4 * d + 4):
            row += [e ^ rows.get(j, (0, 0))[1] for e in row]
        solver.append(row)
    root_x = 2
    for _ in range(f.m - 1):  # x^(2^(m-1)); a traced run would count `square` calls
        root_x = f.reduce(int.from_bytes(format(root_x, "x").encode().translate(_SQUARE_DIGIT), "big"))
    f._halving = tmask, solver, product_table(root_x)
    return f._halving


def trace(f: FieldSpec, c: int) -> int:
    """The absolute trace c + c^2 + ... + c^(2^(m-1)), which is 0 or 1."""
    return (c & _halving_tables(f)[0]).bit_count() & 1


def solve_quadratic(f: FieldSpec, c: int) -> int:
    """A root z of z^2 + z = c, for c of trace 0 (z + 1 is the other):
    one solver-row entry per hex digit of c."""
    z = 0
    for row, d in zip(_halving_tables(f)[1], format(c, "x").encode().translate(_HEX_NIBBLE)[::-1]):
        z ^= row[d]
    return z


def sqrt(f: FieldSpec, c: int) -> int:
    """The square root of c: its even bits plus sqrt(x) times its odd bits,
    bit 2i or 2i + 1 moved to i."""
    raw = c.to_bytes((f.m + 7) >> 3, "big")
    odd = int(raw.translate(_ODD_HEX), 16)
    return int(raw.translate(_EVEN_HEX), 16) ^ mul_by_table(f, _halving_tables(f)[2], odd)


# Built-in specs (FIPS 186-4 binary fields)
B163 = FieldSpec(163, (1 << 163) | (1 << 7) | (1 << 6) | (1 << 3) | 1)
B233 = FieldSpec(233, (1 << 233) | (1 << 74) | 1)
