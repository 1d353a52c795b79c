"""Arithmetic in binary extension fields GF(2^m).

Field elements are polynomials over GF(2) stored as Python integers
(bit i holds the coefficient of x^i) and are always kept fully reduced
modulo the field's irreducible polynomial.  Addition is coefficient-wise
XOR; there is no carry propagation anywhere.

Multiplication comes in two independently implemented flavours:

* ``mul_classical`` -- schoolbook carry-less multiplication followed by
  modular reduction.
* ``mul_karatsuba4`` -- the 4-segment Karatsuba decomposition used by the
  modelled multiplier hardware.  It computes 9 segment-level partial
  products instead of the 16 a classical 4-segment multiplier would need
  (a saving of (16-9)/16 = 43.75%), and reports that count so the cycle
  scheduler can account for it.

Both return identical values; the test suite enforces this exhaustively
on small fields and statistically on the big ones.
"""

from __future__ import annotations

from dataclasses import dataclass


class FieldMismatchError(ValueError):
    """Operands belong to different field specs."""


class ZeroInversionError(ZeroDivisionError):
    """Attempted to invert the zero element."""


def _spread_byte(b: int) -> int:
    out = 0
    for i in range(8):
        if (b >> i) & 1:
            out |= 1 << (2 * i)
    return out


# bit i of a byte -> bit 2i; used by square()
_SQUARE_BYTE = tuple(_spread_byte(b) for b in range(256))


class FieldSpec:
    """Degree and irreducible polynomial of one GF(2^m) instance."""

    __slots__ = ("m", "reduction_poly", "_tails", "_mask", "hex_digits")

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

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, rng.getrandbits(self.m) & self._mask)


@dataclass(frozen=True)
class FieldElement:
    """A reduced polynomial over GF(2), tied to its FieldSpec."""

    spec: FieldSpec
    value: int

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul_classical(self, other)

    def __bool__(self) -> bool:
        return self.value != 0

    def to_hex(self) -> str:
        """Lowercase hex, most-significant bit first, zero-padded to ceil(m/4) digits."""
        return format(self.value, f"0{self.spec.hex_digits}x")

    @classmethod
    def from_hex(cls, spec: FieldSpec, text: str) -> "FieldElement":
        return spec.element(int(text, 16))

    def __repr__(self) -> str:
        return f"<GF(2^{self.spec.m}): {self.to_hex()}>"


def _require_same_spec(a: FieldElement, b: FieldElement) -> None:
    if a.spec != b.spec:
        raise FieldMismatchError(
            f"elements from different fields: GF(2^{a.spec.m}) vs GF(2^{b.spec.m})"
        )


def add(a: FieldElement, b: FieldElement) -> FieldElement:
    """Field addition: coefficient-wise XOR."""
    _require_same_spec(a, b)
    return FieldElement(a.spec, a.value ^ b.value)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints (4-bit windowed comb)."""
    if a == 0 or b == 0:
        return 0
    tbl = [0, b, b << 1, (b << 1) ^ b,
           b << 2, (b << 2) ^ b, (b << 2) ^ (b << 1), (b << 2) ^ (b << 1) ^ b,
           b << 3, 0, 0, 0, 0, 0, 0, 0]
    for n in range(9, 16):
        tbl[n] = tbl[8] ^ tbl[n - 8]
    r = 0
    for shift in range((a.bit_length() - 1) // 4 * 4, -1, -4):
        r = (r << 4) ^ tbl[(a >> shift) & 15]
    return r


def mul_classical(a: FieldElement, b: FieldElement) -> FieldElement:
    """Schoolbook carry-less multiplication, then modular reduction."""
    _require_same_spec(a, b)
    return FieldElement(a.spec, a.spec.reduce(_clmul(a.value, b.value)))


def _karatsuba4_raw(a: int, b: int, w: int) -> tuple[int, tuple[int, ...]]:
    """4-segment Karatsuba carry-less product with segment width w.

    Returns the unreduced product and the 9 segment-level partial
    products in the order the modelled multiplier accumulates them.
    """
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
    return prod, (p1, p2, p3, p4, p5, p6, p7, p8, p9)


def segment_width(spec: FieldSpec) -> int:
    """Operand width of the segment-level partial multiplier: ceil(m/4).

    The top segment is zero-padded when m is not a multiple of 4
    (59 bits for m=233, 41 bits for m=163).
    """
    return (spec.m + 3) // 4


def mul_karatsuba4(a: FieldElement, b: FieldElement) -> tuple[FieldElement, int]:
    """4-segment Karatsuba multiplication.

    Returns the (reduced) product and the number of segment-level
    partial products computed -- always 9, exposed so the schedule
    model can account one multiplier cycle per partial.
    """
    product, partials = karatsuba4_partials(a, b)
    return product, len(partials)


def karatsuba4_partials(a: FieldElement, b: FieldElement) -> tuple[FieldElement, tuple[int, ...]]:
    """Like mul_karatsuba4 but returns the 9 raw partial products.

    The partials feed the leakage simulator's data model: one partial is
    accumulated per multiplier clock cycle.
    """
    _require_same_spec(a, b)
    prod, partials = _karatsuba4_raw(a.value, b.value, segment_width(a.spec))
    return FieldElement(a.spec, a.spec.reduce(prod)), partials


def square(a: FieldElement) -> FieldElement:
    """Squaring: interleave a zero bit after every coefficient, then reduce."""
    v = a.value
    out = 0
    shift = 0
    while v:
        out |= _SQUARE_BYTE[v & 0xFF] << shift
        v >>= 8
        shift += 16
    return FieldElement(a.spec, a.spec.reduce(out))


def invert(a: FieldElement) -> FieldElement:
    """Multiplicative inverse via the extended Euclidean algorithm in GF(2)[x]."""
    if a.value == 0:
        raise ZeroInversionError(f"zero has no inverse in GF(2^{a.spec.m})")
    # invariant: r0 = s0*a (mod f), r1 = s1*a (mod f)
    r0, r1 = a.spec.reduction_poly, a.value
    s0, s1 = 0, 1
    while r1:
        d1 = r1.bit_length()
        q, r = 0, r0
        while r.bit_length() >= d1:
            sh = r.bit_length() - d1
            q ^= 1 << sh
            r ^= r1 << sh
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _clmul(q, s1)
    if r0 != 1:
        raise ZeroInversionError("element not invertible; polynomial is reducible")
    return FieldElement(a.spec, a.spec.reduce(s0))


def trace_mask(spec: FieldSpec) -> int:
    """Bitmask of basis monomials x^i with absolute trace 1.

    Tr(e) is then the parity of popcount(e.value & mask).  Used by
    point-counting oracles on small fields.
    """
    mask = 0
    for i in range(spec.m):
        e = spec.element(1 << i)
        acc, s = e, e
        for _ in range(spec.m - 1):
            s = square(s)
            acc = add(acc, s)
        if acc.value == 1:
            mask |= 1 << i
        elif acc.value != 0:
            raise ArithmeticError("trace of a basis element must be 0 or 1")
    return mask


def rabin_irreducible(spec: FieldSpec) -> bool:
    """Rabin's irreducibility test for the spec's reduction polynomial."""
    m = spec.m
    f = spec.reduction_poly

    def hpow_mod(e: int, k: int) -> int:
        # e^(2^k) mod f via k squarings
        el = FieldElement(spec, e)
        for _ in range(k):
            el = square(el)
        return el.value

    def poly_gcd(u: int, v: int) -> int:
        while v:
            du, dv = u.bit_length(), v.bit_length()
            if du < dv:
                u, v = v, u
                continue
            u ^= v << (du - dv)
        return u

    # x^(2^m) == x (mod f) is necessary
    if hpow_mod(2, m) != 2:
        return False
    # for every prime divisor q of m: gcd(x^(2^(m/q)) - x, f) == 1
    n, q, divisors = m, 2, []
    while q * q <= n:
        if n % q == 0:
            divisors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        divisors.append(n)
    for q in divisors:
        h = hpow_mod(2, m // q) ^ 2
        if h == 0 or poly_gcd(f, h) != 1:
            return False
    return True


# Built-in specs (FIPS 186-4 binary fields)
B163 = FieldSpec(163, (1 << 163) | (1 << 7) | (1 << 6) | (1 << 3) | 1)
B233 = FieldSpec(233, (1 << 233) | (1 << 74) | 1)
