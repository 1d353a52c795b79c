"""Binary elliptic curves and Montgomery kP multiplication.

Curves have the short Weierstrass form for characteristic 2,
y^2 + xy = x^3 + a*x^2 + b, with b != 0, and #E = 2n for the odd order n
of their base point G (checked by `CurveParams`).  The modelled
accelerator runs the x-coordinate-only Montgomery ladder in Lopez-Dahab
projective coordinates, and `kp_multiply` records its transcript for the
leakage simulator.  `kp_point`, kP of a variable point of <G> = 2E that
leaks nothing in the model, halves and adds instead.  The affine group
law (textbook formulas, code disjoint from the ladder) runs on int pairs
(x, y), None for infinity; `negate` adapts it to `AffinePoint`, the
boundary type.  It lets the attack verify key candidates by point
additions instead of one kP per candidate scalar, and `kp_point` and
`fixed_base_multiples` sum their points with it, as a tree whose levels
share one inversion each (`_lane_sums`).  `fixed_base_multiples` gives
every multiple of G that the package needs from a signed base-256
window table (Hankerson, Menezes, Vanstone, Guide to Elliptic Curve
Cryptography, sec. 3.3.1) that depends only on G = params.g: its rows
hold the digits of every scalar below n, and a longer scalar is taken
mod n.  The package ships the table of each registered curve
(window_<curve id>.bin, decoded on first use); that of any other curve
is built once, on first use.

The ladder follows the modelled accelerator's bit convention: the
register initialisation already encodes the most significant scalar
bit, the second-most-significant bit is processed in a dedicated
pre-loop step, and the remaining l-2 bits run in the main loop.  The
register state before each step, plus the final state, and every
intermediate value of each step form the transcript that the leakage
simulator expands into a clock-cycle schedule.
"""

from __future__ import annotations

import functools
import importlib.resources
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from . import gf2m
from .gf2m import FieldElement, FieldSpec


class CurveError(ValueError):
    """Invalid curve input: group shape, point off the curve or outside <G>, degenerate
    coordinate, bad scalar."""


@dataclass(frozen=True)
class Scalar:
    """Positive scalar; its bit vector is MSB-first with the top bit 1."""

    value: int
    _BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' -> 0/1; unannotated: not a field

    def __post_init__(self):
        if self.value < 1:
            raise CurveError("scalar must be >= 1")

    @property
    def bit_length(self) -> int:
        return self.value.bit_length()

    # cached in the instance's __dict__, which a frozen dataclass still has
    @functools.cached_property
    def bits(self) -> tuple[int, ...]:
        """MSB-first bit vector (leading bit is always 1)."""
        return tuple(format(self.value, "b").encode().translate(self._BIT_VALUES))

    @functools.cached_property
    def main_loop_bits(self) -> tuple[int, ...]:
        """The l-2 bits processed in the ladder main loop (attack's target)."""
        return self.bits[2:]

    @classmethod
    def from_bits(cls, bits) -> "Scalar":
        bits = tuple(bits)
        if not bits or bits[0] != 1 or not set(bits) <= {0, 1}:
            raise CurveError("scalar bit vector must be MSB-first with leading 1, of bits 0 and 1")
        v = 0
        for b in bits:
            v = (v << 1) | b
        return cls(v)

    @classmethod
    def random(cls, rng, nbits: int) -> "Scalar":
        """Uniform scalar of exactly nbits bits (MSB forced to 1)."""
        if nbits < 1:
            raise CurveError("scalar length must be >= 1")
        return cls((1 << (nbits - 1)) | rng.getrandbits(nbits - 1))

    def to_hex(self) -> str:
        return format(self.value, "x")

    @classmethod
    def from_hex(cls, text: str) -> "Scalar":
        return cls(int(text, 16))


@dataclass(frozen=True, slots=True)
class AffinePoint:
    x: Optional[FieldElement] = None
    y: Optional[FieldElement] = None
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "AffinePoint":
        return cls(None, None, True)

    @property
    def pair(self) -> Optional[tuple[int, int]]:
        """(x, y) as the ints the group law runs on; None for infinity."""
        return None if self.infinity else (self.x.value, self.y.value)

    @classmethod
    def from_pair(cls, f: FieldSpec, pair) -> "AffinePoint":
        if pair is None:
            return cls.at_infinity()
        return cls(FieldElement(f, pair[0]), FieldElement(f, pair[1]))

    def to_hex(self) -> str:
        if self.infinity:
            return "infinity"
        return f"{self.x.to_hex()}:{self.y.to_hex()}"

    @classmethod
    def from_hex(cls, spec: FieldSpec, text: str) -> "AffinePoint":
        if text.strip().lower() == "infinity":
            return cls.at_infinity()
        xs, ys = text.split(":")
        return cls(FieldElement.from_hex(spec, xs), FieldElement.from_hex(spec, ys))


@dataclass(frozen=True)
class CurveParams:
    field: FieldSpec
    a: FieldElement
    b: FieldElement
    g: AffinePoint
    # order n of g, its shape (odd, #E = 2n) checked and its value trusted: kp_point
    # halves within <g> by it, and verification decides candidates mod n once one verifies
    order_hint: int

    def __post_init__(self):
        if self.a.spec != self.field or self.b.spec != self.field:
            raise CurveError("curve coefficients must belong to the curve's field")
        if self.b.value == 0:
            raise CurveError("curve coefficient b must be nonzero")
        if not is_on_curve(self.g, self):
            raise CurveError("base point does not satisfy the curve equation")
        # n divides #E, which the Hasse bound puts within 2*sqrt(q) of q + 1: 2n
        # lies there, and n > 4*sqrt(q) leaves no other multiple of n there
        n, q = self.order_hint, 1 << self.field.m
        if not (n & 1 and (q + 1 - 2 * n) ** 2 <= 4 * q and n * n > 16 * q):
            raise CurveError(f"order_hint {n} is not an odd n with #E = 2n > 8*sqrt(q)")


def is_on_curve(p: AffinePoint, params: CurveParams) -> bool:
    """Whether p is a point of this curve.  The arithmetic runs on ints in
    params.field, so this is the boundary check that keeps out the points
    of other fields."""
    if p.infinity:
        return True
    f = params.field
    if p.x.spec != f or p.y.spec != f:
        return False
    x, y, a = p.x.value, p.y.value, params.a.value
    lhs = gf2m.square(f, y) ^ gf2m.mul_classical(f, x, y)
    x2 = gf2m.square(f, x)
    rhs = gf2m.mul_classical(f, x2, x) ^ gf2m.mul_classical(f, a, x2) ^ params.b.value
    return lhs == rhs


def in_base_subgroup(p: AffinePoint, params: CurveParams) -> bool:
    """Whether p is in <G> = 2E: on the curve, and infinity or Tr(x) = Tr(a)."""
    f = params.field
    return is_on_curve(p, params) and (
        p.infinity or gf2m.trace(f, p.x.value) == gf2m.trace(f, params.a.value))


def negate(p: AffinePoint) -> AffinePoint:
    """-p, by `_negate`."""
    return p if p.infinity else AffinePoint.from_pair(p.x.spec, _negate(p.pair))


# projective ladder registers: X1/Z1 hold [m]P, X2/Z2 hold [m+1]P
LadderState = namedtuple("LadderState", "X1 Z1 X2 Z2")
# a ladder step's register roles: the addition updates (Xa, Za), (Xb, Zb) is doubled
ROLES = ("Xa", "Za", "Xb", "Zb")


def roles(k_i: int, regs) -> tuple:
    """Four values from register order (X1, Z1, X2, Z2) to role order, and back:
    the one rule for which registers key bit k_i drives (1 adds into X1/Z1)."""
    one, two = regs[:2], regs[2:]
    return one + two if k_i else two + one


@dataclass(frozen=True)
class LadderTranscript:
    """One kP execution: the ladder states it passed through and each step's values.

    states[i] is the register state before the step for scalar.bits[i + 1]
    (step 0 is the pre-loop step) and steps[i] every intermediate of that
    step; states[-1] is the final state.
    """

    params: CurveParams
    scalar: Scalar
    point: AffinePoint
    states: tuple[LadderState, ...]
    steps: tuple[StepValues, ...]
    result: Optional[AffinePoint]


def _init_state(p: AffinePoint, params: CurveParams) -> LadderState:
    """Register initialisation: (X1, Z1, X2, Z2) <- (x, 1, x^4 + b, x^2)."""
    f = params.field
    x = p.x.value
    x2 = gf2m.square(f, x)
    return LadderState(x, 1, gf2m.square(f, x2) ^ params.b.value, x2)


# every intermediate of one ladder step, named as in leaksim's slot layout
StepValues = namedtuple("StepValues", "M1 M2 M3 M4 M5 M6 S1 S2 S3 S4 S5 A1 A2 A3")


def _step_roles(f: FieldSpec, Xa: int, Za: int, Xb: int, Zb: int, x: int, b: int) -> StepValues:
    """One ladder step with (Xa, Za) as the add-updated pair and (Xb, Zb) doubled,
    for the input point's x and the curve's b: 6 multiplications, 5 squarings,
    3 additions -- the schedule the hardware model realises in 54 clock cycles.
    """
    m1 = gf2m.mul_classical(f, Xa, Zb)
    m2 = gf2m.mul_classical(f, Xb, Za)       # Za, routed through T in hardware
    a1 = m1 ^ m2
    s1 = gf2m.square(f, a1)                  # new Za
    m3 = gf2m.mul_classical(f, m1, m2)
    m4 = gf2m.mul_classical(f, x, s1)
    a2 = m4 ^ m3                             # new Xa
    s2 = gf2m.square(f, Xb)
    s3 = gf2m.square(f, s2)
    s4 = gf2m.square(f, Zb)
    s5 = gf2m.square(f, s4)
    m5 = gf2m.mul_classical(f, b, s5)
    a3 = s3 ^ m5                             # new Xb = Xb^4 + b*Zb^4
    m6 = gf2m.mul_classical(f, s2, s4)       # new Zb = Xb^2 * Zb^2
    return StepValues(m1, m2, m3, m4, m5, m6, s1, s2, s3, s4, s5, a1, a2, a3)


def next_state(k_i: int, v: StepValues) -> LadderState:
    """The registers after the step for k_i: new Xa, Za, Xb, Zb = A2, S1, A3, M6."""
    return LadderState(*roles(k_i, (v.A2, v.S1, v.A3, v.M6)))


def ladder_step(
    f: FieldSpec, state: LadderState, k_i: int, x: int, b: int
) -> tuple[LadderState, StepValues]:
    """One key-bit iteration for the input point's x and the curve's b: the
    next state and every intermediate; rejects both Z zero."""
    if state.Z1 == 0 and state.Z2 == 0:
        raise CurveError("both Z registers are zero; ladder state is degenerate")
    v = _step_roles(f, *roles(k_i, state), x, b)
    return next_state(k_i, v), v


def ladder_finalize(state: LadderState, p: AffinePoint) -> AffinePoint:
    """Convert the final projective state back to affine kP.

    Z1 = 0 means the result is the point at infinity; Z2 = 0 means the
    neighbour point [k+1]P is at infinity, so kP = -P.
    """
    X1, Z1, X2, Z2 = state.X1, state.Z1, state.X2, state.Z2
    if Z1 == 0:
        return AffinePoint.at_infinity()
    if Z2 == 0:
        return negate(p)
    f = p.x.spec
    x, y = p.x.value, p.y.value
    # single inversion of x*Z1*Z2 serves both coordinates
    xz1 = gf2m.mul_classical(f, x, Z1)
    xz2 = gf2m.mul_classical(f, x, Z2)
    inv = gf2m.invert(f, gf2m.mul_classical(f, xz1, Z2))
    xl = gf2m.mul_classical(f, gf2m.mul_classical(f, X1, xz2), inv)
    u = gf2m.mul_classical(f, X1 ^ xz1, X2 ^ xz2)
    v = gf2m.mul_classical(f, gf2m.square(f, x) ^ y, gf2m.mul_classical(f, Z1, Z2))
    yl = y ^ gf2m.mul_classical(f, x ^ xl, gf2m.mul_classical(f, u ^ v, inv))
    return AffinePoint(FieldElement(f, xl), FieldElement(f, yl))


def _check_ladder_input(p: AffinePoint, params: CurveParams) -> None:
    if p.infinity:
        raise CurveError("cannot run the ladder on the point at infinity")
    if not is_on_curve(p, params):
        raise CurveError("input point is not on the curve")
    if p.x.value == 0:
        raise CurveError("x = 0 is degenerate: Z2 would be zero from the start")


def kp_multiply(k: Scalar, p: AffinePoint, params: CurveParams) -> tuple[AffinePoint, LadderTranscript]:
    """Full kP with an execution transcript for the leakage simulator.

    k is processed as-is: it is never reduced modulo the group order,
    which is the caller's responsibility if a canonical representative
    is wanted.  [k]P is still correct for oversized k.
    """
    _check_ladder_input(p, params)
    states, steps = [_init_state(p, params)], []
    for k_i in k.bits[1:]:
        state, values = ladder_step(params.field, states[-1], k_i, p.x.value, params.b.value)
        states.append(state)
        steps.append(values)
    result = ladder_finalize(states[-1], p)
    if not is_on_curve(result, params):
        raise CurveError("ladder produced an off-curve point")
    return result, LadderTranscript(params, k, p, tuple(states), tuple(steps), result)


def kp_point(k: Scalar, p: AffinePoint, params: CurveParams) -> AffinePoint:
    """kP for P in <G> but not infinity, by halve-and-add (multiples of G: `fixed_base_multiples`).
    Any other P raises CurveError, as its kP would leak k mod 2 (Lim, Lee, CRYPTO 1997)."""
    if p.infinity or not in_base_subgroup(p, params):
        raise CurveError("kP takes a point of <G> other than infinity")
    return AffinePoint.from_pair(params.field, _halve_and_add(k.value, p.pair, params))


def _naf4(k: int) -> list[int]:
    """Width-4 NAF of k >= 0, least significant digit first: digits 0, +-1,
    +-3, +-5 or +-7, at most one nonzero in any 4 consecutive ones."""
    digits = []
    while k:
        digits.append((k & 15) - (k & 8) * 2 if k & 1 else 0)
        k = (k - digits[-1]) >> 1
    return digits


def _halve_and_add(k: int, p: tuple[int, int], params: CurveParams):
    """kP for P in <G> of odd order n = order_hint (Hankerson, Menezes, Vanstone, Guide
    to ECC, Alg. 3.91 and 3.81): with t = n.bit_length() and k' = 2^(t-1)*k
    mod n in width-4 NAF digits k'_i, kP = sum k'_i * P/2^(t-1-i), digit t
    taking 2P.  Halving (x, y): a root L of L^2 + L = x + a, T = y + x*L (one
    product), and the half in <G> is (sqrt(T + x), L) if Tr(T) = 0, else
    (sqrt(T), L + 1), as (u, lambda = u + v/u); v = u*(lambda + u) is taken
    only for a point a digit adds.  The solver is linear, so the next root,
    that of u + a, is u's from one `gf2m.sqrt_and_root` plus a's.  Q_j sums
    magnitude j's terms, and Q1 + 3*Q3 + 5*Q5 + 7*Q7 = S1 + 2*(S3 + S5 + S7),
    S_j = Q_j + ... + Q7.
    """
    f, a, n, t = params.field, params.a.value, params.order_hint, params.order_hint.bit_length()
    digits = _naf4(pow(2, t - 1, n) * k % n)
    lanes = [[], [], [], []]  # digit magnitudes 1, 3, 5, 7
    if len(digits) > t:  # then digit t is 1, as k' < 2^t
        lanes[0].append(_point_double(p, params))
    (x, y), lam = p, None
    root, root_a = gf2m.solve_quadratic(f, x ^ a), gf2m.solve_quadratic(f, a)
    for i in range(t - 1, -1, -1):
        d = digits[i] if i < len(digits) else 0
        if d:
            if y is None:
                y = gf2m.mul_classical(f, x, lam ^ x)
            lanes[abs(d) >> 1].append((x, y if d > 0 else x ^ y))
        if i:
            tt = (gf2m.mul_classical(f, x, x ^ lam ^ root) if y is None
                  else y ^ gf2m.mul_classical(f, x, root))
            tr = gf2m.trace(f, tt)
            (x, root), y, lam = gf2m.sqrt_and_root(f, tt if tr else tt ^ x), None, root ^ tr
            root ^= root_a
    q = _lane_sums(lanes, params)
    s1, s3, s5 = _lane_sums([q, q[1:], q[2:]], params)
    twice, = _lane_sums([[s3, s5, q[3]]], params)
    return _point_add(s1, _point_double(twice, params), params)


# --- affine group law (textbook formulas) on int pairs (x, y), None for infinity ---

def _negate(p):
    """-(x, y) = (x, x + y) on binary curves."""
    return None if p is None else (p[0], p[0] ^ p[1])


def _point_add(p, q, params: CurveParams):
    if p is None:
        return q
    if q is None:
        return p
    if p[0] == q[0]:  # q = p or q = -p, which sums to infinity
        return _point_double(p, params) if p[1] == q[1] else None
    return _chord_add(p, q, gf2m.invert(params.field, p[0] ^ q[0]), params)


def _chord_add(p, q, inv: int, params: CurveParams):
    """p + q for finite points with distinct x, given inv = 1/(x_p + x_q)."""
    f = params.field
    (x1, y1), (x2, y2) = p, q
    lam = gf2m.mul_classical(f, y1 ^ y2, inv)
    x3 = gf2m.square(f, lam) ^ lam ^ x1 ^ x2 ^ params.a.value
    return x3, gf2m.mul_classical(f, lam, x1 ^ x3) ^ x3 ^ y1


def _add_many(ps, qs, params: CurveParams) -> list:
    """[p + q for p, q in zip(ps, qs)], with one inversion for all pairs.

    The pairs of finite points with distinct x share one `gf2m.invert`
    by Montgomery's simultaneous inversion (P. L. Montgomery, Math. Comp.
    48, 1987): invert the product of their denominators x_p + x_q, then
    peel each inverse off with two multiplications.  A pair with a point
    at infinity or equal x takes `_point_add`, so no zero denominator
    enters the product.
    """
    f = params.field
    out = [None] * len(ps)
    batch, dens = [], []
    for j, (p, q) in enumerate(zip(ps, qs)):
        if p is None or q is None or p[0] == q[0]:
            out[j] = _point_add(p, q, params)
        else:
            batch.append(j)
            dens.append(p[0] ^ q[0])
    if not batch:
        return out
    prefix = [dens[0]]  # prefix[n] = dens[0] * ... * dens[n]
    for d in dens[1:]:
        prefix.append(gf2m.mul_classical(f, prefix[-1], d))
    inv = gf2m.invert(f, prefix[-1])  # 1 / prefix[n] as n walks down
    for n in range(len(batch) - 1, 0, -1):
        j = batch[n]
        out[j] = _chord_add(ps[j], qs[j], gf2m.mul_classical(f, inv, prefix[n - 1]), params)
        inv = gf2m.mul_classical(f, inv, dens[n])
    out[batch[0]] = _chord_add(ps[batch[0]], qs[batch[0]], inv, params)
    return out


def _point_double(p, params: CurveParams):
    if p is None:  # a finite p is in <G>, of odd order, so 2p is finite and x != 0
        return None
    f = params.field
    x, y = p
    lam = x ^ gf2m.mul_classical(f, y, gf2m.invert(f, x))
    x3 = gf2m.square(f, lam) ^ lam ^ params.a.value
    return x3, gf2m.square(f, x) ^ gf2m.mul_classical(f, lam ^ 1, x3)


# --- fixed-base multiples k*G: signed base-256 window table, tree sums ---

def _signed_digits(k: int) -> list[int]:
    """k = sum(d_i * 256^i), least significant digit first, each d_i in -127..128:
    k's bytes, a byte above 128 taken 256 lower with a carry into the next."""
    digits, carry = [], 0
    for byte in k.to_bytes((k.bit_length() + 7) >> 3, "little"):
        d = byte + carry
        carry = d > 128
        digits.append(d - (carry << 8))
    return digits + [1] if carry else digits


@functools.lru_cache(maxsize=16)
def _window_table(params: CurveParams) -> tuple[tuple, ...]:
    """The window table of params.g, one fixed value per curve (cached by its
    value): row i holds the int pairs of d*256^i*G for d = 1..128, and the
    rows hold the signed digits of every scalar below n = order_hint.

    A registered curve's table is the one the package ships, read with no
    field arithmetic: the registry checked its base point.  Any other
    curve, a registered one with another base point included, must have
    its base point in <G> = 2E, as the reduction mod n assumes, and its
    table is built.
    """
    rows = params.order_hint.bit_length() // 8 + 1  # a carry out of the top byte included
    for name, registered in _REGISTRY.items():
        if params == registered:
            return _shipped_rows(name, params, rows)
    if params.g.infinity or not in_base_subgroup(params.g, params):
        raise CurveError("base point is not a point of <G> = 2E other than infinity")
    return _build_rows(params, rows)


# the shipped window tables, one window_<curve id>.bin file per registered curve
_TABLE_DIR = importlib.resources.files(__package__)


def _shipped_rows(name: str, params: CurveParams, rows: int) -> tuple[tuple, ...]:
    """Registered curve `name`'s window table of `rows` rows, as shipped.

    Every point is x || y, each coordinate big-endian in ceil(m/8) bytes,
    and a row is its 128 points in column order.  A missing file raises
    OSError, and a file that does not hold exactly `rows` rows, holds a
    coordinate of degree m or more, or whose first point is not
    the base point, raises CurveError: the table is never built instead,
    which would hide a broken install.
    """
    f = params.field
    n = (f.m + 7) // 8
    path = _TABLE_DIR / f"window_{name}.bin"
    data = path.read_bytes()
    if len(data) != rows * 256 * n:
        raise CurveError(f"{path}: {len(data)} bytes is not {rows} rows of {256 * n} bytes")
    ints = [int.from_bytes(data[i:i + n], "big") for i in range(0, len(data), n)]
    if max(ints) >> f.m:
        raise CurveError(f"{path}: a coordinate is not an element of GF(2^{f.m})")
    if tuple(ints[:2]) != params.g.pair:
        raise CurveError(f"{path}: the first point is not the base point")
    pairs = list(zip(ints[::2], ints[1::2]))
    return tuple(tuple(pairs[i:i + 128]) for i in range(0, len(pairs), 128))


def _build_rows(params: CurveParams, rows: int) -> tuple[tuple, ...]:
    """The first `rows` rows of params.g's window table, built.

    A doubling chain from G gives each row's power-of-two columns.  Every
    other column d is column d - low plus column low, low being d's lowest
    set bit: one batched addition per set-bit count 2..7, across all rows.
    """
    chain = [params.g.pair]
    for _ in range(8 * rows - 1):
        chain.append(_point_double(chain[-1], params))
    table = [{1 << j: chain[8 * i + j] for j in range(8)} for i in range(rows)]
    for weight in range(2, 8):
        ds = [d for d in range(3, 128) if d.bit_count() == weight]
        sums = iter(_add_many([row[d - (d & -d)] for row in table for d in ds],
                              [row[d & -d] for row in table for d in ds], params))
        for row in table:
            row.update((d, next(sums)) for d in ds)
    return tuple(tuple(row[d] for d in range(1, 129)) for row in table)


def fixed_base_multiples(ks, params: CurveParams) -> list[AffinePoint]:
    """The points k*G, G = params.g, for a list of scalars k >= 1, computed
    together (`_fixed_base_pairs`)."""
    return [AffinePoint.from_pair(params.field, p) for p in _fixed_base_pairs(ks, params)]


def _fixed_base_pairs(ks, params: CurveParams) -> list:
    """`fixed_base_multiples` as int pairs.

    Each k is written in signed base-256 digits, or k mod n is if k has
    more digits than G's window table has rows (reducing every k costs
    more: the attack's C = 5*2^230 - 1 on B-233 has 3 nonzero digits, C
    mod n 16).  A lane starts as the terms d_i*256^i*G of its nonzero
    digits (row i of the table at |d_i|, negated for a negative digit),
    at most 30 on B-233, and `_lane_sums` adds them in 5 levels.  A
    reduced k that n divides has no digits, and its point is infinity.
    """
    table = _window_table(params)
    digits = []
    for k in ks:
        if k < 1:
            raise CurveError("scalar must be >= 1")
        ds = _signed_digits(k)
        digits.append(ds if len(ds) <= len(table) else _signed_digits(k % params.order_hint))
    return _lane_sums([[row[d - 1] if d > 0 else _negate(row[-d - 1])
                        for row, d in zip(table, ds) if d] for ds in digits], params)


def _lane_sums(lanes, params: CurveParams) -> list:
    """Each lane's sum (None, infinity, if empty) as a tree: a level adds adjacent terms
    of every lane in one `_add_many` (one inversion); an odd last term waits a level."""
    while any(len(terms) > 1 for terms in lanes):
        ps = [p for terms in lanes for p in terms[:-1:2]]
        qs = [q for terms in lanes for q in terms[1::2]]
        sums = iter(_add_many(ps, qs, params))
        lanes = [[next(sums) for _ in terms[1::2]] + (terms[-1:] if len(terms) % 2 else [])
                 for terms in lanes]
    return [terms[0] if terms else None for terms in lanes]


# --- curve registry ---

def _b163() -> CurveParams:
    spec = gf2m.B163
    return CurveParams(
        field=spec,
        a=spec.element(1),
        b=spec.element(0x20A601907B8C953CA1481EB10512F78744A3205FD),
        g=AffinePoint(
            spec.element(0x3F0EBA16286A2D57EA0991168D4994637E8343E36),
            spec.element(0x0D51FBC6C71A0094FA2CDD545B11C5C0C797324F1),
        ),
        order_hint=5846006549323611672814742442876390689256843201587,
    )


def _b233() -> CurveParams:
    spec = gf2m.B233
    return CurveParams(
        field=spec,
        a=spec.element(1),
        b=spec.element(0x066647EDE6C332C7F8C0923BB58213B333B20E9CE4281FE115F7D8F90AD),
        g=AffinePoint(
            spec.element(0x0FAC9DFCBAC8313BB2139F1BB755FEF65BC391F8B36F8F8EB7371FD558B),
            spec.element(0x1006A08A41903350678E58528BEBF8A0BEFF867A7CA36716F7E01F81052),
        ),
        order_hint=6901746346790563787434755862277025555839812737345013555379383634485463,
    )


def _test8() -> CurveParams:
    # small curve over GF(2^8) (AES polynomial), first-class so oracles
    # can run exhaustively; the base point generates the prime-order-137
    # subgroup (found by exhaustive point enumeration, re-verified by the
    # point-counting oracle in the tests)
    spec = FieldSpec(8, 0x11B)
    return CurveParams(
        field=spec,
        a=spec.element(0x20),
        b=spec.element(0x03),
        g=AffinePoint(spec.element(0x8C), spec.element(0xD4)),
        order_hint=137,
    )


# built once: a curve's parameters are constants, and getting one does no field work
_REGISTRY = {"b163": _b163(), "b233": _b233(), "test8": _test8()}

# scalar bit length each curve's identities use by default; chosen so the
# b233 main loop processes 230 bits
NOMINAL_SCALAR_BITS = {"b163": 162, "b233": 232, "test8": 10}

CURVE_IDS = tuple(sorted(_REGISTRY))


def curve_id(name: str) -> str:
    """name, if it names a registered curve."""
    if name not in _REGISTRY:
        raise CurveError(f"unknown curve {name!r}; choose from {CURVE_IDS}")
    return name


def get_curve(name: str) -> CurveParams:
    return _REGISTRY[curve_id(name)]
