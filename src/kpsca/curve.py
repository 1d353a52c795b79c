"""Binary elliptic curves and Montgomery kP multiplication.

Curves have the short Weierstrass form for characteristic 2,
y^2 + xy = x^3 + a*x^2 + b, with b != 0.  The production route is the
x-coordinate-only Montgomery ladder in Lopez-Dahab projective
coordinates.  The affine group law (`point_add`, textbook formulas,
code disjoint from the ladder) serves two purposes: an independent
double-and-add oracle built on it cross-checks the ladder, and the
attack uses it to verify key candidates by point additions instead of
one ladder per candidate scalar.

The ladder follows the modelled accelerator's bit convention: the
register initialisation already encodes the most significant scalar
bit, the second-most-significant bit is processed in a dedicated
pre-loop step, and the remaining l-2 bits run in the main loop.  The
register state before each step, plus the final state, forms the
transcript that the leakage simulator expands into a clock-cycle
schedule.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from . import gf2m
from .gf2m import FieldElement, FieldSpec


class CurveError(ValueError):
    """Invalid curve input: off-curve point, degenerate coordinate, bad scalar."""


@dataclass(frozen=True)
class Scalar:
    """Positive scalar; its bit vector is MSB-first with the top bit 1."""

    value: int

    def __post_init__(self):
        if self.value < 1:
            raise CurveError("scalar must be >= 1")

    @property
    def bit_length(self) -> int:
        return self.value.bit_length()

    @property
    def bits(self) -> tuple[int, ...]:
        """MSB-first bit vector (leading bit is always 1)."""
        l = self.value.bit_length()
        return tuple((self.value >> (l - 1 - i)) & 1 for i in range(l))

    @property
    def main_loop_bits(self) -> tuple[int, ...]:
        """The l-2 bits processed in the ladder main loop (attack's target)."""
        return self.bits[2:]

    @classmethod
    def from_bits(cls, bits) -> "Scalar":
        bits = tuple(bits)
        if not bits or bits[0] != 1:
            raise CurveError("scalar bit vector must be MSB-first with leading 1")
        v = 0
        for b in bits:
            v = (v << 1) | (b & 1)
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


@dataclass(frozen=True)
class AffinePoint:
    x: Optional[FieldElement] = None
    y: Optional[FieldElement] = None
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "AffinePoint":
        return cls(None, None, True)

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
    order_hint: Optional[int] = None  # order of g; consumed by tests only

    def __post_init__(self):
        if self.b.value == 0:
            raise CurveError("curve coefficient b must be nonzero")
        if not is_on_curve(self.g, self):
            raise CurveError("base point does not satisfy the curve equation")


def is_on_curve(p: AffinePoint, params: CurveParams) -> bool:
    if p.infinity:
        return True
    x, y = p.x, p.y
    lhs = gf2m.add(gf2m.square(y), gf2m.mul_classical(x, y))
    x2 = gf2m.square(x)
    rhs = gf2m.add(
        gf2m.add(gf2m.mul_classical(x2, x), gf2m.mul_classical(params.a, x2)),
        params.b,
    )
    return lhs == rhs


def negate(p: AffinePoint) -> AffinePoint:
    """-(x, y) = (x, x + y) on binary curves."""
    if p.infinity:
        return p
    return AffinePoint(p.x, gf2m.add(p.x, p.y))


@dataclass(frozen=True)
class LadderState:
    """Projective ladder registers: X1/Z1 hold [m]P, X2/Z2 hold [m+1]P."""

    X1: FieldElement
    Z1: FieldElement
    X2: FieldElement
    Z2: FieldElement

    def swapped(self) -> "LadderState":
        return LadderState(self.X2, self.Z2, self.X1, self.Z1)


@dataclass(frozen=True)
class LadderTranscript:
    """One kP execution and the ladder states it passed through.

    states[i] is the register state before the step for scalar.bits[i + 1]
    (step 0 is the pre-loop step); states[-1] is the final state.
    """

    params: CurveParams
    scalar: Scalar
    point: AffinePoint
    states: tuple[LadderState, ...]
    result: Optional[AffinePoint]


def ladder_init(p: AffinePoint, params: CurveParams) -> LadderState:
    """Register initialisation: (X1, Z1, X2, Z2) <- (x, 1, x^4 + b, x^2)."""
    _check_ladder_input(p, params)
    return _init_state(p, params)


def _init_state(p: AffinePoint, params: CurveParams) -> LadderState:
    spec = params.field
    x = p.x
    x2 = gf2m.square(x)
    x4 = gf2m.square(x2)
    return LadderState(x, spec.one(), gf2m.add(x4, params.b), x2)


# every intermediate of one ladder step, named as in leaksim's slot layout
StepValues = namedtuple("StepValues", "M1 M2 M3 M4 M5 M6 S1 S2 S3 S4 S5 A1 A2 A3")


def _step_roles(
    Xa: FieldElement, Za: FieldElement, Xb: FieldElement, Zb: FieldElement,
    x: FieldElement, b: FieldElement,
) -> StepValues:
    """One ladder step with (Xa, Za) as the add-updated pair and (Xb, Zb) doubled.

    6 multiplications, 5 squarings, 3 additions -- the schedule the
    hardware model realises in 54 clock cycles.
    """
    m1 = gf2m.mul_classical(Xa, Zb)
    m2 = gf2m.mul_classical(Xb, Za)          # Za, routed through T in hardware
    a1 = gf2m.add(m1, m2)
    s1 = gf2m.square(a1)                     # new Za
    m3 = gf2m.mul_classical(m1, m2)
    m4 = gf2m.mul_classical(x, s1)
    a2 = gf2m.add(m4, m3)                    # new Xa
    s2 = gf2m.square(Xb)
    s3 = gf2m.square(s2)
    s4 = gf2m.square(Zb)
    s5 = gf2m.square(s4)
    m5 = gf2m.mul_classical(b, s5)
    a3 = gf2m.add(s3, m5)                    # new Xb = Xb^4 + b*Zb^4
    m6 = gf2m.mul_classical(s2, s4)          # new Zb = Xb^2 * Zb^2
    return StepValues(m1, m2, m3, m4, m5, m6, s1, s2, s3, s4, s5, a1, a2, a3)


def ladder_step_values(
    state: LadderState, k_i: int, x: FieldElement, b: FieldElement
) -> tuple[LadderState, StepValues]:
    """One key-bit iteration: the next state and every intermediate.

    The two branches are exact register-role mirrors.
    """
    if k_i:
        v = _step_roles(state.X1, state.Z1, state.X2, state.Z2, x, b)
        return LadderState(v.A2, v.S1, v.A3, v.M6), v
    v = _step_roles(state.X2, state.Z2, state.X1, state.Z1, x, b)
    return LadderState(v.A3, v.M6, v.A2, v.S1), v


def ladder_step(state: LadderState, k_i: int, x: FieldElement, b: FieldElement) -> LadderState:
    """One key-bit iteration; a state with both Z registers zero is rejected."""
    if state.Z1.value == 0 and state.Z2.value == 0:
        raise CurveError("both Z registers are zero; ladder state is degenerate")
    return ladder_step_values(state, k_i, x, b)[0]


def ladder_finalize(state: LadderState, p: AffinePoint) -> AffinePoint:
    """Convert the final projective state back to affine kP.

    Z1 = 0 means the result is the point at infinity; Z2 = 0 means the
    neighbour point [k+1]P is at infinity, so kP = -P.
    """
    x, y = p.x, p.y
    if state.Z1.value == 0:
        return AffinePoint.at_infinity()
    if state.Z2.value == 0:
        return AffinePoint(x, gf2m.add(x, y))
    # single inversion of x*Z1*Z2 serves both coordinates
    xz1 = gf2m.mul_classical(x, state.Z1)
    xz2 = gf2m.mul_classical(x, state.Z2)
    denom = gf2m.mul_classical(xz1, state.Z2)
    inv = gf2m.invert(denom)
    xl = gf2m.mul_classical(gf2m.mul_classical(state.X1, xz2), inv)
    u = gf2m.mul_classical(gf2m.add(state.X1, xz1), gf2m.add(state.X2, xz2))
    v = gf2m.mul_classical(
        gf2m.add(gf2m.square(x), y), gf2m.mul_classical(state.Z1, state.Z2)
    )
    yl = gf2m.add(
        y, gf2m.mul_classical(gf2m.add(x, xl), gf2m.mul_classical(gf2m.add(u, v), inv))
    )
    return AffinePoint(xl, yl)


def _check_ladder_input(p: AffinePoint, params: CurveParams) -> None:
    if p.infinity:
        raise CurveError("cannot run the ladder on the point at infinity")
    if not is_on_curve(p, params):
        raise CurveError("input point is not on the curve")
    if p.x.value == 0:
        raise CurveError("x = 0 is degenerate: Z2 would be zero from the start")


def _ladder_states(bits, p: AffinePoint, params: CurveParams) -> list[LadderState]:
    """Ladder on checked input: state before each step, plus the final state."""
    state = _init_state(p, params)
    states = [state]
    for k_i in bits[1:]:
        state = ladder_step(state, k_i, p.x, params.b)
        states.append(state)
    return states


def kp_multiply(k: Scalar, p: AffinePoint, params: CurveParams) -> tuple[AffinePoint, LadderTranscript]:
    """Full kP with an execution transcript for the leakage simulator.

    k is processed as-is: it is never reduced modulo the group order,
    which is the caller's responsibility if a canonical representative
    is wanted.  [k]P is still correct for oversized k.
    """
    _check_ladder_input(p, params)
    states = tuple(_ladder_states(k.bits, p, params))
    result = ladder_finalize(states[-1], p)
    if not is_on_curve(result, params):
        raise CurveError("ladder produced an off-curve point")
    return result, LadderTranscript(params, k, p, states, result)


def kp_point(k: Scalar, p: AffinePoint, params: CurveParams) -> AffinePoint:
    """kP without transcript recording (hot path for verification loops)."""
    _check_ladder_input(p, params)
    return ladder_finalize(_ladder_states(k.bits, p, params)[-1], p)


# --- affine group law (textbook formulas) ---

def point_add(p: AffinePoint, q: AffinePoint, params: CurveParams) -> AffinePoint:
    """p + q for points on the curve, in affine coordinates.

    Off-curve inputs give meaningless results (the equal-x branch may
    even return the point at infinity); callers check the curve first.
    """
    if p.infinity:
        return q
    if q.infinity:
        return p
    if p.x == q.x:
        if gf2m.add(p.y, q.y) == p.x or (p.y != q.y):
            # q = -p  (covers the doubling-of-2-torsion case x = 0 too)
            return AffinePoint.at_infinity()
        return _point_double(p, params)
    lam = gf2m.mul_classical(
        gf2m.add(p.y, q.y), gf2m.invert(gf2m.add(p.x, q.x))
    )
    x3 = gf2m.add(
        gf2m.add(gf2m.add(gf2m.square(lam), lam), gf2m.add(p.x, q.x)), params.a
    )
    y3 = gf2m.add(
        gf2m.add(gf2m.mul_classical(lam, gf2m.add(p.x, x3)), x3), p.y
    )
    return AffinePoint(x3, y3)


def _point_double(p: AffinePoint, params: CurveParams) -> AffinePoint:
    if p.infinity:
        return p
    if p.x.value == 0:
        # 2-torsion point (0, sqrt(b))
        return AffinePoint.at_infinity()
    lam = gf2m.add(p.x, gf2m.mul_classical(p.y, gf2m.invert(p.x)))
    x3 = gf2m.add(gf2m.add(gf2m.square(lam), lam), params.a)
    y3 = gf2m.add(
        gf2m.square(p.x),
        gf2m.mul_classical(gf2m.add(lam, params.field.one()), x3),
    )
    return AffinePoint(x3, y3)


# --- independent double-and-add oracle ---

def oracle_double_and_add(k: Scalar, p: AffinePoint, params: CurveParams) -> AffinePoint:
    """Verification oracle: plain MSB-first double-and-add in affine coordinates."""
    if p.infinity:
        raise CurveError("cannot multiply the point at infinity")
    if not is_on_curve(p, params):
        raise CurveError("input point is not on the curve")
    acc = p
    for bit in k.bits[1:]:
        acc = _point_double(acc, params)
        if bit:
            acc = point_add(acc, p, params)
    return acc


# --- curve registry ---

def _b163() -> CurveParams:
    spec = gf2m.B163
    return CurveParams(
        field=spec,
        a=spec.one(),
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
        a=spec.one(),
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


_REGISTRY = {"b163": _b163, "b233": _b233, "test8": _test8}

# scalar bit length each curve's identities use by default; chosen so the
# b233 main loop processes 230 bits
NOMINAL_SCALAR_BITS = {"b163": 162, "b233": 232, "test8": 10}

CURVE_IDS = tuple(sorted(_REGISTRY))


def get_curve(name: str) -> CurveParams:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise CurveError(f"unknown curve {name!r}; choose from {CURVE_IDS}") from None
