"""ECDH challenge-response authentication, the end-to-end demo target.

Alice holds Bob's (pre-trusted) public key Pub_B = [k_B]G.  She draws a
random r, sends R = [r]G, and expects Q_B = [k_B]R back, which must
equal her own Q = [r]Pub_B.  Only the holder of k_B can answer -- or an
attacker who recovered k_B from the side channel of Bob's response
computation, which is exactly what this package demonstrates: the
responder here emits a leakage trace of its kP execution.

Only that response runs the modelled accelerator's ladder
(`kp_multiply` plus its schedule).  Multiples of the base point G --
Pub_B and R -- come from `curve.fixed_base_multiples`, and [r]Pub_B,
whose base varies, from `kp_point`, which halves and adds; neither of
those leaks in the model.

Certificate handling is out of scope; identities are pre-trusted
in-memory fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curve import (
    AffinePoint,
    CurveParams,
    CurveError,
    NOMINAL_SCALAR_BITS,
    Scalar,
    fixed_base_multiples,
    get_curve,
    is_on_curve,
    kp_multiply,
    kp_point,
)
from .leaksim import LeakModel, build_schedule, synthesize_trace
from .traces import Trace


@dataclass(frozen=True)
class Identity:
    """A responder: private scalar, matching public key, curve domain."""

    params: CurveParams
    k: Scalar
    pub: AffinePoint

    @classmethod
    def generate(cls, curve_id: str, rng, nbits: Optional[int] = None) -> "Identity":
        params = get_curve(curve_id)
        if nbits is None:
            nbits = NOMINAL_SCALAR_BITS[curve_id]
        k = Scalar.random(rng, nbits)
        pub, = fixed_base_multiples([k.value], params.g, params)
        if pub.infinity:
            raise CurveError(
                "private key is a multiple of the base point's order (public key at infinity)")
        return cls(params, k, pub)


@dataclass(frozen=True)
class Challenge:
    """Verifier-side state: r stays secret, R goes on the wire."""

    r: Scalar
    R: AffinePoint
    q_expected: AffinePoint


def challenge(
    pub_b: AffinePoint, params: CurveParams, rng, nbits: int
) -> Challenge:
    """Draw r, compute R = [r]G and the expected response [r]Pub_B.

    An r that is a multiple of G's order, so that R is the point at
    infinity, is rejected here rather than by the responder.
    """
    if not is_on_curve(pub_b, params) or pub_b.infinity:
        raise CurveError("public key is not a valid curve point")
    r = Scalar.random(rng, nbits)
    R, = fixed_base_multiples([r.value], params.g, params)
    if R.infinity:
        raise CurveError("challenge scalar r is a multiple of the base point's order (R at infinity)")
    return Challenge(r, R, kp_point(r, pub_b, params))


def respond(
    identity: Identity,
    R: AffinePoint,
    model: LeakModel,
    clock_hz: float = 100e6,
) -> tuple[AffinePoint, Trace]:
    """Compute Q_B = [k_B]R and the leakage trace of that exact execution.

    Off-curve challenge points are rejected (invalid-curve hygiene).
    """
    if R.infinity or not is_on_curve(R, identity.params):
        raise CurveError("challenge point rejected: not on the curve")
    q_b, transcript = kp_multiply(identity.k, R, identity.params)
    trace = synthesize_trace(build_schedule(transcript), model, clock_hz)
    return q_b, trace


def verify(q_expected: AffinePoint, q_b: AffinePoint) -> bool:
    """Authentication passes iff the points match exactly."""
    return q_expected == q_b
