"""ECDH challenge-response authentication, the end-to-end demo target.

Alice holds Bob's (pre-trusted) public key Pub_B = [k_B]G.  She draws a
random r, sends R = [r]G, and expects Q_B = [k_B]R back, which must
equal her own Q = [r]Pub_B.  Only the holder of k_B can answer -- or an
attacker who recovered k_B from the side channel of Bob's response
computation, which is exactly what this package demonstrates: the
responder here emits a leakage trace of its kP execution.

Only that response leaks: its trace renders the `leaksim.Schedule` of
k_B and R, which runs the accelerator's ladder only for a data term.
Pub_B and R, multiples of G, come from `curve.fixed_base_multiples`, and
[r]Pub_B and [k_B]R from `kp_point`, which halves and adds and refuses a
point outside <G>, whose answer would carry k mod 2 in its 2-torsion part.

Certificate handling is out of scope; identities are pre-trusted
in-memory fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import (
    AffinePoint,
    CurveParams,
    CurveError,
    Scalar,
    fixed_base_multiples,
    get_curve,
    in_base_subgroup,
    kp_point,
)
from .leaksim import LeakModel, Schedule, synthesize_trace
from .traces import Trace


@dataclass(frozen=True)
class Identity:
    """A responder: private scalar, matching public key, curve domain."""

    params: CurveParams
    k: Scalar
    pub: AffinePoint

    @classmethod
    def generate(cls, curve_id: str, rng, nbits: int) -> "Identity":
        params = get_curve(curve_id)
        k = Scalar.random(rng, nbits)
        pub, = fixed_base_multiples([k.value], params)
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


def challenge(pub_b: AffinePoint, params: CurveParams, rng, nbits: int) -> Challenge:
    """Draw r, compute R = [r]G and the expected response [r]Pub_B.

    An r that is a multiple of G's order, so that R is the point at
    infinity, is rejected here rather than by the responder.
    """
    if pub_b.infinity or not in_base_subgroup(pub_b, params):
        raise CurveError("public key is not a point of <G> other than infinity")
    r = Scalar.random(rng, nbits)
    R, = fixed_base_multiples([r.value], params)
    if R.infinity:
        raise CurveError("challenge scalar r is a multiple of the base point's order (R at infinity)")
    return Challenge(r, R, kp_point(r, pub_b, params))


def respond(identity: Identity, R: AffinePoint, model: LeakModel) -> tuple[AffinePoint, Trace]:
    """Compute Q_B = [k_B]R and the leakage trace of the accelerator computing it.

    Q_B comes first: an R that `kp_point` refuses (infinity, off the curve or
    outside <G>) raises `CurveError` before any trace is rendered.
    """
    q_b = kp_point(identity.k, R, identity.params)
    return q_b, synthesize_trace(Schedule(identity.k, R, identity.params), model)


def verify(q_expected: AffinePoint, q_b: AffinePoint) -> bool:
    """Authentication passes iff the points match exactly."""
    return q_expected == q_b
