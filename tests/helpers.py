"""Shared test oracles, implemented independently of the package's code paths."""

from __future__ import annotations

import itertools

import numpy as np

from kpsca import gf2m
from kpsca.attack import BruteForceResult, expand_candidate
from kpsca.curve import AffinePoint, CurveParams, kp_point
from kpsca.gf2m import FieldSpec


def mul_shift_xor(a: int, b: int, poly: int, m: int) -> int:
    """Independent field-multiplication oracle.

    MSB-first shift-and-XOR with interleaved reduction: a different
    route than the package's windowed comb + fold reduction.
    """
    msb = 1 << m
    p = 0
    for i in range(a.bit_length() - 1, -1, -1):
        p <<= 1
        if (a >> i) & 1:
            p ^= b
        if p & msb:
            p ^= poly
    return p


def count_curve_points(params: CurveParams) -> int:
    """Point-counting oracle for small curves.

    Counts solutions of y^2 + xy = x^3 + a*x^2 + b by the trace
    criterion: for x != 0 there are two points iff
    Tr(x + a + b/x^2) = 0; x = 0 contributes one point, plus infinity.
    Exhaustive over the field, so only sensible for small m.
    """
    spec = params.field
    tmask = gf2m.trace_mask(spec)
    count = 2  # infinity and the single x = 0 point
    for xv in range(1, 1 << spec.m):
        x = spec.element(xv)
        c = gf2m.add(
            gf2m.add(x, params.a),
            gf2m.mul_classical(params.b, gf2m.invert(gf2m.square(x))),
        )
        if (c.value & tmask).bit_count() % 2 == 0:
            count += 2
    return count


def make_test16_curve() -> CurveParams:
    """GF(2^16) curve whose base point has large prime order 32993.

    Large enough that scalars below 2^14 cannot collide modulo the
    subgroup order, which makes brute-force tests exact.  Constants were
    produced by the same enumeration count_curve_points implements; the
    fixture re-verifies [n]G = infinity.
    """
    spec = FieldSpec(16, (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1)
    return CurveParams(
        field=spec,
        a=spec.element(0x800),
        b=spec.element(0x1),
        g=AffinePoint(spec.element(0xC01B), spec.element(0x1F2D)),
        order_hint=32993,
    )


def flip_bits(bits, positions):
    out = list(bits)
    for p in positions:
        out[p] ^= 1
    return tuple(out)


# --- reference verification: one full ladder per candidate scalar ---

def reference_recover_scalar(candidate, g, pub, params, preloop_bits=(0, 1)):
    """recover_scalar by brute recomputation: kP for every expansion, in order."""
    for pb in preloop_bits:
        k = expand_candidate(candidate.bits, pb)
        if kp_point(k, g, params) == pub:
            return k
    return None


def reference_verified(candidates, g, pub, params) -> np.ndarray:
    """evaluate()'s verified flags, one reference_recover_scalar per candidate."""
    return np.array(
        [reference_recover_scalar(c, g, pub, params) is not None for c in candidates],
        dtype=bool,
    )


def reference_brute_force(candidate, suspect_positions, g, pub, params,
                          budget=1 << 17, preloop_bits=(0, 1)) -> BruteForceResult:
    """brute_force_complete by brute recomputation: one kP per tested scalar."""
    suspects = sorted(set(int(p) for p in suspect_positions))
    checks = 0
    base = list(candidate.bits)
    for weight in range(len(suspects) + 1):
        for combo in itertools.combinations(suspects, weight):
            bits = base.copy()
            for p in combo:
                bits[p] ^= 1
            for pb in preloop_bits:
                if checks >= budget:
                    return BruteForceResult(None, checks, True)
                checks += 1
                k = expand_candidate(bits, pb)
                if kp_point(k, g, params) == pub:
                    return BruteForceResult(k, checks, False)
    return BruteForceResult(None, checks, False)
