"""Shared test oracles, implemented independently of the package's code paths."""

from __future__ import annotations

import itertools
import math
import re
import struct
from collections import deque

import numpy as np

from kpsca import curve, gf2m
from kpsca.attack import BruteForceResult, expand_candidate
from kpsca.curve import (
    AffinePoint,
    CurveError,
    CurveParams,
    Scalar,
    _point_double,
    get_curve,
    is_on_curve,
    kp_point,
    negate,
    point_add,
)
from kpsca.gf2m import FieldSpec
from kpsca.traces import Trace, write_trace


def mul_shift_xor(a: int, b: int, poly: int, m: int) -> int:
    """Independent field-multiplication oracle.

    MSB-first shift-and-XOR with interleaved reduction, one bit of a per
    step: a different route than the package's kernels, which read a's
    hex digits through `bytes.translate` into a 4-bit windowed comb (or,
    to square, a digit-to-byte bit spread) and fold-reduce afterwards.
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


def trace_mask(spec: FieldSpec) -> int:
    """Bitmask of basis monomials x^i with absolute trace 1.

    Tr(e) is then the parity of popcount(e & mask).
    """
    mask = 0
    for i in range(spec.m):
        acc = s = 1 << i
        for _ in range(spec.m - 1):
            s = gf2m.square(spec, s)
            acc ^= s
        if acc == 1:
            mask |= 1 << i
        elif acc != 0:
            raise ArithmeticError("trace of a basis element must be 0 or 1")
    return mask


def rabin_irreducible(spec: FieldSpec) -> bool:
    """Rabin's irreducibility test for the spec's reduction polynomial."""
    m = spec.m
    f = spec.reduction_poly

    def hpow_mod(e: int, k: int) -> int:
        # e^(2^k) mod f via k squarings
        for _ in range(k):
            e = gf2m.square(spec, e)
        return e

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


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# for n < 3.3e24 (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int, bases=_MR_BASES) -> bool:
    """Miller-Rabin to fixed bases: deterministic and reproducible.

    Exact below 3.3e24; above it, n is a strong probable prime to every
    base, which a composite that is not built for these bases fails.
    """
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def count_curve_points(params: CurveParams) -> int:
    """Point-counting oracle for small curves.

    Counts solutions of y^2 + xy = x^3 + a*x^2 + b by the trace
    criterion: for x != 0 there are two points iff
    Tr(x + a + b/x^2) = 0; x = 0 contributes one point, plus infinity.
    Exhaustive over the field, so only sensible for small m.
    """
    spec = params.field
    tmask = trace_mask(spec)
    count = 2  # infinity and the single x = 0 point
    a, b = params.a.value, params.b.value
    for x in range(1, 1 << spec.m):
        c = x ^ a ^ gf2m.mul_classical(spec, b, gf2m.invert(spec, gf2m.square(spec, x)))
        if (c & tmask).bit_count() % 2 == 0:
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


# --- the shipped window tables ---

def shipped_row_count(params: CurveParams) -> int:
    """Rows of signed base-64 digits that every scalar below 2^(m+2) fits in."""
    return len(curve._signed_digits((1 << (params.field.m + 2)) - 1))


def encode_window_rows(rows, params: CurveParams) -> bytes:
    """The shipped table format that `curve._shipped_rows` decodes: every
    point x || y, each coordinate big-endian in ceil(m/8) bytes, rows in
    order and a row's points in column order."""
    n = (params.field.m + 7) // 8
    return b"".join(c.value.to_bytes(n, "big") for row in rows for p in row for c in (p.x, p.y))


def write_shipped_tables() -> None:
    """Rewrite every registered curve's window_<id>.bin from a fresh
    `curve._extend_table` build:

        PYTHONPATH=src:tests python -c "import helpers; helpers.write_shipped_tables()"
    """
    for name in curve.CURVE_IDS:
        params = get_curve(name)
        rows = []
        curve._extend_table(rows, shipped_row_count(params), params.g, params)
        (curve._TABLE_DIR / f"window_{name}.bin").write_bytes(encode_window_rows(rows, params))


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


def reference_flip_search(bits, suspects, points, targets, params):
    """attack._combined_key by the per-subset walk: every subset reached,
    in brute-force order, gets its point by one point_add from its parent's
    and is compared with each target; points are k(bits, 0)*G and the
    suspects' flip deltas, targets the nested pairs of _pair_targets."""
    base, *steps = points
    deltas = [negate(d) if bits[p] & 1 else d for p, d in zip(suspects, steps)]
    pending = deque([((), base)])  # (suspect indices, parent's point)
    while pending:
        subset, point = pending.popleft()
        if subset:
            point = point_add(point, deltas[subset[-1]], params)
        for complement, wanted in enumerate(targets):
            if point in wanted:
                flip = {suspects[i] for i in subset}
                return expand_candidate([b ^ complement ^ (j in flip) for j, b in enumerate(bits)],
                                        wanted.index(point))
        start = subset[-1] + 1 if subset else 0
        pending.extend((subset + (i,), point) for i in range(start, len(suspects)))
    return None


# KPTR fixed header, as the traces module docstring lays it out
KPTR_HEADER = struct.Struct("<4sHIQdQ")

# unusable header values: (KPTR header field, .meta key, value)
_BAD_HEADER = {
    "zero_spc": (2, "samples_per_cycle", 0),
    "negative_offset": (None, "cycle0_offset", -540),  # KPTR stores the offset unsigned
    "nan_clock": (4, "clock_hz", math.nan),
    "negative_clock": (4, "clock_hz", -5.0),
    "empty": (5, "sample_count", 0),
    "count_plus_one": (5, None, 541),  # write_bad_trace writes 540 samples
    "huge_count": (5, None, 2**62),
    "unparsable_spc": (None, "samples_per_cycle", "ten"),
    "unparsable_count": (None, "sample_count", "many"),
}


def write_bad_trace(tmp_path, suffix, problem):
    """A small trace file with one unusable value: metadata, key or sample.

    A good trace is written and then patched: write_trace refuses bad headers.
    """
    path, meta = tmp_path / f"trace{suffix}", tmp_path / "trace.meta"
    write_trace(Trace(np.zeros(540), samples_per_cycle=10, cycle0_offset=0), path)
    field, key, value = _BAD_HEADER.get(problem, (None, None, None))
    if suffix == ".csv" and key:
        meta.write_text(re.sub(rf"(?m)^{key}=.*$", f"{key}={value}", meta.read_text()))
        if problem == "empty":
            path.write_text("")
    elif field is not None:
        raw = path.read_bytes()
        header = list(KPTR_HEADER.unpack_from(raw))
        header[field] = value
        body = b"" if problem == "empty" else raw[KPTR_HEADER.size:]
        path.write_bytes(KPTR_HEADER.pack(*header) + body)
    if problem == "zero_key":
        if suffix == ".csv":
            meta.write_text(meta.read_text() + "ground_truth=0000\n")
        else:
            path.write_bytes(path.read_bytes() + struct.pack("<I", 4) + b"0000")
    if problem == "trailing_bytes":
        path.write_bytes(path.read_bytes() + struct.pack("<I", 2) + b"1f" + bytes(7))
    if problem == "undecodable_meta":
        meta.write_bytes(meta.read_bytes() + b"# \xff\xfe\n")
    if problem == "two_columns":  # 270 lines of two values; no count promised
        values = path.read_text().split()
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(values[::2], values[1::2])))
        meta.write_text(re.sub(r"(?m)^sample_count=.*\n", "", meta.read_text()))
    if problem == "unparsable_sample":
        path.write_text(path.read_text().replace("0\n", "zero\n", 1))
    return path
