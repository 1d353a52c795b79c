"""Shared test oracles, implemented independently of the package's code paths."""

from __future__ import annotations

import itertools
import math
import re
import struct
from collections import deque

import numpy as np

from kpsca import curve, gf2m
from kpsca.attack import BruteForceResult, KeyCandidate, expand_candidate
from kpsca.curve import (
    AffinePoint,
    CurveError,
    CurveParams,
    LadderState,
    Scalar,
    StepValues,
    get_curve,
    is_on_curve,
    kp_point,
    negate,
)
from kpsca.gf2m import FieldSpec
from kpsca.leaksim import slot_addr_profile
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


def differing_cycles() -> tuple[int, ...]:
    """Slot-relative cycle indices whose address leakage depends on the key bit."""
    d = slot_addr_profile(1) - slot_addr_profile(0)
    return tuple(int(i) for i in np.nonzero(d)[0])


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


def reference_halving_tables(f: FieldSpec) -> tuple:
    """gf2m._halving_tables with its echelon walk and its solver images over
    every row or bit, not only over the set bits, its square roots by
    repeated squaring, its halving rows entry by entry, and no cache."""
    rows = {}
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
    # halving rows: sqrt(x^j) by m - 1 squarings, its root the sum of the
    # preimages over every bit of it, and each byte value's entry summed bit by bit
    packed = []
    for j in range(8 * ((f.m + 7) >> 3)):
        s = f.reduce(1 << j)
        for _ in range(f.m - 1):
            s = gf2m.square(f, s)
        z = 0
        for bit in range(f.m):
            if s >> bit & 1:
                z ^= rows.get(bit, (0, 0))[1]
        packed.append(s | z << f.m)
    halves = []
    for r in range(0, len(packed), 8):
        halves.append([0] * 256)
        for v in range(256):
            for i in range(8):
                if v >> i & 1:
                    halves[-1][v] ^= packed[r + i]
    return tmask, halves


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


def two_torsion(params: CurveParams) -> AffinePoint:
    """T2 = (0, sqrt(b)), the curve's point of order 2, with sqrt(b) = b^(2^(m-1))
    by squaring: on the curve, but outside <G>, and x = 0 is rejected as a base point."""
    f, r = params.field, params.b.value
    for _ in range(f.m - 1):
        r = gf2m.square(f, r)
    return AffinePoint(f.element(0), f.element(r))


# --- independent affine group law and double-and-add oracle ---

def point_add(p: AffinePoint, q: AffinePoint, params: CurveParams) -> AffinePoint:
    """p + q by the textbook affine formulas, apart from the package's pair law.

    The slope is the chord's (y1 + y2)/(x1 + x2), or for p = q the
    tangent's x1 + y1/x1; then x3 = l^2 + l + x1 + x2 + a and
    y3 = l*(x1 + x3) + x3 + y1.  Equal x with unequal y is q = -p on the
    curve, and (0, y) is its own negative: both sum to infinity.
    """
    if p.infinity or q.infinity:
        return q if p.infinity else p
    f, ((x1, y1), (x2, y2)) = params.field, (p.pair, q.pair)
    if x1 == x2 and (y1 != y2 or x1 == 0):
        return AffinePoint.at_infinity()
    if x1 == x2:
        lam = x1 ^ gf2m.mul_classical(f, y1, gf2m.invert(f, x1))
    else:
        lam = gf2m.mul_classical(f, y1 ^ y2, gf2m.invert(f, x1 ^ x2))
    x3 = gf2m.square(f, lam) ^ lam ^ x1 ^ x2 ^ params.a.value
    return AffinePoint.from_pair(f, (x3, gf2m.mul_classical(f, lam, x1 ^ x3) ^ x3 ^ y1))


def oracle_double_and_add(k: Scalar, p: AffinePoint, params: CurveParams) -> AffinePoint:
    """Verification oracle: plain MSB-first double-and-add in affine coordinates."""
    if p.infinity:
        raise CurveError("cannot multiply the point at infinity")
    if not is_on_curve(p, params):
        raise CurveError("input point is not on the curve")
    acc = p
    for bit in k.bits[1:]:
        acc = point_add(acc, acc, params)
        if bit:
            acc = point_add(acc, p, params)
    return acc


# --- the ladder-step oracle ---

def step_relations_hold(f: FieldSpec, state: LadderState, k_i: int, v: StepValues) -> bool:
    """Whether the step values v for k_i from `state` keep its 3 sums and 5 squares."""
    _, _, Xb, Zb = curve.roles(k_i, state)
    squares = [gf2m.square(f, a) for a in (v.A1, Xb, v.S2, Zb, v.S4)]
    return (v.A1 == v.M1 ^ v.M2 and v.A2 == v.M4 ^ v.M3 and v.A3 == v.S3 ^ v.M5
            and squares == [v.S1, v.S2, v.S3, v.S4, v.S5])


# --- the shipped window tables ---

def shipped_row_count(params: CurveParams) -> int:
    """Rows of signed base-256 digits that every scalar below 2^t fits in, t the
    bit length of n = order_hint, so every scalar below n: 2, 21 and 30 for
    test8, B-163 and B-233."""
    return len(curve._signed_digits((1 << params.order_hint.bit_length()) - 1))


def encode_window_rows(rows, params: CurveParams) -> bytes:
    """The shipped table format that `curve._shipped_rows` decodes: every
    int pair's x || y, each coordinate big-endian in ceil(m/8) bytes, rows
    in order and a row's points in column order."""
    n = (params.field.m + 7) // 8
    return b"".join(c.to_bytes(n, "big") for row in rows for p in row for c in p)


def write_shipped_tables() -> None:
    """Rewrite every registered curve's window_<id>.bin from a fresh
    `curve._build_rows` build:

        PYTHONPATH=src:tests python -c "import helpers; helpers.write_shipped_tables()"
    """
    for name in curve.CURVE_IDS:
        params = get_curve(name)
        rows = curve._build_rows(params, shipped_row_count(params))
        (curve._TABLE_DIR / f"window_{name}.bin").write_bytes(encode_window_rows(rows, params))


# --- per-candidate scoring: what evaluate()'s deltas compute for all at once ---

def correctness(candidate: KeyCandidate, truth_bits) -> tuple[float, list[int]]:
    """Relative correctness: matching-bit fraction plus the mismatch positions."""
    truth = tuple(truth_bits)
    if len(truth) != len(candidate.bits):
        raise ValueError(
            f"candidate has {len(candidate.bits)} bits, truth has {len(truth)}"
        )
    wrong = [i for i, (c, t) in enumerate(zip(candidate.bits, truth)) if c != t]
    delta = (len(truth) - len(wrong)) / len(truth)
    return delta, wrong


def complement(candidate: KeyCandidate) -> KeyCandidate:
    """The candidate with every bit flipped, read at the same sample index."""
    return KeyCandidate(tuple(1 - b for b in candidate.bits),
                        candidate.sample_index, candidate.polarity)


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
    """The scalar of attack._flip_search over all four variants, by the
    per-subset walk: every subset reached, in brute-force order, gets its
    point by one point_add from its parent's and is compared with each
    target; points are k(bits, 0)*G and the suspects' flip deltas, targets
    the four of attack._setup, target j = 2*complement + pb, all as int
    pairs."""
    points = [AffinePoint.from_pair(params.field, p) for p in points]
    targets = [[AffinePoint.from_pair(params.field, p) for p in targets[s:s + 2]]
               for s in (0, 2)]
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
    write_trace(Trace(np.zeros(540), samples_per_cycle=10, cycle0_offset=0, clock_hz=100e6), path)
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
    if problem == "dangling_block":  # too short for a block's length word
        path.write_bytes(path.read_bytes() + bytes(2))
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

