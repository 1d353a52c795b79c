"""The horizontal comparison-to-the-mean attack and key completion.

From a single segmented trace the attack computes the mean slot shape
and, for every sample index j, classifies each slot by comparing its
j-th value against the mean.  Each (sample index, polarity) pair yields
one full key-bit candidate; both polarities are emitted because the
physical sign of the leakage is device-dependent.  The candidates stay
one (L, 2 * slot_len) bit matrix, a column per candidate
(`KeyCandidates`): scoring, verification and the report read columns,
and a `KeyCandidate` object is built only where one is indexed.

With known ground truth a candidate is scored by its relative
correctness (fraction of main-loop bits it gets right); without it,
candidates are verified against the public key.  Residual wrong bits
are brute-forced by flipping suspect positions in increasing
Hamming-weight order.

Verification settles a complement pair of bit strings at once, not one
candidate scalar at a time.  For an L-bit candidate c let
k(c, pb) be its expansion with pre-loop bit pb.  Then
k(c, 1) = k(c, 0) + 2^L, and the complement c' of c has
k(c', pb) = C + pb*2^L - k(c, 0) with C = 2^(L+2) + 2^L - 1.  So the
single point P = k(c, 0)*G settles all four scalars: variant
j = 2*complement + pb, (c, pb) or (c', pb), verifies exactly when P is
target j, pub - pb*A or C*G - pub + pb*A (A = 2^L*G).  Every search
starts from `_setup`: one call of the window table of
`curve.fixed_base_multiples` computes A, C*G and the search's lanes as
the int pairs (x, y) that the group law runs on, and the targets follow;
pub becomes one once it has passed the <G> check.  Flipping bit p adds
+-2^(L-1-p) to every expansion, so brute force gets a flipped subset's
point by one affine addition from its parent's; once the unflipped point
misses, a lookup of the parent's point among the targets minus each flip
delta decides every subset of one or more flips (`_flip_search`, over the
targets of the variants a search names, picked from `_setup`'s list:
pub and pub - A, and with the complement all four).  Verifying a single
candidate is brute force with no suspects.
A pub outside <G> (`curve.in_base_subgroup`) verifies no candidate and
is rejected before any target is derived from it: the affine addition
is meaningful only on the curve and could turn an off-curve pub into
the point at infinity, which kP legitimately equals.

`evaluate` first completes `combined_candidate`, which sums the
sign-aligned, standardized columns of the cycles that the label-free
`separation_scores` ranks highest (the non-profiled clustering of Heyszl
et al., CARDIS 2013): `_complete`, the completion that brute force also
runs, flips its least-margin bits.  G has order n
(`CurveParams.order_hint`), so once any k' verifies, an expansion
verifies iff it is congruent to k' mod n, on every curve: a hit decides
each pair by its lane k(c, 0) mod n against the variants' residues k',
k' - 2^L, C - k' and C - k' + 2^L, with no point.  A miss sets up every
pair, found from the packed columns, as the lanes of one `_setup`.

Welch's two-sample t-test over the '0'-labelled and '1'-labelled slots
is included as the designer-side leakage assessment.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from math import inf
from typing import Optional

import numpy as np

from .curve import (
    AffinePoint,
    CurveError,
    CurveParams,
    Scalar,
    _add_many,
    _fixed_base_pairs,
    _negate,
    _point_add,
    in_base_subgroup,
)


class Polarity(enum.Enum):
    """How a slot reads below the mean; the members are in extraction order."""

    SMALLER_IS_ONE = "smaller_is_one"
    SMALLER_IS_ZERO = "smaller_is_zero"


@dataclass(frozen=True)
class KeyCandidate:
    """One extracted bit string: slot order = key-bit processing order."""

    bits: tuple[int, ...]
    sample_index: int
    polarity: Polarity


def mean_slot(slots: np.ndarray) -> np.ndarray:
    """Column-wise mean of all slots (rows), computed without any key knowledge."""
    if slots.shape[0] < 2:
        raise ValueError("mean slot needs at least 2 slots")
    return slots.mean(axis=0)


_POLARITIES = tuple(Polarity)  # extraction order


def _candidate_bits(slots: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The classification rule: column c is candidate c's bits, as bools.

    Candidates come in extraction order, every sample index j under
    SMALLER_IS_ONE, then every j under SMALLER_IS_ZERO.  Bit i of the
    candidate at index j compares slots[i, j] with mean[j]: under
    SMALLER_IS_ONE a strictly smaller value reads as '1' and ties fall
    into the "not smaller" branch, i.e. '0'; SMALLER_IS_ZERO mirrors
    both rules.
    """
    smaller = slots < mean[np.newaxis, :]
    return np.concatenate([smaller, ~smaller], axis=1)


class KeyCandidates:
    """The candidates of one slot matrix, in extraction order: a read-only
    view of their bit matrix `bits`, (L, 2 * slot_len) bools that cannot be
    written, with a length, int indices and iteration.

    Column c is the candidate at sample index c % slot_len under polarity
    `_POLARITIES[c // slot_len]` (`label`, `column`).  Indexing or iterating
    builds `KeyCandidate`s, with bits as a tuple of ints; nothing else does.
    """

    def __init__(self, bits: np.ndarray):
        bits.flags.writeable = False
        self.bits = bits

    def __len__(self) -> int:
        return self.bits.shape[1]

    def __getitem__(self, index):
        c = range(len(self))[operator.index(index)]  # a negative index counts from the end
        return KeyCandidate(tuple(self.bits[:, c].view(np.uint8).tolist()), *self.label(c))

    def __iter__(self):
        for c, bits in enumerate(self.bits.T.view(np.uint8).tolist()):
            yield KeyCandidate(tuple(bits), *self.label(c))

    def label(self, c: int) -> tuple[int, Polarity]:
        """Column c's (sample index, polarity)."""
        p, j = divmod(c, len(self) // 2)
        return j, _POLARITIES[p]

    def column(self, sample_index: int, polarity: Polarity) -> int:
        """The column of the candidate at (sample index, polarity)."""
        return _POLARITIES.index(polarity) * (len(self) // 2) + sample_index


def extract_candidates(slots: np.ndarray,
                       mean: Optional[np.ndarray] = None) -> KeyCandidates:
    """One candidate per (sample index, polarity): 2 * slot_len in total,
    classified by `_candidate_bits` against the mean slot (computed here
    if not given), as the columns of one bit matrix."""
    if mean is None:
        mean = mean_slot(slots)
    return KeyCandidates(_candidate_bits(slots, mean))


def separation_scores(slots: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Per sample index, how well it splits the slots into two classes; >= 0.

    The classes are those extraction reads: the slots below the mean slot
    (below, bools as `slots < mean_slot(slots)`) and the rest.  The
    score is the gap between the two class means divided by their pooled
    standard deviation; `welch_t` is the labelled analogue.  It needs no
    key knowledge.  A column whose classes differ with no spread scores
    inf.  A constant column, a class of fewer than two slots (a lone
    outlier) or a NaN scores 0, below any column that separates.
    """
    n_below = below.sum(axis=0)
    n_rest = slots.shape[0] - n_below
    with np.errstate(divide="ignore", invalid="ignore"):
        m_below = np.where(below, slots, 0.0).sum(axis=0) / n_below
        m_rest = np.where(below, 0.0, slots).sum(axis=0) / n_rest
        dev = slots - np.where(below, m_below, m_rest)
        spread = np.sqrt((dev * dev).sum(axis=0) / max(slots.shape[0] - 2, 1))
        score = (m_rest - m_below) / spread
    ok = (n_below >= 2) & (n_rest >= 2) & ~np.isnan(score)
    return np.where(ok, score, 0.0)


COMBINED_CYCLES = 5    # best-scored sample indices a combined candidate sums
COMBINED_SUSPECTS = 8  # its least-margin slots that verification flips


def combined_candidate(slots: np.ndarray, mean: np.ndarray,
                       scores: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Bits and margins from the COMBINED_CYCLES best-scored sample indices:
    their columns, standardized against the mean slot (a zero spread divides
    by 1, a NaN counts 0) and sign-aligned with the top one's by correlation,
    summed per slot; '1' where the sum is < 0 (as SMALLER_IS_ONE reads), margin |sum|."""
    top = np.argsort(-scores, kind="stable")[:COMBINED_CYCLES]
    cols = np.nan_to_num(slots[:, top] - mean[top])
    spread = cols.std(axis=0)
    cols /= np.where(spread > 0, spread, 1.0)
    total = cols @ np.where(cols.T @ cols[:, 0] < 0, -1.0, 1.0)
    return tuple((total < 0).astype(int).tolist()), np.abs(total)


def welch_t(slots: np.ndarray, labels) -> np.ndarray:
    """Welch's two-sample t per cycle index between '0'- and '1'-labelled slots.

    Sign convention: t = (mean of the '0' class - mean of the '1'
    class) / sqrt(v0/n0 + v1/n1), with unbiased class variances.  Zero
    variance in both classes gives t = 0 for equal means and a signed
    infinity for unequal ones.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != slots.shape[0]:
        raise ValueError("labels must have one entry per slot")
    g0 = slots[labels == 0]
    g1 = slots[labels == 1]
    if g0.shape[0] < 2 or g1.shape[0] < 2:
        raise ValueError("each label class needs at least 2 slots")
    m0, m1 = g0.mean(axis=0), g1.mean(axis=0)
    v0 = g0.var(axis=0, ddof=1)
    v1 = g1.var(axis=0, ddof=1)
    denom = np.sqrt(v0 / g0.shape[0] + v1 / g1.shape[0])
    diff = m0 - m1
    t = np.zeros(slots.shape[1])
    ok = denom > 0
    t[ok] = diff[ok] / denom[ok]
    degenerate = ~ok & (diff != 0)
    t[degenerate] = np.sign(diff[degenerate]) * inf
    return t


DEFAULT_WELCH_THRESHOLD = 4.5


def expand_candidate(candidate_bits, preloop_bit: int) -> Scalar:
    """Re-attach the implicit MSB '1' and the pre-loop bit to main-loop bits."""
    return Scalar.from_bits((1, preloop_bit) + tuple(candidate_bits))


def _setup(n: int, lanes, pub, params: CurveParams, complement: bool) -> tuple[list, list]:
    """The lanes' points and the targets of variants 0 and 1, or with the
    complement of all four (the module docstring), int pairs, from the one
    fixed-base call: A = 2^n*G, C*G with the complement, then the lanes.
    pub - A takes one inversion, which C*G - pub shares; C*G - pub + A
    takes a second."""
    if not complement:
        a, *points = _fixed_base_pairs([1 << n] + lanes, params)
        return points, [pub, *_add_many([pub], [_negate(a)], params)]
    a, c_g, *points = _fixed_base_pairs([1 << n, (5 << n) - 1] + lanes, params)  # 2^n and C
    firsts = _add_many([pub, c_g], [_negate(a), _negate(pub)], params)
    return points, [pub, *firsts, _point_add(firsts[1], a, params)]


def _verify_all(bits: np.ndarray, pub, params: CurveParams,
                key: Optional[Scalar]) -> tuple[np.ndarray, Optional[Scalar]]:
    """Per column of the (L, 2 * slot_len) candidate bit matrix: does either
    pre-loop expansion of the candidate reproduce pub (an int pair in
    <G>)?  Also the verifying scalar: the first verified column's
    expansion, pre-loop bit 0 first, else key.

    A distinct complement pair of columns, in order of first occurrence,
    is keyed by the packed bytes of its member c that starts with 0; its
    lane k(c, 0) is 2^(L+1) plus those bits read as a number, and its
    members verify by variants pb and 2 + pb.  Given a verifying key, the
    lanes and the variants' targets are residues mod n (the module
    docstring); else `_setup` computes them as points.
    """
    n = bits.shape[0]
    complement = bits[0].tolist()  # the columns that start with 1: their pair's other member
    packed = np.packbits(np.ascontiguousarray((bits ^ bits[0]).T), axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()  # a bytes object per column
    pairs = dict.fromkeys(keys)  # the distinct pairs, in order of first occurrence
    shift = -n % 8  # packbits fills the last byte up with zero bits
    lanes = [(1 << (n + 1)) | int.from_bytes(pair, "big") >> shift for pair in pairs]
    if key is None:
        points, targets = _setup(n, lanes, pub, params, True)
    else:
        order, k, c = params.order_hint, key.value, (5 << n) - 1  # c = C
        points = [lane % order for lane in lanes]
        targets = [t % order for t in (k, k - (1 << n), c - k, c - k + (1 << n))]
    matched = {}  # (pair, member is the complement) -> pre-loop bit of its verifying expansion
    for pair, point in zip(pairs, points):
        for is_complement in (False, True):
            wanted = targets[2 * is_complement:2 * is_complement + 2]
            if point in wanted:
                matched[pair, is_complement] = wanted.index(point)
    verified = np.array([member in matched for member in zip(keys, complement)], dtype=bool)
    if not verified.any():
        return verified, key
    first = int(np.argmax(verified))
    return verified, expand_candidate(bits[:, first].view(np.uint8).tolist(),
                                      matched[keys[first], complement[first]])


@dataclass(frozen=True)
class BruteForceResult:
    key: Optional[Scalar]
    checks: int  # candidate scalars tested, in enumeration order
    budget_exhausted: bool


MAX_SUSPECTS = 24
DEFAULT_BUDGET = 1 << 17  # checks of a brute force when the caller names none


def _flip_search(bits, positions, points, targets, variants, params: CurveParams, budget=inf):
    """The first hit in brute-force order as (the scalar it verifies,
    checks), or None if there is none or the walk reached children all of
    whose checks exceed budget (a hit's checks may exceed it too); points:
    k(bits, 0)*G, then each position's flip delta, and targets: target j
    of variants[j], all int pairs (`_complete` picks them from `_setup`'s).

    Subsets of the positions come by size, then lexicographic, each tried
    against the m targets in order: subset r hits target j, check m*r + j + 1,
    if k(flipped, 0)*G equals it, and then the hit is the expansion that
    variants[j] names (the flipped bits, complemented if it is >= 2, with
    pre-loop bit variants[j] % 2).  The empty subset's point is compared
    directly.  A subset's point is its parent's (without its last index i)
    plus delta_i, and a parent's children are contiguous, so on a miss a
    table of the m*s points T_j - delta_i (one `_add_many`) decides every
    child by a lookup of its parent's point, from the empty parent on.  A
    size's points are computed only once it missed, for the subsets with
    children, as the next size reaches them.
    """
    base, *steps = points
    s, m = len(positions), len(targets)
    deltas = [_negate(d) if bits[p] else d for p, d in zip(positions, steps)]

    def hit(subset, j, rank):
        flip = {positions[i] for i in subset}
        complement, pb = divmod(variants[j], 2)
        flipped = [b ^ complement ^ (p in flip) for p, b in enumerate(bits)]
        return expand_candidate(flipped, pb), m * rank + j + 1

    if base in targets:
        return hit((), targets.index(base), 0)
    diffs = _add_many(targets * s, [_negate(d) for d in deltas for _ in targets], params)
    table = {}
    for n, p in enumerate(diffs):  # n = i*m + j, so each list is in (i, j) order
        table.setdefault(p, []).append(divmod(n, m))
    level, rank = [((), 0, base)], 1  # (parent, its first child's index, point)
    for _ in range(s):  # the parents of sizes 0 .. s-1
        seen = []
        for subset, first, point in level:
            if m * rank >= budget:
                return None
            seen.append((subset, first, point))
            for i, j in table.get(point, ()):
                if i >= first:
                    return hit(subset + (i,), j, rank + i - first)
            rank += s - first
        level = ((sub + (i,), i + 1, _point_add(p, deltas[i], params))
                 for sub, first, p in seen for i in range(first, s - 1))
    return None


def _complete(bits, suspects, pub, params: CurveParams, variants, budget=inf):
    """`_flip_search` of bits' suspects against the variants' targets of
    pub (an int pair in <G>; a j >= 2 needs `_setup`'s complement): its
    (scalar, checks), or None.  The lanes are k(bits, 0) and the flip deltas."""
    lanes = [expand_candidate(bits, 0).value] + [1 << (len(bits) - 1 - p) for p in suspects]
    points, targets = _setup(len(bits), lanes, pub, params, any(j >= 2 for j in variants))
    return _flip_search(bits, suspects, points, [targets[j] for j in variants], variants,
                        params, budget)


def brute_force_complete(
    candidate: KeyCandidate,
    suspect_positions,
    g: AffinePoint,
    pub: AffinePoint,
    params: CurveParams,
    budget: int = DEFAULT_BUDGET,
    preloop_bits=(0, 1),
) -> BruteForceResult:
    """Flip subsets of the suspect positions until some key verifies.

    Subsets are enumerated in increasing Hamming weight (few errors are
    the most plausible), deterministically, so "first found" is well
    defined; within a subset the pre-loop bits, one or two distinct values
    of 0 and 1 (else ValueError), are tried in the given order.  Each (subset,
    pre-loop bit) scalar tested is one check against the budget, however
    it is decided: `_complete` over the variants pb (no complement), whose
    targets are pub and pub - A.
    Flipping all of s suspects with a pinned pre-loop bit costs at most
    2^s checks.  Verification is against params.g: a different g raises
    CurveError.
    """
    if g != params.g:
        raise CurveError("brute force verifies against params.g; g is another point")
    suspects = sorted(set(int(p) for p in suspect_positions))
    nbits = len(candidate.bits)
    if any(p < 0 or p >= nbits for p in suspects):
        raise ValueError("suspect positions outside the candidate")
    if len(suspects) > MAX_SUSPECTS:
        raise ValueError(
            f"{len(suspects)} suspects exceed the configured limit {MAX_SUSPECTS}"
        )
    preloop_bits = tuple(preloop_bits)
    if preloop_bits not in {(0,), (1,), (0, 1), (1, 0)}:
        raise ValueError(f"pre-loop bits must be one or two distinct values of 0 and 1, "
                         f"got {preloop_bits}")
    found = None
    if in_base_subgroup(pub, params):
        found = _complete(candidate.bits, suspects, pub.pair, params, preloop_bits, budget)
    if found is not None and found[1] <= budget:
        return BruteForceResult(*found, False)
    # nothing matched before the search ended or the budget ran out
    total = worst_case_checks(len(suspects), len(preloop_bits))
    if budget >= total:
        return BruteForceResult(None, total, False)
    return BruteForceResult(None, max(budget, 0), True)


def recover_scalar(
    candidate: KeyCandidate,
    g: AffinePoint,
    pub: AffinePoint,
    params: CurveParams,
) -> Optional[Scalar]:
    """The verified full scalar for this candidate, or None: brute force
    with no suspects, whose `_complete` compares k(c, 0)*G with pub and
    pub - A, pre-loop bit 0 first."""
    return brute_force_complete(candidate, (), g, pub, params).key


def worst_case_checks(num_suspects: int, num_preloop: int = 1) -> int:
    """Checks (candidate scalars tested) in a full enumeration."""
    return num_preloop << num_suspects


@dataclass
class AttackReport:
    """Everything the attack produced for one segmented trace.

    The candidates keep their bit matrix (`KeyCandidates.bits`); the
    per-candidate arrays are indexed by its columns.
    """

    candidates: KeyCandidates
    deltas: Optional[np.ndarray] = None           # per candidate, truth known
    best_index: Optional[int] = None
    verified: Optional[np.ndarray] = None         # per candidate, pub supplied
    key: Optional[Scalar] = None                  # the verifying scalar, if any

    @property
    def best_candidate(self) -> Optional[KeyCandidate]:
        return None if self.best_index is None else self.candidates[self.best_index]

    @property
    def best_delta(self) -> Optional[float]:
        if self.deltas is None or self.best_index is None:
            return None
        return float(self.deltas[self.best_index])

    def summary_lines(self) -> list[str]:
        """Human-readable summary mirroring the result-table columns."""
        lines = []
        if self.deltas is not None and self.best_index is not None:
            j, polarity = self.candidates.label(self.best_index)
            lines.append(
                "attack success as highest key correctness (corresponding clock cycle): "
                f"{self.best_delta * 100:.1f}% (cycle {j}, {polarity.value})"
            )
            above = int(np.sum(self.deltas > 0.80))
            lines.append(f"key candidates with a correctness of more than 80%: {above}")
        if self.verified is not None:
            n = int(np.sum(self.verified))
            lines.append(f"candidates verified against the public key: {n}")
        if not lines:
            lines.append("no ground truth and no public key: candidates not scored")
        return lines


def evaluate(
    slots: np.ndarray,
    truth_bits=None,
    pub: Optional[AffinePoint] = None,
    params: Optional[CurveParams] = None,
) -> AttackReport:
    """Run extraction on a (slots, cycles) array and score the candidates by
    truth and/or by verification of pub against params.g: a pub outside <G>
    verifies none; else `_complete` of the combined candidate seeks a
    verifying scalar, and `_verify_all` sets the flags."""
    mean = mean_slot(slots)
    candidates = extract_candidates(slots, mean)
    report = AttackReport(candidates=candidates)
    if truth_bits is not None:
        truth = np.array(tuple(truth_bits))
        if slots.shape[:1] != truth.shape:
            raise ValueError(f"candidate has {slots.shape[0]} bits, truth has {truth.size}")
        wrong = candidates.bits != truth[:, np.newaxis]
        report.deltas = (truth.size - wrong.sum(axis=0)) / truth.size
        report.best_index = int(np.argmax(report.deltas))
    if pub is not None:
        if params is None:
            raise ValueError("verification needs params alongside pub")
        if not in_base_subgroup(pub, params):
            report.verified = np.zeros(len(candidates), dtype=bool)
            return report
        below = candidates.bits[:, :slots.shape[1]]  # SMALLER_IS_ONE reads slots < mean
        bits, margins = combined_candidate(slots, mean, separation_scores(slots, below))
        suspects = sorted(np.argsort(margins, kind="stable")[:COMBINED_SUSPECTS].tolist())
        key, _ = _complete(bits, suspects, pub.pair, params, range(4)) or (None, 0)
        report.verified, report.key = _verify_all(candidates.bits, pub.pair, params, key)
        if report.best_index is None and report.verified.any():
            report.best_index = int(np.argmax(report.verified))
    return report


def report_to_csv(report: AttackReport, path, config_lines=()) -> None:
    """One row per candidate: sample index, polarity, delta, verified flag.

    Row c is column c of the candidates, labelled by `KeyCandidates.label`.
    Rows end in CRLF, as a csv writer's do.
    """
    count = len(report.candidates)
    labels = map(report.candidates.label, range(count))
    deltas = ([""] * count if report.deltas is None
              else [f"{d:.6f}" for d in report.deltas.tolist()])
    flags = ([""] * count if report.verified is None
             else ["yes" if v else "no" for v in report.verified.tolist()])
    comments = [f"# {line}\n" for line in (*config_lines, *report.summary_lines())]
    rows = [f"{j},{polarity.value},{delta},{flag}\r\n"
            for (j, polarity), delta, flag in zip(labels, deltas, flags)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(comments + ["sample_index,polarity,delta,verified\r\n"] + rows))
