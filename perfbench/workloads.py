"""The kpsca benchmark workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop over a pool of inputs made from the
seed, sized so that one pass takes somewhat longer than the run's
seconds at the nominal op cost.  `make_pool` is the set-up work; `run_op` performs one op, checks
its output and returns whether the planted key was recovered and
verified.  A failed output check raises `CheckFailed`.

Why these three:

* auth_b233 -- the paper's theft end to end (`kpsca auth-demo`):
  challenge, leaky response, single-trace attack, replay.  Half the time
  is schedule building, half is B-233 kPs; the attack stops at the first
  candidate that verifies, so verification does little work.
* attack_b233 -- `kpsca attack --pub` on one stored trace: verification
  of all 108 candidates dominates (about 216 B-233 kPs).  The noise
  level sets how much work candidates share (4 distinct bit strings at
  sigma 0, about 100 at 0.5, none verifying at 1.0), so deduplication or
  early exit shows on part of the sweep and not on the rest.
* bruteforce_test16 -- key completion on a 16-bit field: the same kP
  code, but dominated by per-call Python overhead instead of wide-integer
  arithmetic.  Neither leaksim nor traces runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Layer functions are looked up on their modules at call time, so the
# traced run records the set-up's calls too.
from kpsca import attack, cli, curve, leaksim, traces
from kpsca.curve import AffinePoint, CurveParams, Scalar
from kpsca.gf2m import FieldSpec

B233_SCALAR_BITS = 232
B233_SLOTS = B233_SCALAR_BITS - 2
SLOT_CYCLES = 54
SAMPLES_PER_CYCLE = 10


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def paper_cycles(scalar_bits: int, m: int) -> int:
    """Total kP cycles by the paper's arithmetic: init, pre-loop, main loop, epilogue."""
    return 8 + SLOT_CYCLES + SLOT_CYCLES * (scalar_bits - 2) + (2 * m - 2)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _run_cli(argv) -> list[str]:
    """Call the CLI in-process; return its stdout lines, failing on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    _check(rc == 0, f"kpsca {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue().splitlines()


def _sized(seconds: int, nominal_op_s: float, rotation: int) -> int:
    """Pool size that fills `seconds` at the nominal op cost, in whole rotations."""
    return rotation * max(1, math.ceil(seconds / (nominal_op_s * rotation)))


# --- auth_b233 -----------------------------------------------------------

@dataclass(frozen=True)
class AuthItem:
    seed: int
    sigma: float
    key_hex: str  # the scalar auth-demo plants for this seed


def matching_candidates(slots: np.ndarray, main_bits) -> tuple[bool, ...]:
    """Which of the 108 candidates carry exactly the planted main-loop bits.

    Comparison to the mean, re-derived from the slot matrix: each slot
    value against its column mean.  Candidates are listed as the report
    lists them: every sample index reading 'smaller is one', then every
    index reading 'smaller is zero'.
    """
    smaller = slots < slots.mean(axis=0)[np.newaxis, :]
    truth = np.asarray(main_bits, dtype=bool)[:, np.newaxis]
    return tuple(bool(v) for v in np.concatenate([(smaller == truth).all(axis=0),
                                                   (smaller != truth).all(axis=0)]))


def slot_matrix(samples: np.ndarray, cycle0: int) -> np.ndarray:
    """Per-cycle means of the 230 main-loop slots, from the first main-loop cycle."""
    cycles = samples.reshape(-1, SAMPLES_PER_CYCLE).mean(axis=1)
    return cycles[cycle0:cycle0 + B233_SLOTS * SLOT_CYCLES].reshape(B233_SLOTS, SLOT_CYCLES)


def auth_first_hit(seed: int, sigma: float, key: Scalar) -> int | None:
    """Report-order rank of the first candidate auth-demo can verify, or None.

    Rebuilds the main-loop slots of auth-demo's trace for this seed from
    its default leakage model: baseline 10, address weight 1, no data
    term, per-sample noise from numpy's default_rng(seed).
    """
    profile = {b: leaksim.slot_addr_profile(b) for b in (0, 1)}
    power = 10.0 + np.stack([profile[b] for b in key.main_loop_bits])
    cycle0 = 8 + SLOT_CYCLES
    total = paper_cycles(B233_SCALAR_BITS, 233) * SAMPLES_PER_CYCLE
    lo = cycle0 * SAMPLES_PER_CYCLE
    noise = np.random.default_rng(seed).normal(0.0, sigma, total)[lo:lo + power.size * SAMPLES_PER_CYCLE]
    samples = np.repeat(power.ravel(), SAMPLES_PER_CYCLE) + noise
    hits = [i for i, m in enumerate(matching_candidates(slot_matrix(samples, 0), key.main_loop_bits)) if m]
    return hits[0] + 1 if hits else None


class AuthB233:
    name = "auth_b233"
    sigmas = (0.0, 0.5)
    nominal_op_s = 0.7
    trace_stride = 1
    # Share of sigma-0.5 traces whose first candidate in report order has a
    # wrong bit (measured over 2000 seeds: 20%).  Such an op tries about 47
    # candidates before one verifies and costs about six ordinary ops, so
    # each pool holds this share exactly instead of a random number of them.
    late_share = 0.2

    def params(self, seconds: int) -> dict:
        return {"curve": "b233", "scalar_bits": B233_SCALAR_BITS, "noise_sigmas": self.sigmas,
                "late_share": self.late_share,
                "ops_per_pass": _sized(seconds, self.nominal_op_s, len(self.sigmas))}

    def make_pool(self, seed: int, seconds: int, workdir: Path) -> list[AuthItem]:
        rng = random.Random(f"auth_b233/{seed}")
        n = _sized(seconds, self.nominal_op_s, len(self.sigmas)) // len(self.sigmas)
        late_quota = round(self.late_share * n)
        quota = {False: n - late_quota, True: late_quota}
        pool = {sigma: [] for sigma in self.sigmas}
        while any(len(items) < n for items in pool.values()):
            s = rng.getrandbits(31)
            # auth-demo draws the responder's scalar first from random.Random(seed)
            key = Scalar.random(random.Random(s), B233_SCALAR_BITS)
            sigma = self.sigmas[sum(map(len, pool.values())) % len(self.sigmas)]
            if sigma:
                late = auth_first_hit(s, sigma, key) != 1
                if not quota[late]:
                    continue
                quota[late] -= 1
            pool[sigma].append(AuthItem(s, sigma, key.to_hex()))
        return [item for group in zip(*pool.values()) for item in group]

    def run_op(self, item: AuthItem, workdir: Path) -> bool:
        lines = _run_cli(["auth-demo", "--curve", "b233", "--seed", str(item.seed),
                          "--noise-sigma", str(item.sigma)])
        _check(lines[:1] == ["honest authentication: ok"], f"auth-demo printed {lines[:1]}")
        if lines[1:2] == ["key recovered: no"]:
            _check(len(lines) == 2, f"auth-demo printed {lines} after a failed recovery")
            return False
        _check(lines[1:] == [
            "key recovered: yes",
            f"recovered scalar: {item.key_hex}",
            "replayed response verifies: yes",
            "identity stolen: attacker answers challenges as Bob",
        ], f"auth-demo printed {lines}, planted key {item.key_hex}")
        return True


# --- attack_b233 ---------------------------------------------------------

@dataclass(frozen=True)
class AttackItem:
    trace_path: str
    pub_hex: str
    sigma: float
    expected_verified: tuple[bool, ...]  # per candidate, in report order


class AttackB233:
    name = "attack_b233"
    sigmas = (0.0, 0.5, 1.0)
    nominal_op_s = 10.0
    trace_stride = 1

    def params(self, seconds: int) -> dict:
        return {"curve": "b233", "scalar_bits": B233_SCALAR_BITS, "num_slots": B233_SLOTS,
                "noise_sigmas": self.sigmas, "samples_per_cycle": SAMPLES_PER_CYCLE,
                "ops_per_pass": _sized(seconds, self.nominal_op_s, len(self.sigmas))}

    def make_pool(self, seed: int, seconds: int, workdir: Path) -> list[AttackItem]:
        rng = random.Random(f"attack_b233/{seed}")
        params = curve.get_curve("b233")
        pool = []
        for i in range(_sized(seconds, self.nominal_op_s, len(self.sigmas))):
            sigma = self.sigmas[i % len(self.sigmas)]
            k = Scalar.random(rng, B233_SCALAR_BITS)
            p = curve.kp_point(Scalar.random(rng, B233_SCALAR_BITS), params.g, params)
            _, transcript = curve.kp_multiply(k, p, params)
            schedule = leaksim.build_schedule(transcript)
            want = paper_cycles(B233_SCALAR_BITS, params.field.m)
            _check(schedule.total_cycles == want,
                   f"schedule has {schedule.total_cycles} cycles, the paper's arithmetic gives {want}")
            model = leaksim.LeakModel(noise_sigma=sigma, samples_per_cycle=SAMPLES_PER_CYCLE,
                                      rng_seed=rng.getrandbits(32))
            trace = leaksim.synthesize_trace(schedule, model)
            path = workdir / f"trace{i}.kptr"
            traces.write_trace(trace, path, include_ground_truth=False)
            pool.append(AttackItem(
                str(path), curve.kp_point(k, params.g, params).to_hex(), sigma,
                matching_candidates(slot_matrix(trace.samples, schedule.cycle0), k.main_loop_bits),
            ))
        return pool

    def run_op(self, item: AttackItem, workdir: Path) -> bool:
        out = workdir / "attack_out"
        lines = _run_cli(["attack", item.trace_path, "--pub", item.pub_hex,
                          "--num-slots", str(B233_SLOTS), "--out", str(out)])
        report = out / "report.csv"
        with report.open(newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        order = [(str(j), pol) for pol in ("smaller_is_one", "smaller_is_zero")
                 for j in range(SLOT_CYCLES)]
        _check([(r["sample_index"], r["polarity"]) for r in rows] == order,
               "report rows are not the 108 candidates in order")
        flags = tuple(r["verified"] == "yes" for r in rows)
        _check(all(r["verified"] in ("yes", "no") for r in rows), "report lacks verified flags")
        _check(flags == item.expected_verified,
               "verified flags differ from 'candidate bits equal the planted main-loop bits'")
        n = sum(flags)
        _check(lines == [
            f"candidates verified against the public key: {n}",
            f"verified: {'yes' if n else 'no'}",
            f"report written to {report}",
        ], f"attack printed {lines}")
        return n > 0


# --- bruteforce_test16 ---------------------------------------------------

def make_test16_curve() -> CurveParams:
    """GF(2^16) curve whose base point has prime order 32993 (as in the test suite).

    Scalars below 2^14 cannot collide modulo the order, so the first
    key that verifies is the planted one.
    """
    spec = FieldSpec(16, (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1)
    return CurveParams(
        field=spec,
        a=spec.element(0x800),
        b=spec.element(0x1),
        g=AffinePoint(spec.element(0xC01B), spec.element(0x1F2D)),
        order_hint=32993,
    )


@dataclass(frozen=True)
class BruteItem:
    key: int
    candidate_bits: tuple[int, ...]
    pub: AffinePoint
    expected_checks: int


class BruteforceTest16:
    name = "bruteforce_test16"
    key_bits = 14
    num_suspects = 12  # every main-loop bit of a 14-bit key
    num_errors = 3
    nominal_op_s = 0.2
    trace_stride = 4  # about 70k spans per op; a quarter of the stratified pool

    def __init__(self):
        self.curve = make_test16_curve()

    def params(self, seconds: int) -> dict:
        return {"curve": "test16", "key_bits": self.key_bits, "suspects": self.num_suspects,
                "planted_errors": self.num_errors, "preloop_bits": [0, 1],
                "ops_per_pass": _sized(seconds, self.nominal_op_s, 1)}

    def make_pool(self, seed: int, seconds: int, workdir: Path) -> list[BruteItem]:
        rng = random.Random(f"bruteforce_test16/{seed}")
        suspects = range(self.num_suspects)
        # documented enumeration order: increasing Hamming weight, then lexicographic
        order = [c for w in range(self.num_suspects + 1)
                 for c in itertools.combinations(suspects, w)]
        rank_of = {c: r for r, c in enumerate(order)}
        planted = list(itertools.combinations(suspects, self.num_errors))
        n = _sized(seconds, self.nominal_op_s, 1)
        pool = []
        for i in range(n):
            k = Scalar.random(rng, self.key_bits)
            # stratified over the planted-error subsets, so every pool spans the
            # whole range of search lengths and its median cost is steady
            errors = planted[int((i + rng.random()) * len(planted) / n)]
            bits = list(k.main_loop_bits)
            for p in errors:
                bits[p] ^= 1
            # both pre-loop hypotheses are tried per subset, 0 first
            checks = 2 * rank_of[errors] + 1 + k.bits[1]
            pool.append(BruteItem(k.value, tuple(bits),
                                  curve.kp_point(k, self.curve.g, self.curve), checks))
        # Spread cheap and dear ops evenly over the run (golden-ratio order),
        # so that no stretch of machine slowness falls on the ops around the
        # median alone.  The cheapest stays first: it is the warm-up op.
        return [pool[i] for i in sorted(range(n), key=lambda i: i * 0.6180339887 % 1.0)]

    def run_op(self, item: BruteItem, workdir: Path) -> bool:
        cand = attack.KeyCandidate(item.candidate_bits, 0, attack.Polarity.SMALLER_IS_ONE)
        result = attack.brute_force_complete(cand, range(self.num_suspects),
                                             self.curve.g, item.pub, self.curve)
        _check(result.key is not None and result.key.value == item.key,
               f"brute force found {result.key}, planted {item.key:#x}")
        _check(result.checks == item.expected_checks and not result.budget_exhausted,
               f"brute force took {result.checks} checks, expected {item.expected_checks}")
        return True


WORKLOADS = {w.name: w for w in (AuthB233, AttackB233, BruteforceTest16)}
