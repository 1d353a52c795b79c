"""Clock-cycle schedule and leakage synthesis for the kP accelerator model.

The modelled design processes one key bit of the ladder main loop in a
54-cycle *slot*: 6 field multiplications (11 cycles each: 2 operand
loads overlapped with the preceding multiplication plus 9 partial
products of the 4-segment Karatsuba decomposition), 5 squarings, 3
additions and 11 register operations.  The partial-product unit is
busy in every cycle of every slot.

The exact cycle-by-cycle placement below is this model's canonical
layout -- the real netlist's placement is not public -- and is fixed so
the attack geometry stays reproducible.  Which register an operation
addresses depends on the processed key bit (the two branches of the
ladder swap the 1<->2 register roles, as `curve.roles` rules); that
address dependence is the leakage channel the horizontal attack exploits.

Leakage model: per-cycle power =

    baseline + addr_weight * sum(address weights of touched registers)
             + data_weight * sum(Hamming weights of moved/produced data)

optionally with per-sample Gaussian noise.  The per-cycle mean of the
synthesized samples equals the modelled cycle power.  A schedule is
what decides the leak: the key, the input point and the curve.  The
address sum follows from the key bits alone.  The data sum reads the
schedule's own ladder run, so the ladder runs only when a model with a
nonzero data weight renders it.  The geometry (slot count, first
main-loop cycle, epilogue and total length) is derived from the scalar,
the field degree and the cycle constants below.

Slot layout (cycle: operations; register roles written for k_i = 1, the
k_i = 0 slot swaps X1<->X2 and Z1<->Z2):

    cycle  multiplier              add/square unit   register file
    0      load X1 (M1), partial
    1      load Z2 (M1), partial
    2      partial                                   read  Z1  (T <- Z1)
    3      partial                                   write T
    4      partial                                   read  Z2
    5      partial                  S4 = Z2^2
    6      partial                  S5 = S4^2
    7      load X2 (M2), partial
    8      load T  (M2), partial
    9-10   partial (M2)
    11     partial                                   read  X2  (T <- X2)
    12     partial                                   write T
    13     partial                                   read  T
    14     partial                  S2 = T^2
    15     partial                  S3 = S2^2
    16     load M1 (M3), partial
    17     load M2 (M3), partial
    18     partial (M3)             A1 = M1 + M2
    19     partial                  S1 = A1^2
    20     partial                                   write Z1  (Z1 <- S1)
    21-24  partial
    25     load S2 (M6), partial
    26     load S4 (M6), partial
    27-33  partial (M6)
    34     load x  (M4), partial
    35     load Z1 (M4), partial
    36     partial (M4)                              read  bus (M6 result)
    37     partial                                   write Z2  (Z2 <- M6)
    38-42  partial
    43     load b  (M5), partial
    44     load S5 (M5), partial
    45     partial (M5)             A2 = M4 + M3
    46     partial                                   write X1  (X1 <- A2)
    47-52  partial
    53     partial                  A3 = S3 + M5     write X2  (X2 <- A3)

with M1 = X1*Z2, M2 = X2*T (T holding the old Z1), M3 = M1*M2,
M4 = x*Z1', M5 = b*Z2^4, M6 = T^2*Z2^2 (T holding the old X2).  The
first multiplication's operands are physically latched during the last
two cycles of the previous slot; they are attributed to cycles 0-1 of
the consuming slot so every slot's operations are a pure function of
its own key bit.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2m
from .curve import ROLES, AffinePoint, CurveParams, LadderState, LadderTranscript, Scalar, StepValues
from .curve import _check_ladder_input, kp_multiply, roles
from .traces import SegmentationError, Trace


class OpKind(enum.Enum):
    MUL_LOAD = "MUL_LOAD"
    SQUARE = "SQUARE"
    ADD = "ADD"
    REG_READ = "REG_READ"
    REG_WRITE = "REG_WRITE"


class Reg(enum.Enum):
    X1 = "X1"
    Z1 = "Z1"
    X2 = "X2"
    Z2 = "Z2"
    T = "T"
    BUS = "BUS"


# leakage per addressed register: Hamming weight of its address code.
# X2's code differs in weight from X1's; the Z pair and T are balanced,
# the bus and parameter latches contribute nothing.
REGISTER_ADDR_WEIGHT = {
    Reg.X1: 1.0,
    Reg.Z1: 1.0,
    Reg.X2: 2.0,
    Reg.Z2: 1.0,
    Reg.T: 1.0,
    Reg.BUS: 0.0,
}

SLOT_CYCLES = 54
INIT_CYCLES = 8

# bump when the canonical placement below changes; trace sidecars carry
# it so recorded fixtures stay comparable
SLOT_LAYOUT_VERSION = 1


def epilogue_cycles(m: int) -> int:
    """Cycles for the affine back-conversion: one EEA inversion, ~2 per degree."""
    return 2 * m - 2


def slot_count(cycles: int, cycle0: int, m: int) -> int:
    """The main-loop slots of a run `cycles` long from `cycle0` on GF(2^m)."""
    loop = cycles - cycle0 - epilogue_cycles(m)
    if loop % SLOT_CYCLES or loop < SLOT_CYCLES:
        raise SegmentationError(f"{cycles} cycles from cycle {cycle0} hold {loop}/{SLOT_CYCLES} "
                                f"slots on GF(2^{m}), not a whole number >= 1")
    return loop // SLOT_CYCLES


# (cycle, kind, role, value key); roles Xa/Za = pair updated by the
# addition part, Xb/Zb = pair being doubled (Xa = X1 when k_i = 1)
_SLOT_TABLE = (
    (0, OpKind.MUL_LOAD, "Xa", "Xa"),
    (1, OpKind.MUL_LOAD, "Zb", "Zb"),
    (2, OpKind.REG_READ, "Za", "Za"),
    (3, OpKind.REG_WRITE, "T", "Za"),
    (4, OpKind.REG_READ, "Zb", "Zb"),
    (5, OpKind.SQUARE, "BUS", "S4"),
    (6, OpKind.SQUARE, "BUS", "S5"),
    (7, OpKind.MUL_LOAD, "Xb", "Xb"),
    (8, OpKind.MUL_LOAD, "T", "Za"),
    (11, OpKind.REG_READ, "Xb", "Xb"),
    (12, OpKind.REG_WRITE, "T", "Xb"),
    (13, OpKind.REG_READ, "T", "Xb"),
    (14, OpKind.SQUARE, "BUS", "S2"),
    (15, OpKind.SQUARE, "BUS", "S3"),
    (16, OpKind.MUL_LOAD, "BUS", "M1"),
    (17, OpKind.MUL_LOAD, "BUS", "M2"),
    (18, OpKind.ADD, "BUS", "A1"),
    (19, OpKind.SQUARE, "BUS", "S1"),
    (20, OpKind.REG_WRITE, "Za", "S1"),
    (25, OpKind.MUL_LOAD, "BUS", "S2"),
    (26, OpKind.MUL_LOAD, "BUS", "S4"),
    (34, OpKind.MUL_LOAD, "BUS", "x"),
    (35, OpKind.MUL_LOAD, "Za", "S1"),
    (36, OpKind.REG_READ, "BUS", "M6"),
    (37, OpKind.REG_WRITE, "Zb", "M6"),
    (43, OpKind.MUL_LOAD, "BUS", "b"),
    (44, OpKind.MUL_LOAD, "BUS", "S5"),
    (45, OpKind.ADD, "BUS", "A2"),
    (46, OpKind.REG_WRITE, "Xa", "A2"),
    (53, OpKind.ADD, "BUS", "A3"),
    (53, OpKind.REG_WRITE, "Xb", "A3"),
)

# multiplication occupying each 9-cycle partial-product window, in order;
# its operands are the values of its two MUL_LOAD rows
_MUL_WINDOWS = ("M1", "M2", "M3", "M6", "M4", "M5")
_LOADS = [key for _c, kind, _role, key in _SLOT_TABLE if kind is OpKind.MUL_LOAD]
_MUL_OPERANDS = dict(zip(_MUL_WINDOWS, zip(_LOADS[::2], _LOADS[1::2])))

_KINDS = Counter(kind for _c, kind, _role, _key in _SLOT_TABLE)
_SLOT_OP_COUNTS = {
    "MUL": len(_MUL_WINDOWS),
    "SQUARE": _KINDS[OpKind.SQUARE],
    "ADD": _KINDS[OpKind.ADD],
    "REG": _KINDS[OpKind.REG_READ] + _KINDS[OpKind.REG_WRITE],
    "PARTIAL": 9 * len(_MUL_WINDOWS),
}

# the register each role addresses for either bit: the leakage channel
_ROLE_BY_BIT = {
    bit: dict(zip(ROLES, roles(bit, (Reg.X1, Reg.Z1, Reg.X2, Reg.Z2))), T=Reg.T, BUS=Reg.BUS)
    for bit in (0, 1)
}

# operations outside the slots: (in epilogue?, cycle, register, value key).
# Init writes x and 1, squares x twice (cycles 2 and 4), adds b (5) and
# writes x^2 and x^4 + b; cycle 7 idles.  The epilogue reads the four
# registers, inverts (idle here) and emits the result's x and y in its
# last two cycles; negative cycles count from its end.
_FRAME_TABLE = (
    (False, 0, Reg.X1, "x"),
    (False, 1, Reg.Z1, "one"),
    (False, 2, Reg.BUS, "x2"),
    (False, 3, Reg.Z2, "x2"),
    (False, 4, Reg.BUS, "x4"),
    (False, 5, Reg.BUS, "x4b"),
    (False, 6, Reg.X2, "x4b"),
    (True, 0, Reg.X1, "X1"),
    (True, 1, Reg.Z1, "Z1"),
    (True, 2, Reg.X2, "X2"),
    (True, 3, Reg.Z2, "Z2"),
    (True, -2, Reg.BUS, "rx"),
    (True, -1, Reg.BUS, "ry"),
)


def _table_values(state: LadderState, bit: int, step: StepValues, x, b) -> dict:
    """Every value the table rows of a slot processing `bit` from `state` name."""
    values = step._asdict()
    values.update(zip(ROLES, roles(bit, state)), x=x, b=b)
    return values


def _frame_rows(total: int, epi: int):
    """(absolute cycle, register, value key) of every init/epilogue row."""
    for in_epilogue, c, reg, key in _FRAME_TABLE:
        yield (total - epi + c % epi if in_epilogue else c), reg, key


@dataclass(eq=False)
class Schedule:
    """One execution's per-cycle leakage sums and the geometry the attack
    needs, from the key, input point and curve that decide them: `addr`
    sums the address weights of the registers touched, `data_hw` the
    Hamming weights of the data that its own ladder run moves or produces."""

    scalar: Scalar
    point: AffinePoint = field(repr=False)
    params: CurveParams = field(repr=False)

    def __post_init__(self):
        _check_ladder_input(self.point, self.params)

    @property
    def m(self) -> int:
        return self.params.field.m

    @property
    def bits(self) -> tuple[int, ...]:
        """Processed bit per slot, pre-loop slot first."""
        return self.scalar.bits[1:]

    @property
    def has_preloop(self) -> bool:
        return bool(self.bits)

    @property
    def num_slots(self) -> int:
        """Main-loop slots: every processed bit but the pre-loop one."""
        return max(len(self.bits) - 1, 0)

    @property
    def epilogue_len(self) -> int:
        return epilogue_cycles(self.m)

    @property
    def per_slot_ops(self) -> dict:
        """Operations of each kind in one slot; empty when no slot runs."""
        return dict(_SLOT_OP_COUNTS) if self.bits else {}

    @property
    def cycle0(self) -> int:
        """Cycle index where the first main-loop slot begins."""
        return INIT_CYCLES + (SLOT_CYCLES if self.has_preloop else 0)

    @property
    def total_cycles(self) -> int:
        return self.cycle0 + self.main_cycles + self.epilogue_len

    @property
    def main_cycles(self) -> int:
        return self.num_slots * SLOT_CYCLES

    @cached_property
    def addr(self) -> np.ndarray:
        total, epi = self.total_cycles, self.epilogue_len
        addr = np.zeros(total)
        for cycle, reg, _key in _frame_rows(total, epi):
            addr[cycle] += REGISTER_ADDR_WEIGHT[reg]
        profiles = np.stack([slot_addr_profile(0), slot_addr_profile(1)])
        addr[INIT_CYCLES : total - epi] = profiles[np.asarray(self.bits, dtype=np.intp)].ravel()
        return addr

    @cached_property
    def data_hw(self) -> np.ndarray:
        tr = kp_multiply(self.scalar, self.point, self.params)[1]
        f, x, b = self.params.field, self.point.x.value, self.params.b.value
        init, final, result = tr.states[0], tr.states[-1], tr.result
        frame = {
            "x": x, "one": 1, "x2": init.Z2, "x4": init.X2 ^ b, "x4b": init.X2,
            "X1": final.X1, "Z1": final.Z1, "X2": final.X2, "Z2": final.Z2,
            "rx": 0 if result.infinity else result.x.value,
            "ry": 0 if result.infinity else result.y.value,
        }
        hw = np.zeros(self.total_cycles, dtype=np.int64)
        for cycle, _reg, key in _frame_rows(self.total_cycles, self.epilogue_len):
            hw[cycle] += frame[key].bit_count()
        base = INIT_CYCLES
        for state, bit, step in zip(tr.states, self.bits, tr.steps):
            values = _table_values(state, bit, step, x, b)
            # one partial product per cycle, window by window
            slot = [
                p.bit_count()
                for u, v in _MUL_OPERANDS.values()
                for p in gf2m.karatsuba4_partials(f, values[u], values[v])[1]
            ]
            for c, _kind, _role, key in _SLOT_TABLE:
                slot[c] += values[key].bit_count()
            hw[base : base + SLOT_CYCLES] = slot
            base += SLOT_CYCLES
        return hw


def build_schedule(transcript: LadderTranscript) -> Schedule:
    """The schedule of a transcript's key, point and curve; its recorded
    states and step values are not read."""
    return Schedule(transcript.scalar, transcript.point, transcript.params)


def slot_addr_profile(bit: int) -> np.ndarray:
    """Address-weight contribution per cycle of a slot processing `bit`."""
    prof = np.zeros(SLOT_CYCLES)
    regmap = _ROLE_BY_BIT[bit]
    for c, kind, role, _key in _SLOT_TABLE:
        prof[c] += REGISTER_ADDR_WEIGHT[regmap[role]]
    return prof


@dataclass(frozen=True)
class LeakModel:
    """Linear power model: baseline + address term + data term + noise,
    sampled samples_per_cycle times a cycle of a clock_hz clock."""

    addr_weight: float = 1.0
    data_weight: float = 0.0
    baseline: float = 10.0
    noise_sigma: float = 0.0
    samples_per_cycle: int = 10
    rng_seed: int = 0
    clock_hz: float = 100e6

    def __post_init__(self):
        for name in ("addr_weight", "data_weight", "baseline", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.samples_per_cycle < 1:
            raise ValueError("samples_per_cycle must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")
        if not (math.isfinite(self.clock_hz) and self.clock_hz > 0):
            raise ValueError(f"clock_hz must be a positive finite number, got {self.clock_hz}")


def cycle_power(schedule: Schedule, model: LeakModel) -> np.ndarray:
    """Noiseless per-cycle power values for the whole execution."""
    power = model.baseline + model.addr_weight * schedule.addr
    if model.data_weight:
        power = power + model.data_weight * schedule.data_hw
    return power


def synthesize_trace(schedule: Schedule, model: LeakModel):
    """Render the schedule into a sampled trace.

    Deterministic for a given rng_seed.  Each cycle contributes
    samples_per_cycle samples whose mean is the modelled cycle power.
    """
    if schedule.total_cycles * model.samples_per_cycle > np.iinfo(np.intp).max:
        raise ValueError(f"{schedule.total_cycles} cycles x {model.samples_per_cycle} samples "
                         "per cycle is more samples than an array can index")
    power = cycle_power(schedule, model)  # after the check, as an overflow here would warn first
    if model.noise_sigma > 0:
        rng = np.random.default_rng(model.rng_seed)
        samples = rng.normal(0.0, model.noise_sigma, power.shape[0] * model.samples_per_cycle)
        grid = samples.reshape(power.shape[0], model.samples_per_cycle)
        grid += power[:, None]  # same bits as power + noise: IEEE addition commutes
    else:
        samples = np.repeat(power, model.samples_per_cycle)
    return Trace(
        samples=samples,
        samples_per_cycle=model.samples_per_cycle,
        cycle0_offset=schedule.cycle0 * model.samples_per_cycle,
        clock_hz=model.clock_hz,
        ground_truth=schedule.scalar,
    )
