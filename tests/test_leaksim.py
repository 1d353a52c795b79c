import dataclasses
import functools
import random
from collections import Counter

import numpy as np
import pytest

from kpsca import curve, gf2m, leaksim
from kpsca.curve import NOMINAL_SCALAR_BITS, ROLES, AffinePoint, CurveError
from kpsca.curve import Scalar, fixed_base_multiples, get_curve, kp_multiply
from kpsca.leaksim import (
    INIT_CYCLES,
    LeakModel,
    Reg,
    REGISTER_ADDR_WEIGHT,
    SLOT_CYCLES,
    Schedule,
    build_schedule,
    cycle_power,
    epilogue_cycles,
    slot_addr_profile,
    slot_count,
    synthesize_trace,
)
from kpsca.leaksim import _MUL_OPERANDS, _MUL_WINDOWS, _ROLE_BY_BIT, _SLOT_TABLE, _table_values
from kpsca.traces import SegmentationError

from helpers import differing_cycles


class TestScheduleStructure:
    def test_slot_op_counts(self, b233_run):
        _, _, _, _, schedule = b233_run
        assert schedule.per_slot_ops == {
            "MUL": 6, "SQUARE": 5, "ADD": 3, "REG": 11, "PARTIAL": 54,
        }

    def test_every_slot_cycle_has_a_partial(self):
        # six multiplication windows of 9 Karatsuba partials, one per cycle
        assert sorted(_MUL_WINDOWS) == ["M1", "M2", "M3", "M4", "M5", "M6"]
        covered = Counter(9 * w + j for w in range(len(_MUL_WINDOWS)) for j in range(9))
        assert covered == Counter(range(SLOT_CYCLES))

    def test_main_loop_geometry_232(self, b233_run):
        _, k, _, _, schedule = b233_run
        assert k.bit_length == 232
        assert schedule.num_slots == 230
        assert schedule.main_cycles == 230 * 54 == 12420
        assert schedule.cycle0 == INIT_CYCLES + SLOT_CYCLES

    def test_total_cycles_233_bits(self, b233):
        rng = random.Random(1)
        k = Scalar.random(rng, 233)
        _, transcript = kp_multiply(k, b233.g, b233)
        schedule = build_schedule(transcript)
        assert schedule.total_cycles < 14000
        assert schedule.total_cycles == 13000
        assert schedule.total_cycles / 100e6 == pytest.approx(0.13e-3)

    def test_equal_bits_give_identical_slots(self, b233_run):
        _, _, _, _, schedule = b233_run
        assert set(schedule.bits) == {0, 1}
        lo = INIT_CYCLES
        for i, bit in enumerate(schedule.bits):
            span = schedule.addr[lo + i * SLOT_CYCLES : lo + (i + 1) * SLOT_CYCLES]
            assert np.array_equal(span, slot_addr_profile(bit))

    def test_differing_bits_swap_register_roles(self):
        swap = {Reg.X1: Reg.X2, Reg.X2: Reg.X1, Reg.Z1: Reg.Z2, Reg.Z2: Reg.Z1,
                Reg.T: Reg.T, Reg.BUS: Reg.BUS}
        for _c, _kind, role, _key in _SLOT_TABLE:
            assert _ROLE_BY_BIT[0][role] == swap[_ROLE_BY_BIT[1][role]]

    def test_address_map_and_value_map_agree(self, test8, b233_run):
        # in every slot, each role's value is the register its address names
        _, small = kp_multiply(Scalar(0b1011011), test8.g, test8)
        for transcript in (small, b233_run[3]):
            bits = transcript.scalar.bits[1:]
            assert set(bits) == {0, 1}
            for state, bit, step in zip(transcript.states, bits, transcript.steps):
                values = _table_values(state, bit, step, 0, 0)
                for role in ROLES:
                    assert values[role] == getattr(state, _ROLE_BY_BIT[bit][role].name)

    def test_bit_context_bookkeeping(self, b233_run):
        _, k, _, _, schedule = b233_run
        assert schedule.bits == (k.bits[1],) + k.main_loop_bits

    def test_mul_operands_match_step_algebra(self, b233_run):
        params, _, _, transcript, schedule = b233_run
        assert list(_MUL_OPERANDS) == list(_MUL_WINDOWS)
        for state, bit, step in list(zip(transcript.states, schedule.bits, transcript.steps))[:4]:
            values = _table_values(state, bit, step, transcript.point.x.value, params.b.value)
            for name, (a, b) in _MUL_OPERANDS.items():
                product, _ = gf2m.karatsuba4_partials(params.field, values[a], values[b])
                assert product == values[name]

    def test_epilogue_length_formula(self):
        assert epilogue_cycles(233) == 464
        assert epilogue_cycles(163) == 324

    @pytest.mark.parametrize("m, poly", [(2, 0b111), (3, 0b1011), (4, 0b10011), (5, 0b100101)])
    def test_no_curve_below_degree_6(self, m, poly):
        # CurveParams refuses every order on these fields, so every curve's
        # epilogue is 2m - 2 >= 10 cycles, room for its six frame rows
        f = gf2m.FieldSpec(m, poly)
        one = f.element(1)
        sq, mul = functools.partial(gf2m.square, f), functools.partial(gf2m.mul_classical, f)
        # a point of y^2 + xy = x^3 + x^2 + 1
        x, y = next((x, y) for x in range(1, 1 << m) for y in range(1 << m)
                    if sq(y) ^ mul(x, y) == mul(sq(x), x) ^ sq(x) ^ 1)
        g = AffinePoint(f.element(x), f.element(y))
        for n in range(1, 4 << m):
            with pytest.raises(CurveError, match="order_hint"):
                curve.CurveParams(f, one, one, g, n)

    # recorded values that disagree with the ladder: one flipped bit in a
    # recorded value (transcript field, index, value name; index 1 is the
    # first main-loop step and the state before it), or a record cut short,
    # padded or emptied.  Every flip lands on a value some cycle leaks.
    TAMPERS = {
        "state0": ("states", 0, "X2"),
        "state1": ("states", 1, "X1"),
        "step1_A1": ("steps", 1, "A1"),
        "step1_M1": ("steps", 1, "M1"),
        "step1_S2": ("steps", 1, "S2"),
        "step1_M6": ("steps", 1, "M6"),
    }
    RESIZES = {
        "states_short": {"states": lambda r: r[:-1]},
        "states_long": {"states": lambda r: r + r[-1:]},
        "steps_short": {"steps": lambda r: r[:-1]},
        "steps_long": {"steps": lambda r: r + r[-1:]},
        "empty": {"states": lambda r: (), "steps": lambda r: (), "result": lambda r: None},
    }

    @pytest.mark.parametrize("case", sorted(TAMPERS) + sorted(RESIZES))
    def test_reads_no_recorded_value(self, test8, case):
        k = Scalar(0b1011011)
        _, transcript = kp_multiply(k, test8.g, test8)
        if case in self.TAMPERS:
            target, i, name = self.TAMPERS[case]
            flip = lambda r: r[:i] + (r[i]._replace(**{name: getattr(r[i], name) ^ 1}),) + r[i + 1:]
            edits = {target: flip}
        else:
            edits = self.RESIZES[case]
        bad = dataclasses.replace(transcript, **{f: e(getattr(transcript, f)) for f, e in edits.items()})
        assert bad != transcript
        built, own = build_schedule(bad), Schedule(k, test8.g, test8)
        assert np.array_equal(built.addr, own.addr)
        assert np.array_equal(built.data_hw, own.data_hw)
        for name in ("cycle0", "num_slots", "epilogue_len", "total_cycles"):
            assert getattr(built, name) == getattr(own, name), name

    def test_checks_steps_without_rerunning_them(self, test8, monkeypatch):
        # building from a transcript runs no ladder step; the data sum runs one ladder
        _, transcript = kp_multiply(Scalar(0b1011011), test8.g, test8)
        steps, ladders = [], []
        step_roles, ladder = curve._step_roles, leaksim.kp_multiply
        monkeypatch.setattr(curve, "_step_roles", lambda *a: steps.append(a) or step_roles(*a))
        monkeypatch.setattr(leaksim, "kp_multiply", lambda *a: ladders.append(a) or ladder(*a))
        schedule = build_schedule(transcript)
        schedule.addr
        assert steps == [] and ladders == []
        schedule.data_hw
        assert len(steps) == len(transcript.steps)
        assert ladders == [(transcript.scalar, transcript.point, transcript.params)]

    def test_stats_slot_count(self, b233_run):
        _, _, _, _, schedule = b233_run
        assert schedule.num_slots == 230
        assert schedule.has_preloop and schedule.cycle0 - INIT_CYCLES == 54
        assert schedule.total_cycles == schedule.addr.shape[0] == (
            INIT_CYCLES + 54 + schedule.main_cycles + schedule.epilogue_len
        )


class TestSlotCount:
    """The slot count that a run's length implies on a curve: the schedule's own
    count on the curve that ran it, and no whole count on any other, because
    the epilogues differ by 310, 450 and 140 cycles, no multiple of 54."""

    def test_solves_the_schedule_geometry(self):
        curves = [get_curve(name) for name in curve.CURVE_IDS]
        for nbits in range(3, 4097):
            k = Scalar(1 << nbits - 1)
            for params in curves:
                s = Schedule(k, params.g, params)
                cycles, cycle0 = s.total_cycles, s.cycle0
                assert slot_count(cycles, cycle0, s.m) == s.num_slots == nbits - 2
                for other in curves:
                    if other is not params:
                        with pytest.raises(SegmentationError):
                            slot_count(cycles, cycle0, other.field.m)

    @pytest.mark.parametrize("nbits", [1, 2])
    def test_a_run_without_main_loop_slots_is_refused(self, test8, nbits):
        s = Schedule(Scalar(1 << nbits - 1), test8.g, test8)
        with pytest.raises(SegmentationError, match="hold 0/54 slots on GF"):
            slot_count(s.total_cycles, s.cycle0, 8)

    def test_message_names_the_count_and_the_field(self):
        # a test8 run of a 10-bit key (508 cycles from cycle 62) read on B-233
        with pytest.raises(SegmentationError, match=r"^508 cycles from cycle 62 hold -18/54 "
                           r"slots on GF\(2\^233\), not a whole number >= 1$"):
            slot_count(508, 62, 233)


class TestScheduleFromKeyAndPoint:
    # (curve, scalar): None draws a key of the curve's nominal length
    PARITY = [("test8", None), ("b163", None), ("b233", None), ("test8", 1), ("test8", 0b11)]

    @pytest.mark.parametrize("curve_id, value", PARITY)
    def test_matches_the_transcript_schedule(self, curve_id, value):
        params = get_curve(curve_id)
        rng = random.Random(f"parity/{curve_id}")
        k = Scalar(value) if value else Scalar.random(rng, NOMINAL_SCALAR_BITS[curve_id])
        point, = fixed_base_multiples([Scalar.random(rng, NOMINAL_SCALAR_BITS[curve_id]).value],
                                      params)
        lazy = Schedule(k, point, params)
        built = build_schedule(kp_multiply(k, point, params)[1])
        assert np.array_equal(lazy.addr, built.addr)
        assert np.array_equal(lazy.data_hw, built.data_hw)
        for name in ("cycle0", "num_slots", "total_cycles"):
            assert getattr(lazy, name) == getattr(built, name), name

    # the ladder's own rejections, raised before any cycle is laid out
    BAD_POINTS = {
        "off_curve": ("1:1", "input point is not on the curve"),
        "x_zero": ("00:fb", "x = 0 is degenerate"),
        "infinity": ("infinity", "cannot run the ladder on the point at infinity"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_POINTS))
    def test_rejects_what_the_ladder_rejects(self, test8, case):
        text, message = self.BAD_POINTS[case]
        point = AffinePoint.from_hex(test8.field, text)
        with pytest.raises(CurveError, match=message):
            kp_multiply(Scalar(0b1011), point, test8)
        with pytest.raises(CurveError, match=message):
            Schedule(Scalar(0b1011), point, test8)


class TestAddressLeakage:
    def test_profiles_differ_somewhere(self):
        p0, p1 = slot_addr_profile(0), slot_addr_profile(1)
        assert np.any(p0 != p1)

    def test_differing_cycles_consistent(self):
        d = differing_cycles()
        p0, p1 = slot_addr_profile(0), slot_addr_profile(1)
        assert tuple(np.nonzero(p0 != p1)[0]) == d
        assert len(d) >= 1

    def test_x_registers_unbalanced_z_balanced(self):
        assert REGISTER_ADDR_WEIGHT[Reg.X1] != REGISTER_ADDR_WEIGHT[Reg.X2]
        assert REGISTER_ADDR_WEIGHT[Reg.Z1] == REGISTER_ADDR_WEIGHT[Reg.Z2]

    def test_slot_power_vectors_differ(self, b233_run):
        # the attack's existence condition, straight from the cycle powers
        _, k, _, _, schedule = b233_run
        model = LeakModel(addr_weight=1.0, data_weight=0.0, noise_sigma=0.0)
        power = cycle_power(schedule, model)
        c0 = schedule.cycle0
        slots = power[c0 : c0 + schedule.num_slots * 54].reshape(-1, 54)
        bits = np.array(k.main_loop_bits)
        v1 = slots[bits == 1][0]
        v0 = slots[bits == 0][0]
        assert np.any(v1 != v0)
        assert np.array_equal(np.nonzero(v1 != v0)[0], np.array(differing_cycles()))


class TestSynthesis:
    def test_deterministic(self, b233_run):
        _, _, _, _, schedule = b233_run
        model = LeakModel(noise_sigma=0.5, rng_seed=77)
        t1 = synthesize_trace(schedule, model)
        t2 = synthesize_trace(schedule, model)
        assert np.array_equal(t1.samples, t2.samples)

    def test_flat_when_all_weights_zero(self, b233_run):
        _, _, _, _, schedule = b233_run
        model = LeakModel(addr_weight=0.0, data_weight=0.0, noise_sigma=0.0, baseline=3.5)
        trace = synthesize_trace(schedule, model)
        assert np.all(trace.samples == 3.5)

    def test_length_formula(self, b233_run):
        _, _, _, _, schedule = b233_run
        for spc in (1, 3, 10):
            model = LeakModel(samples_per_cycle=spc)
            trace = synthesize_trace(schedule, model)
            assert trace.samples.shape[0] == spc * schedule.total_cycles
            assert trace.cycle0_offset == spc * schedule.cycle0

    def test_cycle_mean_equals_modelled_power(self, b233_run):
        _, _, _, _, schedule = b233_run
        model = LeakModel(addr_weight=1.0, data_weight=0.25, noise_sigma=0.0,
                          samples_per_cycle=4)
        trace = synthesize_trace(schedule, model)
        power = cycle_power(schedule, model)
        means = trace.samples.reshape(-1, 4).mean(axis=1)
        assert np.allclose(means, power)

    def test_ground_truth_attached(self, b233_run):
        _, k, _, _, schedule = b233_run
        trace = synthesize_trace(schedule, LeakModel())
        assert trace.ground_truth == k

    def test_data_term_changes_power(self, b233_run):
        _, _, _, _, schedule = b233_run
        base = cycle_power(schedule, LeakModel(addr_weight=0.0, data_weight=0.0))
        with_data = cycle_power(schedule, LeakModel(addr_weight=0.0, data_weight=0.1))
        assert np.any(base != with_data)

    @pytest.mark.parametrize("weights", [{"addr_weight": 1e308}, {"noise_sigma": 1e308},
                                         {"baseline": 1e308, "data_weight": 1e308}],
                             ids=["power", "noise", "sum"])
    def test_non_finite_render_refused_without_warning(self, test8, weights):
        schedule = Schedule(Scalar(0xB5), test8.g, test8)
        # pytest turns warnings into errors, so numpy's overflow warning would fail here
        with pytest.raises(ValueError, match="rendered samples are not finite"):
            synthesize_trace(schedule, LeakModel(**weights))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LeakModel(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            LeakModel(samples_per_cycle=0)
        for clock_hz in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match=r"^clock_hz must be a positive finite number"):
                LeakModel(clock_hz=clock_hz)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_negative_seed_refused_whether_or_not_noise_is_drawn(self, sigma):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            LeakModel(noise_sigma=sigma, rng_seed=-1)


class TestSmallCurveSchedule:
    def test_small_field_slots(self, test8):
        k = Scalar(0b1011011)
        _, transcript = kp_multiply(k, test8.g, test8)
        schedule = build_schedule(transcript)
        assert schedule.num_slots == k.bit_length - 2
        assert schedule.per_slot_ops["MUL"] == 6
        assert schedule.epilogue_len == epilogue_cycles(8)

    def test_preloop_slot_alone_has_op_counts(self, test8):
        _, transcript = kp_multiply(Scalar(0b11), test8.g, test8)
        schedule = build_schedule(transcript)
        assert schedule.has_preloop and schedule.num_slots == 0
        assert schedule.per_slot_ops["PARTIAL"] == 54

    def test_k_one_has_no_slots(self, test8):
        _, transcript = kp_multiply(Scalar(1), test8.g, test8)
        schedule = build_schedule(transcript)
        assert schedule.num_slots == 0
        assert not schedule.has_preloop
        assert schedule.total_cycles == INIT_CYCLES + epilogue_cycles(8)
