import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from kpsca import curve, gf2m
from kpsca.curve import ROLES, LadderTranscript, Scalar, kp_multiply
from kpsca.leaksim import (
    INIT_CYCLES,
    LeakModel,
    Reg,
    REGISTER_ADDR_WEIGHT,
    SLOT_CYCLES,
    ScheduleError,
    build_schedule,
    cycle_power,
    differing_cycles,
    epilogue_cycles,
    slot_addr_profile,
    synthesize_trace,
)
from kpsca.leaksim import _MUL_OPERANDS, _MUL_WINDOWS, _ROLE_BY_BIT, _SLOT_TABLE, _table_values


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

    def test_rejects_incomplete_transcript(self, b233, test8):
        empty = LadderTranscript(params=b233, scalar=Scalar(3), point=b233.g, states=(),
                                 steps=(), result=None)
        _, full = kp_multiply(Scalar(0b1011011), test8.g, test8)
        for bad in (empty, dataclasses.replace(full, states=full.states[:-1]),
                    dataclasses.replace(full, states=full.states + full.states[-1:]),
                    dataclasses.replace(full, steps=full.steps[:-1]),
                    dataclasses.replace(full, steps=full.steps + full.steps[-1:])):
            with pytest.raises(ScheduleError, match="incomplete"):
                build_schedule(bad)

    # one flipped bit in a recorded value: (transcript field, index, value
    # name); index 1 is the first main-loop step and the state before it.
    # The pre-loop step (bit 0) squares X1 and Z1 but not X2, so only the
    # initial-state check sees the state0 flip; only the sum A1 = M1 + M2
    # sees the M1 flip
    TAMPERS = {
        "state0": ("states", 0, "X2"),
        "state1": ("states", 1, "X1"),
        "step1_A1": ("steps", 1, "A1"),
        "step1_M1": ("steps", 1, "M1"),
        "step1_S2": ("steps", 1, "S2"),
        "step1_M6": ("steps", 1, "M6"),
    }

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_rejects_inconsistent_transcript(self, test8, case):
        target, i, name = self.TAMPERS[case]
        _, transcript = kp_multiply(Scalar(0b1011011), test8.g, test8)
        records = list(getattr(transcript, target))
        records[i] = records[i]._replace(**{name: getattr(records[i], name) ^ 1})
        with pytest.raises(ScheduleError):
            build_schedule(dataclasses.replace(transcript, **{target: tuple(records)}))

    def test_checks_steps_without_rerunning_them(self, test8, monkeypatch):
        _, transcript = kp_multiply(Scalar(0b1011011), test8.g, test8)
        calls = []
        step_roles = curve._step_roles
        monkeypatch.setattr(curve, "_step_roles", lambda *a: calls.append(a) or step_roles(*a))
        build_schedule(transcript)
        assert calls == []
        # the spy sees every step of a ladder
        kp_multiply(Scalar(0b1011011), test8.g, test8)
        assert len(calls) == len(transcript.steps)

    def test_stats_slot_count(self, b233_run):
        _, _, _, _, schedule = b233_run
        assert schedule.num_slots == 230
        assert schedule.has_preloop and schedule.cycle0 - INIT_CYCLES == 54
        assert schedule.total_cycles == schedule.addr.shape[0] == (
            INIT_CYCLES + 54 + schedule.main_cycles + schedule.epilogue_len
        )


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

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LeakModel(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            LeakModel(samples_per_cycle=0)

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
