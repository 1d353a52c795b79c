import argparse
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpsca
from kpsca import attack as attack_mod
from kpsca import authproto, cli, curve, leaksim
from kpsca.curve import Scalar, get_curve, kp_multiply, kp_point
from kpsca.leaksim import LeakModel, build_schedule, synthesize_trace
from kpsca.traces import CompressionMethod, Trace, compress, read_trace, segment, write_trace

from helpers import write_bad_trace


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate(tmp_path, capsys, *extra):
    out = tmp_path / "sim"
    code, stdout, _ = run(
        ["simulate", "--curve", "b233", "--seed", "5", "--out", str(out), *extra],
        capsys,
    )
    assert code == 0
    return out, stdout


class TestSimulate:
    def test_deterministic_file_hash(self, tmp_path, capsys):
        out1, _ = simulate(tmp_path / "a", capsys)
        out2, _ = simulate(tmp_path / "b", capsys)
        h1 = hashlib.sha256((out1 / "trace.kptr").read_bytes()).hexdigest()
        h2 = hashlib.sha256((out2 / "trace.kptr").read_bytes()).hexdigest()
        assert h1 == h2

    def test_reports_230_slots(self, tmp_path, capsys):
        _, stdout = simulate(tmp_path, capsys)
        assert "230 x 54" in stdout

    def test_flat_trace_warning(self, tmp_path, capsys):
        code, stdout, stderr = run(
            ["simulate", "--curve", "b233", "--seed", "5", "--out", str(tmp_path),
             "--addr-weight", "0", "--data-weight", "0", "--noise-sigma", "0"], capsys)
        assert code == 0 and not any(line.startswith("warning:") for line in stdout.splitlines())
        assert stderr == "warning: all leakage weights and noise are zero; the trace is flat\n"

    def test_sidecar_metadata(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        meta = json.loads((out / "trace.transcript.json").read_text())
        assert meta["num_slots"] == 230
        assert meta["slot_len"] == 54
        trace = read_trace(out / "trace.kptr")
        assert trace.ground_truth is not None
        assert meta["key"] == trace.ground_truth.to_hex()

    def test_no_ground_truth_flag(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys, "--no-ground-truth")
        assert read_trace(out / "trace.kptr").ground_truth is None

    @pytest.mark.parametrize("value, keeps_truth", [
        ("false", True), ("0", True), ("No", True),
        ("TRUE", False), ("yes", False), ("1", False),
    ])
    def test_config_no_ground_truth(self, tmp_path, capsys, value, keeps_truth):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_ground_truth={value}\n")
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--curve", "test8", "--config", str(cfg),
                          "--out", str(out)], capsys)
        assert code == 0
        assert (read_trace(out / "trace.kptr").ground_truth is not None) == keeps_truth

    @pytest.mark.parametrize("n", [0, 5])
    def test_excerpt_cycles(self, tmp_path, capsys, n):
        # 0 means no excerpt; negative counts are config errors (exit-code contract)
        out = tmp_path / "sim"
        code, stdout, _ = run(["simulate", "--curve", "test8", "--excerpt-cycles", str(n),
                               "--out", str(out)], capsys)
        assert code == 0
        excerpt = out / "excerpt.csv"
        if n == 0:
            assert not excerpt.exists() and "compressed excerpt" not in stdout
        else:
            assert f"compressed excerpt ({n} cycles)" in stdout
            assert excerpt.read_text().splitlines()[-1].startswith(f"{n - 1},")

    def test_excerpt_ignores_a_config_compression(self, tmp_path, capsys):
        # simulate has no --compression: a file's compression is checked, not applied
        cfg = tmp_path / "run.cfg"
        cfg.write_text("compression=sumsq\n")
        excerpts, out = [], tmp_path / "sim"
        for extra in ([], ["--config", str(cfg)]):
            code, _, _ = run(["simulate", "--curve", "test8", "--excerpt-cycles", "5",
                              "--out", str(out), *extra], capsys)
            assert code == 0
            excerpts.append((out / "excerpt.csv").read_text())
        assert excerpts[0] == excerpts[1] and "# compression=mean" in excerpts[0]

    def test_long_scalar_keeps_the_table(self, tmp_path, capsys):
        # a 4096-bit input point scalar is read mod n from B-233's 30 rows
        params = get_curve("b233")
        code, _, _ = run(["simulate", "--curve", "b233", "--scalar-bits", "4096",
                          "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(curve._window_table(params)) == 30


    def test_given_point(self, tmp_path, capsys):
        params = get_curve("test8")
        k, point = Scalar(0x2E7), kp_point(Scalar(5), params.g, params)
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--curve", "test8", "--seed", "4", "--key", k.to_hex(),
                          "--point", point.to_hex(), "--out", str(out)], capsys)
        assert code == 0
        meta = json.loads((out / "trace.transcript.json").read_text())
        assert meta["point"] == point.to_hex()
        want = synthesize_trace(build_schedule(kp_multiply(k, point, params)[1]),
                                LeakModel(rng_seed=4))
        assert np.array_equal(read_trace(out / "trace.kptr").samples, want.samples)

    def test_malformed_point(self, tmp_path, capsys):
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--point", "zz",
                                    "--out", str(tmp_path)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: point must be xhex:yhex or 'infinity', got 'zz'\n")

    # the schedule rejects a point the ladder would reject, with its message
    @pytest.mark.parametrize("point, message", [
        ("1:1", "input point is not on the curve"),
        ("00:fb", "x = 0 is degenerate: Z2 would be zero from the start"),
        ("infinity", "cannot run the ladder on the point at infinity"),
    ])
    def test_point_the_ladder_rejects(self, tmp_path, capsys, point, message):
        out = tmp_path / "sim"
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--point", point,
                                    "--out", str(out)], capsys)
        assert (code, stdout, stderr) == (cli.EXIT_CONFIG, "", f"error: {message}\n")
        assert not out.exists()

    def test_malformed_key(self, tmp_path, capsys):
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--key", "zz",
                                    "--out", str(tmp_path)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: key must be a hex scalar, got 'zz'\n")

    def test_key_past_the_scalar_bound(self, tmp_path, capsys):
        # --key has --scalar-bits' bound: 4096 bits pass, 4097 exit 2 before any write
        assert cli._parse_key("f" * 1024).bit_length == cli.MAX_SCALAR_BITS
        out = tmp_path / "sim"
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--key", "1" + "0" * 1024,
                                    "--out", str(out)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: key must have at most 4096 bits, got 4097\n")
        assert not out.exists()

    @pytest.mark.parametrize("spc", [10**17, 10**21])
    def test_sample_count_past_index_range(self, tmp_path, capsys, spc):
        # both counts are refused before anything is allocated or written
        out = tmp_path / "sim"
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--samples-per-cycle",
                                    str(spc), "--out", str(out)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "",
            f"error: 508 cycles x {spc} samples per cycle is more samples than an array "
            "can index\n")
        assert not out.exists()

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def allocation_fails(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.70 TiB for an array")

        monkeypatch.setattr(np, "repeat", allocation_fails)
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--samples-per-cycle",
                                    str(10**9), "--out", str(tmp_path)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: out of memory: Unable to allocate 3.70 TiB for an array\n")

    def test_out_of_memory_with_noise(self, tmp_path, capsys, monkeypatch):
        class Generator:  # the noisy path's one allocation is the noise draw
            def normal(self, *args, **kwargs):
                raise MemoryError("Unable to allocate 3.70 TiB for an array")

        monkeypatch.setattr(leaksim.np.random, "default_rng", lambda seed: Generator())
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--noise-sigma", "0.5",
                                    "--samples-per-cycle", str(10**9), "--out", str(tmp_path)],
                                   capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: out of memory: Unable to allocate 3.70 TiB for an array\n")


class TestLadderRunsOnlyWhereRead:
    @pytest.fixture
    def ladder_calls(self, monkeypatch):
        """Every kp_multiply call, through whichever module binds it."""
        calls, real = [], curve.kp_multiply
        for module in (kpsca, curve, leaksim, authproto, cli):
            if getattr(module, "kp_multiply", None) is real:
                monkeypatch.setattr(module, "kp_multiply",
                                    lambda *args: calls.append(args) or real(*args))
        return calls

    # at data weight 0 the address leak is the key bits' alone: no ladder runs
    @pytest.mark.parametrize("argv, ladders", [
        (["simulate", "--out", "{out}"], 0),
        (["simulate", "--data-weight", "0.1", "--out", "{out}"], 1),
        (["stats"], 0),
        (["auth-demo"], 0),
    ])
    def test_ladder_calls(self, tmp_path, capsys, ladder_calls, argv, ladders):
        argv = [a.format(out=tmp_path / "o") for a in argv]
        code, _, _ = run([*argv, "--curve", "test8", "--seed", "3"], capsys)
        assert code == 0
        assert len(ladder_calls) == ladders


class TestAttack:
    def test_perfect_delta_on_leaky_fixture(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        code, stdout, _ = run(
            ["attack", str(out / "trace.kptr"), "--out", str(out)], capsys
        )
        assert code == 0
        assert "100.0%" in stdout
        assert (out / "report.csv").exists()

    def test_verification_without_ground_truth(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        truth = read_trace(out / "trace.kptr").ground_truth
        params = get_curve("b233")
        pub = kp_point(truth, params.g, params)
        out2, _ = simulate(tmp_path / "anon", capsys, "--no-ground-truth")
        code, stdout, _ = run(
            ["attack", str(out2 / "trace.kptr"), "--out", str(out2),
             "--num-slots", "230", "--pub", pub.to_hex()],
            capsys,
        )
        assert code == 0
        assert "verified: yes" in stdout

    def test_slot_count_from_the_trace_length(self, tmp_path, capsys):
        # without ground truth and without --num-slots, the count that the
        # trace's length holds on the curve gives the output of the true count
        for curve_id in curve.CURVE_IDS:
            known, anon = tmp_path / curve_id / "known", tmp_path / curve_id / "anon"
            for out, extra in ((known, []), (anon, ["--no-ground-truth"])):
                assert run(["simulate", "--curve", curve_id, "--seed", "3", *extra,
                            "--out", str(out)], capsys)[0] == 0
            params = get_curve(curve_id)
            pub = kp_point(read_trace(known / "trace.kptr").ground_truth, params.g, params)
            slots = json.loads((known / "trace.transcript.json").read_text())["num_slots"]
            argv = ["attack", str(anon / "trace.kptr"), "--curve", curve_id,
                    "--pub", pub.to_hex(), "--out", str(anon)]
            given = run([*argv, "--num-slots", str(slots)], capsys)
            assert given[0] == 0 and "verified: yes" in given[1]
            assert run(argv, capsys) == given, curve_id

    @pytest.mark.parametrize("command", ["attack", "bruteforce"])
    @pytest.mark.parametrize("pub", ["zz", "1:2:3", "g:1", "infinity", "1:1", "5b:1e"])
    def test_malformed_pub(self, tmp_path, capsys, command, pub):
        # infinity parses as a point, but no private key gives it: its
        # multiples of n would otherwise print as a found key.  Nor does
        # one outside <G>: 1:1 is off the curve, and 5b:1e = G + (0, sqrt(b))
        # is on it, but neither would verify or find any key
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        extra = ["--suspects", "1"] if command == "bruteforce" else []
        code, stdout, stderr = run([command, str(out / "trace.kptr"), "--curve", "test8",
                                    "--out", str(out), "--pub", pub, *extra], capsys)
        message = {"infinity": "public key is the point at infinity, which no private key gives",
                   "1:1": "public key 1:1 is not a multiple of G: no private key gives it",
                   "5b:1e": "public key 5b:1e is not a multiple of G: no private key gives it",
                   }.get(pub, f"public key must be xhex:yhex or 'infinity', got '{pub}'")
        assert (code, stdout, stderr) == (cli.EXIT_CONFIG, "", f"error: {message}\n")

    def test_misconfigured_offset_drops_delta(self, tmp_path, capsys):
        def deltas(out_dir):
            rows = {}
            for line in (out_dir / "report.csv").read_text().splitlines():
                if line.startswith("#") or line.startswith("sample_index"):
                    continue
                j, pol, delta, _ = line.split(",")
                rows[(int(j), pol)] = float(delta)
            return rows

        out, _ = simulate(tmp_path, capsys)
        trace_file = str(out / "trace.kptr")
        good_start = read_trace(trace_file).cycle0_cycle
        aligned_dir = tmp_path / "aligned"
        code, _, _ = run(
            ["attack", trace_file, "--out", str(aligned_dir),
             "--start-cycle", str(good_start)], capsys,
        )
        assert code == 0
        aligned = deltas(aligned_dir)
        best_key = max(aligned, key=aligned.get)
        assert aligned[best_key] == 1.0

        shifted_dir = tmp_path / "shifted"
        code, _, _ = run(
            ["attack", trace_file, "--out", str(shifted_dir),
             "--start-cycle", str(good_start + 1)], capsys,
        )
        assert code == 0
        # the winning candidate of the correct segmentation degrades
        assert deltas(shifted_dir)[best_key] < 1.0

    def test_segmentation_error_reports_max_slots(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        code, _, err = run(
            ["attack", str(out / "trace.kptr"), "--out", str(out),
             "--num-slots", "5000"],
            capsys,
        )
        assert code == cli.EXIT_SEGMENTATION
        assert "at most" in err

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num-slots=5000\ncompression=mean\n")
        # config alone: out of bounds
        code, _, _ = run(
            ["attack", str(out / "trace.kptr"), "--out", str(out),
             "--config", str(cfg)],
            capsys,
        )
        assert code == cli.EXIT_SEGMENTATION
        # explicit flag wins over the config value
        code, stdout, _ = run(
            ["attack", str(out / "trace.kptr"), "--out", str(out),
             "--config", str(cfg), "--num-slots", "230"],
            capsys,
        )
        assert code == 0
        assert "100.0%" in stdout

    def test_report_embeds_run_config(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        run(["attack", str(out / "trace.kptr"), "--out", str(out)], capsys)
        head = (out / "report.csv").read_text().splitlines()[:20]
        assert any("curve=b233" in line for line in head if line.startswith("#"))

    @pytest.mark.parametrize("num_slots, code, last", [
        ("4", 0, None),
        ("400", cli.EXIT_SEGMENTATION,
         "segmentation error: window of 400 x 5 cycles from cycle 8 exceeds the trace; "
         "at most 18 slots fit\n"),
    ])
    def test_library_warning_is_one_stderr_line(self, tmp_path, capsys, num_slots, code, last):
        # compress drops the 3 samples past the last whole cycle, and warns
        path = tmp_path / "odd.kptr"
        write_trace(Trace(np.arange(1003) % 7.0, samples_per_cycle=10, cycle0_offset=80,
                          clock_hz=100e6), path)
        got, _, stderr = run(["attack", str(path), "--curve", "test8", "--num-slots", num_slots,
                              "--slot-len", "5", "--out", str(tmp_path)], capsys)
        assert (got, stderr) == (code, "warning: trace length 1003 is not a multiple of "
                                       "samples_per_cycle=10; dropping 3 trailing samples\n"
                                       + (last or ""))

    def test_missing_trace_is_io_error(self, tmp_path, capsys):
        code, _, err = run(["attack", str(tmp_path / "nope.kptr")], capsys)
        assert code == cli.EXIT_IO


class TestWelch:
    def test_flags_leaky_cycles(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        code, stdout, _ = run(
            ["welch", str(out / "trace.kptr"), "--out", str(out)], capsys
        )
        assert code == 0
        assert "[0, 7, 11, 46, 53]" in stdout
        assert (out / "welch.csv").exists()

    def test_refuses_without_ground_truth(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys, "--no-ground-truth")
        code, _, err = run(
            ["welch", str(out / "trace.kptr"), "--out", str(out),
             "--num-slots", "230"],
            capsys,
        )
        assert code == cli.EXIT_CONFIG
        assert "ground truth" in err


class TestBruteforce:
    def test_completes_recovery(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys)
        code, stdout, _ = run(
            ["bruteforce", str(out / "trace.kptr"), "--out", str(out),
             "--suspects", "3,17,42"],
            capsys,
        )
        assert code == 0
        assert "key found" in stdout

    def test_requires_pub_without_truth(self, tmp_path, capsys):
        out, _ = simulate(tmp_path, capsys, "--no-ground-truth")
        # a selected candidate gets past the ground-truth selection to the pub check
        code, stdout, err = run(
            ["bruteforce", str(out / "trace.kptr"), "--num-slots", "230",
             "--suspects", "1", "--sample-index", "0"],
            capsys,
        )
        assert (code, stdout, err) == (
            cli.EXIT_CONFIG, "", "error: --pub is required when the trace has no ground truth\n")

    @pytest.mark.parametrize("suspects", ["x", "1.5"])
    def test_malformed_suspects(self, tmp_path, capsys, suspects):
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        code, stdout, stderr = run(["bruteforce", str(out / "trace.kptr"), "--curve", "test8",
                                    "--suspects", suspects], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "",
            f"error: suspects must be comma-separated slot indices, got '{suspects}'\n")


@pytest.fixture(scope="module")
def prefix_trace(tmp_path_factory):
    """A test8 trace with ground truth: 8 main-loop slots from cycle 62."""
    out = tmp_path_factory.mktemp("prefix")
    assert cli.main(["simulate", "--curve", "test8", "--seed", "1", "--out", str(out)]) == 0
    return out / "trace.kptr"


class TestPrefixWindow:
    """A window of the first slots is compared with the first truth bits;
    a window that starts elsewhere is not."""

    def test_attack_scores_the_prefix(self, tmp_path, capsys, prefix_trace):
        trace = read_trace(prefix_trace)
        code, _, _ = run(["attack", str(prefix_trace), "--curve", "test8", "--num-slots", "5",
                          "--out", str(tmp_path)], capsys)
        assert code == 0
        matrix = segment(compress(trace, CompressionMethod.MEAN), trace.cycle0_cycle,
                         leaksim.SLOT_CYCLES, 5)
        want = attack_mod.evaluate(matrix, truth_bits=trace.ground_truth.main_loop_bits[:5])
        rows = (tmp_path / "report.csv").read_text().splitlines()
        header = rows.index("sample_index,polarity,delta,verified")
        got = [row.split(",")[2] for row in rows[header + 1:]]
        assert got == [f"{d:.6f}" for d in want.deltas.tolist()]

    def test_bruteforce_on_the_prefix(self, tmp_path, capsys, prefix_trace):
        code, stdout, _ = run(["bruteforce", str(prefix_trace), "--curve", "test8",
                               "--num-slots", "5", "--suspects", "0", "--out", str(tmp_path)], capsys)
        assert code == 0 and stdout.startswith(("key found", "not found", "enumeration"))

    def test_welch_on_the_prefix(self, tmp_path, capsys, prefix_trace):
        bits = read_trace(prefix_trace).ground_truth.main_loop_bits
        num = next(n for n in range(4, len(bits)) if min(bits[:n].count(0), bits[:n].count(1)) >= 2)
        code, _, _ = run(["welch", str(prefix_trace), "--curve", "test8", "--num-slots", str(num),
                          "--out", str(tmp_path)], capsys)
        assert code == 0

    def test_window_one_slot_late_is_refused(self, tmp_path, capsys, prefix_trace):
        late = read_trace(prefix_trace).cycle0_cycle + leaksim.SLOT_CYCLES
        code, _, stderr = run(["attack", str(prefix_trace), "--curve", "test8", "--num-slots", "5",
                               "--start-cycle", str(late), "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG and "truth has 8" in stderr


@pytest.fixture(scope="module")
def curve_traces(tmp_path_factory):
    """One trace with ground truth per registered curve, by curve id."""
    out = tmp_path_factory.mktemp("curves")
    for curve_id in curve.CURVE_IDS:
        assert cli.main(["simulate", "--curve", curve_id, "--out", str(out / curve_id)]) == 0
    return {curve_id: str(out / curve_id / "trace.kptr") for curve_id in curve.CURVE_IDS}


@pytest.mark.parametrize("command", ["attack", "welch", "bruteforce"])
@pytest.mark.parametrize("made, read", [(a, b) for a in curve.CURVE_IDS for b in curve.CURVE_IDS
                                        if a != b])
def test_trace_read_on_another_curve(tmp_path, capsys, curve_traces, command, made, read):
    # no --num-slots: the trace's length holds no whole number of slots on
    # another curve, so each wrong pairing ends in one segmentation error line
    suspects = ["--suspects", "0,1"] if command == "bruteforce" else []
    code, stdout, stderr = run([command, curve_traces[made], "--curve", read, *suspects,
                                "--out", str(tmp_path)], capsys)
    assert (code, stdout) == (cli.EXIT_SEGMENTATION, "")
    assert stderr.startswith("segmentation error: ") and stderr.count("\n") == 1
    assert stderr.endswith(f"slots on GF(2^{get_curve(read).field.m}), not a whole number >= 1\n")


# options that only welch or bruteforce read: (command, config line, stdout
# with the config value, overriding flag, stdout with the flag), on the
# noisy test8 trace of key 279
CONFIG_ONLY_OPTIONS = {
    "budget": (["bruteforce", "--suspects", "1,2"], "budget=0",
               "not found within budget (0 point multiplications)\n",
               ["--budget", "4"], "key found: 279 after 1 point multiplications\n"),
    "threshold": (["welch"], "threshold=1000", "cycles with |t| > 1000.0: []\n",
                  ["--threshold", "4.5"], "cycles with |t| > 4.5: [0, 7, 11, 46, 53]\n"),
    "polarity": (["bruteforce", "--suspects", "1,2", "--sample-index", "0"],
                 "polarity=smaller_is_zero",
                 "enumeration exhausted without a match (8 point multiplications)\n",
                 ["--polarity", "smaller_is_one"], "key found: 279 after 1 point multiplications\n"),
}


@pytest.mark.parametrize("option", sorted(CONFIG_ONLY_OPTIONS))
def test_config_value_applies_and_flag_overrides(tmp_path, capsys, option):
    command, line, from_config, flag, from_flag = CONFIG_ONLY_OPTIONS[option]
    out = tmp_path / "sim"
    code, _, _ = run(["simulate", "--curve", "test8", "--seed", "3", "--noise-sigma", "0.5",
                      "--out", str(out)], capsys)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = [command[0], str(out / "trace.kptr"), "--curve", "test8", "--out", str(out),
            "--config", str(cfg), *command[1:]]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.splitlines(keepends=True)[0] == from_config
    code, stdout, _ = run(argv + flag, capsys)
    assert code == 0
    assert stdout.splitlines(keepends=True)[0] == from_flag


AUTH_DEMO_RECOVERED = (
    "honest authentication: ok\n"
    "key recovered: yes\n"
    "recovered scalar: {}\n"
    "replayed response verifies: yes\n"
    "identity stolen: attacker answers challenges as Bob\n"
)

# auth-demo (curve, seed, noise sigma) -> exit code, stdout, stderr, recorded
# before the demo took Pub and R from the fixed-base table and replayed the
# stolen key without a leakage trace
AUTH_DEMO_PINS = {
    ("b233", 9, "0"): (0, AUTH_DEMO_RECOVERED.format(
        "d6ddd6ff552fa73207237751aa4462ebfc5f915ef09cfbac6e7687a66e"), ""),
    ("b233", 1, "0.5"): (0, AUTH_DEMO_RECOVERED.format(
        "8f414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5"), ""),
    # a late first hit: in extraction order only the last of the 108
    # candidates carries the key (rank 108 by perfbench's auth_first_hit)
    ("b233", 11, "0.5"): (0, AUTH_DEMO_RECOVERED.format(
        "b97734d7c1c7fde805ec99108ddb5b5fab8f4d3e27dda1494c73cf256d"), ""),
    # no single candidate verifies at sigma 1.0; the combined candidate does
    ("b233", 2, "1.0"): (0, AUTH_DEMO_RECOVERED.format(
        "ae15ba2bdd177219d30e7a269fd95bafc8f2a4d27bdcf4bb99f4bea973"), ""),
    ("test8", 3, "0"): (0, AUTH_DEMO_RECOVERED.format("279"), ""),
    # recovered since the completion runs on every curve: with 10-bit keys its
    # 8 flipped slots over 4 variants reach every scalar of the key's length,
    # so test8 cannot miss; 2d7 = 727 is the planted 1001 - 2 * 137
    ("test8", 2, "3.0"): (0, AUTH_DEMO_RECOVERED.format("2d7"), ""),
    # a failed recovery prints two lines and exits 0 (perfbench's auth_b233 check)
    ("b233", 2, "2.0"): (0, "honest authentication: ok\nkey recovered: no\n", ""),
    # the 10-bit key 548 = 4 * 137 is a multiple of the order: pub is infinity
    ("test8", 66, "0"): (2, "", "error: private key is a multiple of the base point's order "
                                "(public key at infinity)\n"),
}


def auth_demo(capsys, curve, seed, sigma="0"):
    return run(["auth-demo", "--curve", curve, "--seed", str(seed), "--noise-sigma", sigma],
               capsys)


class TestAuthDemo:
    def test_recovers_key(self, capsys):
        assert auth_demo(capsys, "b233", 9) == AUTH_DEMO_PINS[("b233", 9, "0")]

    @pytest.mark.parametrize("curve, seed, sigma",
                             [case for case in sorted(AUTH_DEMO_PINS) if case != ("b233", 9, "0")])
    def test_output_pins(self, capsys, curve, seed, sigma):
        assert auth_demo(capsys, curve, seed, sigma) == AUTH_DEMO_PINS[(curve, seed, sigma)]

    def test_noisy_pin_is_the_planted_key(self):
        stdout = AUTH_DEMO_PINS[("b233", 2, "1.0")][1]
        planted = authproto.Identity.generate("b233", random.Random(2), 232).k
        assert f"recovered scalar: {planted.to_hex()}\n" in stdout

    def test_recovers_most_keys_at_sigma_1(self, capsys):
        recovered = [
            auth_demo(capsys, "b233", seed, "1.0")
            == (0, AUTH_DEMO_RECOVERED.format(
                authproto.Identity.generate("b233", random.Random(seed), 232).k.to_hex()), "")
            for seed in range(1, 9)
        ]
        assert sum(recovered) >= 7

    def test_pub_at_infinity_seed(self):
        assert Scalar.random(random.Random(66), 10).value % get_curve("test8").order_hint == 0

    def test_challenge_at_infinity(self, capsys):
        # auth-demo draws the key, then r, from random.Random(seed)
        order = get_curve("test8").order_hint
        seed = None
        for s in range(1000):
            rng = random.Random(s)
            k, r = Scalar.random(rng, 10), Scalar.random(rng, 10)
            if k.value % order and r.value % order == 0:
                seed = s
                break
        assert seed is not None
        assert auth_demo(capsys, "test8", seed) == (
            2, "", "error: challenge scalar r is a multiple of the base point's order "
                   "(R at infinity)\n")

    def test_config_key_of_another_command_is_not_applied(self, tmp_path, capsys):
        # auth-demo has no --slot-len: the file's slot_len is checked, not applied
        cfg = tmp_path / "run.cfg"
        cfg.write_text("slot_len=53\n")
        argv = ["auth-demo", "--curve", "b233", "--seed", "1"]
        plain = run(argv, capsys)
        assert plain[0] == 0 and "key recovered: yes" in plain[1]
        assert run(argv + ["--config", str(cfg)], capsys) == plain
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--slot-len", "53"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_unknown_curve_in_config(self, tmp_path, capsys):
        # argparse checks --curve; a config file's value is checked with the same message
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=foo\n")
        code, stdout, stderr = run(["auth-demo", "--config", str(cfg)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "",
            "error: unknown curve 'foo'; choose from ('b163', 'b233', 'test8')\n")

    @pytest.mark.parametrize("nbits", [2, 3])
    def test_rejects_short_scalars(self, capsys, nbits):
        # the attack needs 2 main-loop slots; nothing runs, so nothing prints
        code, stdout, stderr = run(["auth-demo", "--curve", "b233", "--scalar-bits", str(nbits)],
                                   capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "",
            f"error: auth-demo needs scalars of at least 4 bits, got {nbits}\n")
        code, stdout, _ = run(["auth-demo", "--curve", "b233", "--scalar-bits", "4"], capsys)
        assert code == 0 and "key recovered: yes" in stdout

    def test_readme_example(self, capsys):
        # the README's auth-demo block is this command's output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        flags, block = re.search(r"\(`(--curve \S+ --seed \d+)`\):\n\n```\n(.*?)```",
                                 readme, re.DOTALL).groups()
        assert run(["auth-demo", *flags.split()], capsys) == (0, block, "")

    def test_deterministic(self, tmp_path, capsys):
        _, out1, _ = run(["auth-demo", "--curve", "b233", "--seed", "9"], capsys)
        _, out2, _ = run(["auth-demo", "--curve", "b233", "--seed", "9"], capsys)
        assert out1 == out2


class TestStats:
    def test_233_bit_numbers(self, capsys):
        code, stdout, _ = run(
            ["stats", "--curve", "b233", "--scalar-bits", "233"], capsys
        )
        assert code == 0
        assert "total cycles: 13000" in stdout
        assert "0.1300 ms" in stdout
        assert "231 slots x 54" in stdout
        assert ("per-slot ops: {'MUL': 6, 'SQUARE': 5, 'ADD': 3, 'REG': 11, 'PARTIAL': 54}"
                in stdout.splitlines())
        # a 1-bit scalar runs no slot at all
        code, stdout, _ = run(
            ["stats", "--curve", "b233", "--scalar-bits", "1"], capsys
        )
        assert code == 0
        assert "per-slot ops: {}" in stdout.splitlines()
        assert "total cycles: 472" in stdout.splitlines()

    def test_seed_env_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.SEED_ENV, "123")
        out = tmp_path / "env"
        code, _, _ = run(["simulate", "--curve", "b233", "--out", str(out)], capsys)
        assert code == 0
        trace_env = (out / "trace.kptr").read_bytes()
        monkeypatch.delenv(cli.SEED_ENV)
        out2 = tmp_path / "flag"
        run(["simulate", "--curve", "b233", "--seed", "123", "--out", str(out2)], capsys)
        assert trace_env == (out2 / "trace.kptr").read_bytes()

    def test_seed_env_not_an_int(self, capsys, monkeypatch):
        # named like a config file's bad value, by its source
        monkeypatch.setenv(cli.SEED_ENV, "abc")
        assert run(["stats", "--curve", "test8"], capsys) == (
            cli.EXIT_CONFIG, "", "error: environment KPSCA_SEED: invalid int value 'abc'\n")

    @pytest.mark.parametrize("command", ["simulate", "auth-demo", "stats"])
    def test_scalar_bits_bounded(self, tmp_path, capsys, command):
        # refused before any scalar is drawn: a 10^20-bit one cannot be
        for nbits in ("0", "4097", "99999999999999999999"):
            assert run([command, "--curve", "test8", "--scalar-bits", nbits,
                        "--out", str(tmp_path)], capsys) == (
                cli.EXIT_CONFIG, "", f"error: scalar_bits must be in 1..4096, got {nbits}\n")
        code, stdout, _ = run(["stats", "--curve", "test8", "--scalar-bits", "4096"], capsys)
        assert code == 0 and "main loop: 4094 slots" in stdout


# the exit-code contract: (case, documented exit code)
class TestParserReuse:
    """main() builds its parser once per process and reuses it."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_help_matches_a_fresh_parser(self, capsys):
        run(["stats", "--curve", "test8"], capsys)  # the cached parser has parsed

        def helps(parser):
            sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return [parser.format_help()] + [p.format_help() for p in sub.choices.values()]

        cached, fresh = helps(cli.build_parser()), helps(cli.build_parser.__wrapped__())
        assert len(cached) == 7
        assert cached == fresh

    def test_usage_error_leaves_no_state(self, tmp_path, capsys):
        key = Scalar.random(random.Random(15), 232)
        out, _ = simulate(tmp_path, capsys, "--no-ground-truth", "--key", key.to_hex())
        params = get_curve("b233")
        argv = ["attack", str(out / "trace.kptr"), "--out", str(out / "a"),
                "--num-slots", "230", "--pub", kp_point(key, params.g, params).to_hex()]

        def attack():
            code, stdout, _ = run(argv, capsys)
            assert code == 0
            return stdout, (out / "a" / "report.csv").read_bytes()

        cli.build_parser.cache_clear()
        first = attack()
        assert "verified: yes" in first[0]
        with pytest.raises(SystemExit) as exc:
            cli.main(["attack"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert attack() == first

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for expected in (7, 0):
            built.clear()
            code, _, _ = run(["stats", "--curve", "test8"], capsys)
            assert (code, len(built)) == (0, expected)


EXIT_CODE_CASES = [
    ("bad_config_line", cli.EXIT_CONFIG),
    ("missing_trace", cli.EXIT_IO),
    ("oversized_num_slots", cli.EXIT_SEGMENTATION),
    ("slot_len=0", cli.EXIT_CONFIG),
    ("num_slots=0", cli.EXIT_CONFIG),
    ("scalar_bits=0", cli.EXIT_CONFIG),
    ("scalar_bits=99999999999999999999", cli.EXIT_CONFIG),
    ("suspects=999", cli.EXIT_CONFIG),
    ("sample_index=999", cli.EXIT_CONFIG),
    ("sample_index=-1", cli.EXIT_CONFIG),
    ("clock_hz=0", cli.EXIT_CONFIG),
    ("clock_hz=-1e6", cli.EXIT_CONFIG),
    ("clock_hz=nan", cli.EXIT_CONFIG),
    ("clock_hz=inf", cli.EXIT_CONFIG),
    ("unparsable_count", cli.EXIT_IO),
    ("undecodable_meta", cli.EXIT_IO),
    ("empty=.kptr", cli.EXIT_IO),
    ("empty=.csv", cli.EXIT_IO),
    ("two_columns", cli.EXIT_IO),
    ("no_ground_truth=maybe", cli.EXIT_CONFIG),
    ("excerpt_cycles=-3", cli.EXIT_CONFIG),
    ("budget=-1", cli.EXIT_CONFIG),
    ("threshold=nan", cli.EXIT_CONFIG),
    ("threshold=-1", cli.EXIT_CONFIG),
    ("polarity_without_index", cli.EXIT_CONFIG),
    ("suspects=x", cli.EXIT_CONFIG),
    ("suspects=1.5", cli.EXIT_CONFIG),
    ("suspects=0,0", cli.EXIT_CONFIG),
    ("noise_sigma=nan", cli.EXIT_CONFIG),
    ("noise_sigma=inf", cli.EXIT_CONFIG),
    ("addr_weight=nan", cli.EXIT_CONFIG),
    ("data_weight=inf", cli.EXIT_CONFIG),
    ("baseline=-inf", cli.EXIT_CONFIG),
    ("curve=foo", cli.EXIT_CONFIG),
    ("seed=-1,sigma=0", cli.EXIT_CONFIG),
    ("seed=-1,sigma=0.5", cli.EXIT_CONFIG),
    ("config nosie_sigma=2", cli.EXIT_CONFIG),
    ("config seed=abc", cli.EXIT_CONFIG),
    ("config compression=foo", cli.EXIT_CONFIG),
    ("config # seed=abc\n\n   \nseed=3", cli.EXIT_OK),  # comment and blank lines are skipped
    # the sample count is refused before the power overflows, which would warn first
    ("config addr_weight=1e308\nsamples_per_cycle=99999999999999999999", cli.EXIT_CONFIG),
    ("no_truth_bruteforce", cli.EXIT_CONFIG),
    ("key=4097_bits", cli.EXIT_CONFIG),  # 1 and 1024 hex zeros, refused before writing
    # a trace read on another curve: its length holds no whole number of slots there
    ("wrong_curve=attack,test8,b233", cli.EXIT_SEGMENTATION),
    ("wrong_curve=bruteforce,test8,b233", cli.EXIT_SEGMENTATION),
    ("wrong_curve=attack,b233,test8", cli.EXIT_SEGMENTATION),
    ("wrong_curve=bruteforce,b233,test8", cli.EXIT_SEGMENTATION),
    ("wrong_curve=attack,b163,b233", cli.EXIT_SEGMENTATION),
    ("wrong_curve=bruteforce,b163,b233", cli.EXIT_SEGMENTATION),
]

SIMULATE_FLAGS = ("excerpt_cycles", "noise_sigma", "addr_weight", "data_weight", "baseline",
                  "scalar_bits")


def contract_argv(case, tmp_path, capsys):
    """Command line for one malformed input of the exit-code contract."""
    if case.startswith("config "):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(case.removeprefix("config ") + "\n")
        return ["simulate", "--curve", "test8", "--config", str(cfg), "--out", str(tmp_path)]
    name, _, value = case.partition("=")
    if name == "clock_hz":
        return ["stats", "--curve", "test8", f"--clock-hz={value}"]
    if name in SIMULATE_FLAGS:
        flag = "--" + name.replace("_", "-")
        return ["simulate", "--curve", "test8", f"{flag}={value}", "--out", str(tmp_path)]
    if name in ("unparsable_count", "undecodable_meta", "empty", "two_columns"):
        path = write_bad_trace(tmp_path, value or ".csv", name)
        return ["attack", str(path), "--num-slots", "5", "--out", str(tmp_path)]
    if name == "seed":  # refused whether or not noise is drawn
        seed, _, sigma = value.partition(",sigma=")
        return ["simulate", "--curve", "test8", f"--seed={seed}", f"--noise-sigma={sigma}",
                "--out", str(tmp_path)]
    if name == "missing_trace":
        return ["attack", str(tmp_path / "nope.kptr")]
    if name == "bad_config_line":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=test8\nnot a key value line\n")
        return ["attack", str(tmp_path / "nope.kptr"), "--config", str(cfg)]
    if name == "curve":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve={value}\n")
        return ["auth-demo", "--config", str(cfg)]
    if name == "no_ground_truth":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_ground_truth={value}\n")
        return ["simulate", "--curve", "test8", "--config", str(cfg), "--out", str(tmp_path)]
    if name == "key":
        out = tmp_path / "sim"
        return ["simulate", "--curve", "test8", "--key", "1" + "0" * 1024, "--out", str(out)]
    if name == "wrong_curve":  # no --num-slots: the count comes from the trace's length
        command, made, read = value.split(",")
        assert run(["simulate", "--curve", made, "--out", str(tmp_path)], capsys)[0] == 0
        suspects = ["--suspects", "0,1"] if command == "bruteforce" else []
        return [command, str(tmp_path / "trace.kptr"), "--curve", read, *suspects,
                "--out", str(tmp_path)]
    out = tmp_path / "sim"
    hidden = ["--no-ground-truth"] if name.startswith("no_truth_") else []
    code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out), *hidden],
                     capsys)
    assert code == 0
    trace = str(out / "trace.kptr")
    if name == "no_truth_bruteforce":  # the candidate must be named, by its sample index
        return ["bruteforce", trace, "--curve", "test8", "--num-slots", "5", "--suspects", "1",
                "--pub", get_curve("test8").g.to_hex()]
    if name == "oversized_num_slots":
        return ["attack", trace, "--curve", "test8", "--num-slots", "5000", "--out", str(out)]
    if name in ("slot_len", "num_slots"):
        flag = "--" + name.replace("_", "-")
        return ["attack", trace, "--curve", "test8", f"{flag}={value}", "--out", str(out)]
    if name == "threshold":
        return ["welch", trace, "--curve", "test8", f"--threshold={value}", "--out", str(out)]
    if name == "polarity_without_index":
        return ["bruteforce", trace, "--curve", "test8", "--suspects", "1",
                "--polarity", "smaller_is_zero"]
    if name == "suspects":
        return ["bruteforce", trace, "--curve", "test8", f"--suspects={value}"]
    flag = "--budget" if name == "budget" else "--sample-index"
    return ["bruteforce", trace, "--curve", "test8", "--suspects", "1", f"{flag}={value}"]


# a bad value read from --config: exit 2, and the message names no flag
CONFIG_VALUE_ERRORS = {
    "budget=-1": "error: budget must be >= 0, got -1\n",
    "threshold=-1": "error: threshold must be a finite number >= 0, got -1.0\n",
    "sample_index=999": "error: sample index must be in 0..53, got 999\n",
    "excerpt_cycles=-3": "error: excerpt cycle count must be >= 0, got -3\n",
    "nosie_sigma=2": "error: unknown config key 'nosie_sigma'\n",
    "seed=abc": "error: config seed: invalid int value 'abc'\n",
    "noise_sigma=abc": "error: config noise_sigma: invalid float value 'abc'\n",
    "compression=foo": "error: unknown compression 'foo'; choose from ('mean', 'sumsq')\n",
    "polarity=foo": "error: unknown polarity 'foo'; choose from ('smaller_is_one', "
                    "'smaller_is_zero')\n",
    "no_ground_truth=maybe": "error: config no_ground_truth: expected true/false/yes/no/1/0, "
                             "got 'maybe'\n",
    # the whole file is checked, also the keys that the command does not read
    "budget=abc": "error: config budget: invalid int value 'abc'\n",
}


@pytest.mark.parametrize("line", sorted(CONFIG_VALUE_ERRORS))
def test_config_value_error_names_no_flag(tmp_path, capsys, line):
    out = tmp_path / "sim"
    code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    commands = {"budget": ["bruteforce", str(out / "trace.kptr"), "--suspects", "1"],
                "threshold": ["welch", str(out / "trace.kptr")],
                "sample_index": ["bruteforce", str(out / "trace.kptr"), "--suspects", "1"],
                "excerpt_cycles": ["simulate"],
                "nosie_sigma": ["simulate"],
                "seed": ["stats"],
                "noise_sigma": ["auth-demo"],
                "compression": ["attack", str(out / "trace.kptr")],
                "polarity": ["bruteforce", str(out / "trace.kptr"), "--suspects", "1"],
                "no_ground_truth": ["simulate"],
                "budget=abc": ["simulate"]}
    command = commands.get(line) or commands[line.partition("=")[0]]
    code, stdout, stderr = run(command + ["--curve", "test8", "--config", str(cfg),
                                          "--out", str(tmp_path / "o")], capsys)
    assert (code, stdout, stderr) == (cli.EXIT_CONFIG, "", CONFIG_VALUE_ERRORS[line])


@pytest.mark.parametrize("case, expected", EXIT_CODE_CASES)
def test_exit_code_contract(tmp_path, capsys, case, expected):
    argv = contract_argv(case, tmp_path, capsys)
    src = str(Path(kpsca.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-m", "kpsca.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert expected == cli.EXIT_OK or proc.stderr.count("\n") == 1, proc.stderr  # one line


# the other half of the exit-code contract: every flag of every command but
# --out, --config and --help, given each value below (zero, negative, not a
# number, huge or empty), ends in a documented exit code, never in an exception
SWEEP_VALUES = ("0", "-1", "nan", "inf", "1e308", "99999999999999999999", "")
SWEEP_ARGS = {"simulate": [], "auth-demo": [], "stats": [], "attack": ["TRACE"],
              "welch": ["TRACE"], "bruteforce": ["TRACE", "--suspects", "0"]}
_SUB, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
SWEEP_FLAGS = [(command, a.option_strings[0]) for command, p in _SUB.choices.items()
               for a in p._actions if a.option_strings and a.dest not in ("help", "config", "out")]


@pytest.fixture(scope="module")
def sweep_trace(tmp_path_factory):
    """One test8 trace with ground truth for the commands that read one."""
    out = tmp_path_factory.mktemp("sweep")
    assert cli.main(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)]) == 0
    return str(out / "trace.kptr")


def test_sweep_covers_every_command():
    assert {command for command, _ in SWEEP_FLAGS} == SWEEP_ARGS.keys() == _SUB.choices.keys()
    assert len(SWEEP_FLAGS) == 51


def sweep_argv(command, trace, out):
    """The command's line without a swept flag, which runs to completion."""
    return [command, *(trace if a == "TRACE" else a for a in SWEEP_ARGS[command]),
            "--curve", "test8", "--out", str(out)]


@pytest.mark.parametrize("command", sorted(SWEEP_ARGS))
def test_sweep_baseline_succeeds(tmp_path, capsys, sweep_trace, command):
    assert run(sweep_argv(command, sweep_trace, tmp_path), capsys)[0] == cli.EXIT_OK


@pytest.mark.parametrize("command, flag", SWEEP_FLAGS)
def test_flag_value_sweep(tmp_path, capsys, sweep_trace, command, flag):
    argv = sweep_argv(command, sweep_trace, tmp_path)
    for value in SWEEP_VALUES:
        try:
            code, usage_error = cli.main([*argv, flag, value]), False
        except SystemExit as exc:
            code, usage_error = exc.code, True
        out, err = capsys.readouterr()
        # warnings go to stderr only
        assert not any(line.startswith("warning:") for line in out.splitlines()), (value, out)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_SEGMENTATION), value
        # a command's failure is one stderr line; argparse also prints its usage
        assert code == cli.EXIT_OK or usage_error or err.count("\n") == 1, (value, err)


def test_config_keys_are_the_flag_destinations():
    # every option a command reads, except the config path itself and
    # --suspects, which argparse requires on the command line
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in sub.choices.values() for a in p._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)}
    assert cli.config_actions().keys() == dests - {"config", "suspects"}


def test_config_keys_of_other_commands_are_accepted(tmp_path, capsys):
    # one file can serve several commands: simulate ignores welch's and bruteforce's keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threshold=3\nbudget=2\npub=infinity\nnoise_sigma=0.5\n")
    code, stdout, stderr = run(["simulate", "--curve", "test8", "--config", str(cfg),
                                "--out", str(tmp_path)], capsys)
    assert (code, stderr) == (0, "")
    meta = json.loads((tmp_path / "trace.transcript.json").read_text())
    assert meta["run_config"]["noise_sigma"] == 0.5


# one text per config key that its flag accepts; the keys are the 23 options
# a config file may set
CONFIG_TEXTS = {
    "curve": "test8", "seed": "7", "out": "o", "scalar_bits": "12", "clock_hz": "5e7",
    "addr_weight": "0.5", "data_weight": "0.25", "baseline": "3", "noise_sigma": "0.125",
    "samples_per_cycle": "4", "slot_len": "9", "start_cycle": "11", "num_slots": "6",
    "compression": "sumsq", "key": "2e7", "point": "infinity", "no_ground_truth": "yes",
    "excerpt_cycles": "3", "pub": "1:2", "threshold": "2.5", "budget": "17",
    "sample_index": "4", "polarity": "smaller_is_zero",
}


def test_config_texts_cover_every_key():
    assert CONFIG_TEXTS.keys() == cli.config_actions().keys()
    assert len(CONFIG_TEXTS) == 23


@pytest.mark.parametrize("key", sorted(cli.config_actions()))
def test_config_value_equals_flag_value(tmp_path, monkeypatch, key):
    # the handler sees the same value whether the file or the flag gave it
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    command, action = next((name, a) for name, p in sub.choices.items()
                           for a in p._actions if a.dest == key)
    seen = []
    monkeypatch.setitem(cli._HANDLERS, command, lambda args: seen.append(args) or 0)
    argv = [command] + {"attack": ["t.kptr"], "welch": ["t.kptr"],
                        "bruteforce": ["t.kptr", "--suspects", "1"]}.get(command, [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={CONFIG_TEXTS[key]}\n")
    flag = [action.option_strings[0]] + ([] if action.const is True else [CONFIG_TEXTS[key]])
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert cli.main(argv + flag) == 0
    from_file, from_flag = (getattr(args, key) for args in seen)
    assert (type(from_file), from_file) == (type(from_flag), from_flag)
    assert from_flag is not None


def test_config_run_equals_flag_run(tmp_path, capsys):
    # simulate then attack, every RunConfig option set once from files and
    # once by flags: the same sidecar run_config and report.csv comment lines
    out = tmp_path / "run"
    simulate_opts = {"curve": "test8", "seed": "6", "out": str(out), "scalar_bits": "10",
                     "addr_weight": "0.5", "data_weight": "0.25", "baseline": "3",
                     "noise_sigma": "0.25", "samples_per_cycle": "4", "clock_hz": "5e7"}
    attack_opts = {"curve": "test8", "seed": "6", "out": str(out), "slot_len": "54",
                   "start_cycle": "62", "num_slots": "8", "compression": "sumsq"}
    assert {*simulate_opts, *attack_opts, "command"} == {
        f.name for f in dataclasses.fields(cli.RunConfig)}

    def run_both(as_flags: bool):
        outputs = []
        for argv, opts in ((["simulate"], simulate_opts),
                           (["attack", str(out / "trace.kptr")], attack_opts)):
            if as_flags:
                argv = argv + [f"--{k.replace('_', '-')}={v}" for k, v in opts.items()]
            else:
                cfg = tmp_path / f"{argv[0]}.cfg"
                cfg.write_text("".join(f"{k}={v}\n" for k, v in opts.items()))
                argv = argv + ["--config", str(cfg)]
            outputs.append(run(argv, capsys))
        sidecar = json.loads((out / "trace.transcript.json").read_text())["run_config"]
        comments = [line for line in (out / "report.csv").read_text().splitlines()
                    if line.startswith("#")]
        return outputs, sidecar, comments

    from_files, from_flags = run_both(False), run_both(True)
    assert [code for code, _, _ in from_files[0]] == [0, 0]
    assert from_files == from_flags
    assert "# compression=sumsq" in from_files[2] and from_files[1]["clock_hz"] == 5e7
