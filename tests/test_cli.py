import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpsca
from kpsca import authproto, cli, leaksim
from kpsca.curve import Scalar, get_curve, kp_point
from kpsca.traces import read_trace

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
        _, stdout = simulate(
            tmp_path, capsys,
            "--addr-weight", "0", "--data-weight", "0", "--noise-sigma", "0",
        )
        assert "flat" in stdout

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


    def test_malformed_key(self, tmp_path, capsys):
        code, stdout, stderr = run(["simulate", "--curve", "test8", "--key", "zz",
                                    "--out", str(tmp_path)], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", "error: key must be a hex scalar, got 'zz'\n")

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

    @pytest.mark.parametrize("command", ["attack", "bruteforce"])
    @pytest.mark.parametrize("pub", ["zz", "1:2:3", "g:1"])
    def test_malformed_pub(self, tmp_path, capsys, command, pub):
        out = tmp_path / "sim"
        code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        extra = ["--suspects", "1"] if command == "bruteforce" else []
        code, stdout, stderr = run([command, str(out / "trace.kptr"), "--curve", "test8",
                                    "--out", str(out), "--pub", pub, *extra], capsys)
        assert (code, stdout, stderr) == (
            cli.EXIT_CONFIG, "", f"error: public key must be xhex:yhex or 'infinity', got '{pub}'\n")

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
        code, _, err = run(
            ["bruteforce", str(out / "trace.kptr"), "--num-slots", "230",
             "--suspects", "1"],
            capsys,
        )
        assert code == cli.EXIT_CONFIG

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
        planted = authproto.Identity.generate("b233", random.Random(2)).k
        assert f"recovered scalar: {planted.to_hex()}\n" in stdout

    def test_recovers_most_keys_at_sigma_1(self, capsys):
        recovered = [
            auth_demo(capsys, "b233", seed, "1.0")
            == (0, AUTH_DEMO_RECOVERED.format(
                authproto.Identity.generate("b233", random.Random(seed)).k.to_hex()), "")
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
    ("noise_sigma=nan", cli.EXIT_CONFIG),
    ("noise_sigma=inf", cli.EXIT_CONFIG),
    ("addr_weight=nan", cli.EXIT_CONFIG),
    ("data_weight=inf", cli.EXIT_CONFIG),
    ("baseline=-inf", cli.EXIT_CONFIG),
    ("curve=foo", cli.EXIT_CONFIG),
    ("seed=-1,sigma=0", cli.EXIT_CONFIG),
    ("seed=-1,sigma=0.5", cli.EXIT_CONFIG),
]

SIMULATE_FLAGS = ("excerpt_cycles", "noise_sigma", "addr_weight", "data_weight", "baseline")


def contract_argv(case, tmp_path, capsys):
    """Command line for one malformed input of the exit-code contract."""
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
    out = tmp_path / "sim"
    code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    trace = str(out / "trace.kptr")
    if name == "oversized_num_slots":
        return ["attack", trace, "--curve", "test8", "--num-slots", "5000", "--out", str(out)]
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
}


@pytest.mark.parametrize("line", sorted(CONFIG_VALUE_ERRORS))
def test_config_value_error_names_no_flag(tmp_path, capsys, line):
    out = tmp_path / "sim"
    code, _, _ = run(["simulate", "--curve", "test8", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    command = {"budget": ["bruteforce", str(out / "trace.kptr"), "--suspects", "1"],
               "threshold": ["welch", str(out / "trace.kptr")],
               "sample_index": ["bruteforce", str(out / "trace.kptr"), "--suspects", "1"],
               "excerpt_cycles": ["simulate"]}[line.partition("=")[0]]
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
