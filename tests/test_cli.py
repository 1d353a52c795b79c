import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpsca
from kpsca import cli
from kpsca.curve import get_curve, kp_point
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


class TestAuthDemo:
    def test_recovers_key(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["auth-demo", "--curve", "b233", "--seed", "9"], capsys
        )
        assert code == 0
        assert "honest authentication: ok" in stdout
        assert "key recovered: yes" in stdout
        assert "replayed response verifies: yes" in stdout

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
    ("no_ground_truth=maybe", cli.EXIT_CONFIG),
    ("excerpt_cycles=-3", cli.EXIT_CONFIG),
    ("budget=-1", cli.EXIT_CONFIG),
    ("noise_sigma=nan", cli.EXIT_CONFIG),
    ("noise_sigma=inf", cli.EXIT_CONFIG),
    ("addr_weight=nan", cli.EXIT_CONFIG),
    ("data_weight=inf", cli.EXIT_CONFIG),
    ("baseline=-inf", cli.EXIT_CONFIG),
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
    if name in ("unparsable_count", "undecodable_meta"):
        path = write_bad_trace(tmp_path, ".csv", name)
        return ["attack", str(path), "--num-slots", "5", "--out", str(tmp_path)]
    if name == "missing_trace":
        return ["attack", str(tmp_path / "nope.kptr")]
    if name == "bad_config_line":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=test8\nnot a key value line\n")
        return ["attack", str(tmp_path / "nope.kptr"), "--config", str(cfg)]
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
    flag = "--budget" if name == "budget" else "--sample-index"
    return ["bruteforce", trace, "--curve", "test8", "--suspects", "1", f"{flag}={value}"]


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
