"""Byte-level pins of the leakage simulator's and the CLI's output.

The simulator hashes were recorded before the schedule became per-cycle
arrays, the CLI hashes before the attacker's view became plain arrays;
neither may move when the code is restructured.  The simulator pins use
noiseless models only, so they do not depend on numpy's random streams;
the attack pins read seeded noisy traces.  Output directories are
replaced by "<out>" before hashing, because the echoed configuration and
the messages name them.
"""

import hashlib

import pytest

from kpsca import cli
from kpsca.curve import Scalar, get_curve, kp_multiply, kp_point
from kpsca.traces import read_trace
from kpsca.leaksim import LeakModel, build_schedule, cycle_power

MODELS = {
    "default": LeakModel(),
    "addr0.3": LeakModel(addr_weight=0.3),
    "addr1_data0.25": LeakModel(addr_weight=1.0, data_weight=0.25),
    "flat3.5": LeakModel(addr_weight=0.0, data_weight=0.0, baseline=3.5),
}

CYCLE_POWER_SHA256 = {
    ("b233", "default"): "d587d6b79c18ac8879c6555523384eac63750d628425f7840d0a57ac82114311",
    ("b233", "addr0.3"): "dbab5c80fafed375dcf7440bca0e73c783e6b21f3e59b605fc037ff260024431",
    ("b233", "addr1_data0.25"): "734726b7edcab67df1fc47d6071f310487e1dad6b2c1d1d4a7b85d82e176486d",
    ("b233", "flat3.5"): "cfd7c53569ee745e530ce3240fc7b3d7525ddeb16761c5533ff6cc4890496e3e",
    ("test8_91", "default"): "0349aa2c8070b081b53f7752b988afe3a86885d939590c9dffe1506941fb5743",
    ("test8_91", "addr0.3"): "831ea9b747c8739047e2f4e54ee9bbd9f334227765f5e8961c98cc6a10a28a48",
    ("test8_91", "addr1_data0.25"): "a382d5be07e6b62e50843e522d3dbd89050616057f5d2b50eac97d688e9bd889",
    ("test8_91", "flat3.5"): "6242639ad27047b0f1a35211e04e37d0640fb19394e338df2eb7f0e7f651798d",
    ("test8_1", "default"): "f7a870a0b214070fadafd5c018afae1418cf27892d71769a1cad6756628c53bb",
    ("test8_1", "addr0.3"): "fcfe9becc7e7649641b70d9e683a2cf9443950ef775ef4e54097e139226cca43",
    ("test8_1", "addr1_data0.25"): "4ff0297b8cdc68fcc94fe7943a5f471ffaf94055db2a528072dcda0dc3416c5b",
    ("test8_1", "flat3.5"): "97a320855474d6b7f85065bc9af83843129f38a96a1ab554cb64d38d0bb79526",
}

SIMULATE_KPTR_SHA256 = {
    (): "a710c210126507b331c62dd3b5b3658f5348a2460ebbe61af4c84e9524a167db",
    ("--data-weight", "0.25"): "34d712296e719f59d93094c77e5b9ecdb90a52d78213d3c672d432af66554caf",
}


@pytest.fixture(scope="module")
def schedules(b233_run, test8):
    out = {"b233": b233_run[4]}
    for k in (0b1011011, 1):
        _, transcript = kp_multiply(Scalar(k), test8.g, test8)
        out[f"test8_{k}"] = build_schedule(transcript)
    return out


@pytest.mark.parametrize("case,model", sorted(CYCLE_POWER_SHA256))
def test_cycle_power_bytes(schedules, case, model):
    power = cycle_power(schedules[case], MODELS[model])
    assert hashlib.sha256(power.tobytes()).hexdigest() == CYCLE_POWER_SHA256[(case, model)]


@pytest.mark.parametrize("extra", sorted(SIMULATE_KPTR_SHA256))
def test_simulate_kptr_bytes(tmp_path, capsys, extra):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--curve", "b233", "--seed", "5", "--out", str(out), *extra])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256((out / "trace.kptr").read_bytes()).hexdigest()
    assert digest == SIMULATE_KPTR_SHA256[extra]


STATS_STDOUT_SHA256 = {
    ("--curve", "b233", "--scalar-bits", "233"): "87f35ee44c5a7d535992480016f0af024e8c4da281699612bb25b12dd39d6290",
    ("--scalar-bits", "1"): "09df363d93f2e70f1702a054bc65332c2d304bcdbc157189c33ca7ff9b57a229",
    ("--curve", "test8", "--clock-hz", "12345"): "c99c273dbb81f358835a478ffc671903fdd90ef4b7b7a4749db4712e53bd6704",
}

SIMULATE_OUTPUT_SHA256 = {
    "stdout": "8c94b3a1f58e37c3d754d828e8438bb43d38199f7b8d7d3a36aaefa06ecd2d24",
    "trace.transcript.json": "2bec34a445dc98645589d242b2828b6b77be419f438d3c11635a004437974e35",
    "excerpt.csv": "3291cab77007776cf8e9453ddb4dc65b8d2885710abc124e862bf90ead00bf93",
}

# the traces the attack pins read, per curve: `simulate --curve <curve> <arguments>`.
# On test8, 2^(L+2) > n, so `attack --pub` computes every distinct complement
# pair.  Seed 5's columns hold duplicates and complements, and verifying
# candidates start with 0 and with 1, with pre-loop bits 0 and 1.
NOISY_TRACES = {
    "b233": ("--seed", "7", "--noise-sigma", "0.5"),
    "test8": ("--seed", "5", "--noise-sigma", "0.5"),
}

# (command, its extra arguments) -> sha256 of stdout and of the file it writes;
# each reads the trace of its --curve (b233, the default, if none is given).
# Column 61 of the B-233 trace, sample index 7 read as smaller_is_zero,
# carries the key's main-loop bits, as the default (best by ground truth)
# candidate does, so bruteforce prints the same line for both; any other
# column of sample index 7 reads a wrong bit.
ATTACK_OUTPUT_SHA256 = {
    ("attack", "--pub", "<pub>"): (
        "b9e4b4d2251a4853a9369289a2006563814513abe7db2c6607087b65322d0af4",
        "38d8b7737eeda73de1d7a4eef3ea895ca9390292c86f9c457bd315a8e45429cc"),
    ("attack",): (
        "143cb581885dc5c3b0486d97c3244c5846e9295fd7c07ed054bf42e4d756bfd9",
        "b80eb389e17a0d37381e94829f959f70216d3ae26077b2d1dea573ce3ac8805d"),
    ("welch",): (
        "26d93a8ceb88af8ba82fc76c142e5a8c0eb8c12d9d89f3d5c21d14e1ace83474",
        "6658c74c31a3dd9c9435da0fbb166e88187adf7b6bb22a259b7b6887ffeab909"),
    ("bruteforce", "--suspects", "0,3,5"): (
        "8f7364d7f6d5e7fe5370ca0b8a9b1225c070edc9a68ef254228d229825a84afb", None),
    ("attack", "--curve", "test8", "--pub", "<pub>"): (
        "1f0ce27f3b9f4123fec2aeb4a4fce46937fe637bf612cacf6c6341e5bad5d9ad",
        "7bfd9c3f3ec7eb65d274739ed2fc0d1159d430e635ed8e8c6177e759c3626ad8"),
    ("bruteforce", "--suspects", "0,3,5", "--sample-index", "7", "--polarity",
     "smaller_is_zero"): (
        "8f7364d7f6d5e7fe5370ca0b8a9b1225c070edc9a68ef254228d229825a84afb", None),
}
_WRITES = {"attack": "report.csv", "welch": "welch.csv", "bruteforce": None}


def _sha(text: str, out) -> str:
    return hashlib.sha256(text.replace(str(out), "<out>").encode()).hexdigest()


def _cli_stdout(capsys, argv) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.fixture
def fixed_seed_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


@pytest.mark.parametrize("args", sorted(STATS_STDOUT_SHA256))
def test_stats_stdout(capsys, fixed_seed_env, args):
    stdout = _cli_stdout(capsys, ["stats", *args])
    assert hashlib.sha256(stdout.encode()).hexdigest() == STATS_STDOUT_SHA256[args]


def test_simulate_sidecar_and_excerpt(tmp_path, capsys):
    out = tmp_path / "sim"
    stdout = _cli_stdout(capsys, ["simulate", "--curve", "b233", "--seed", "5",
                                  "--excerpt-cycles", "200", "--out", str(out)])
    got = {"stdout": _sha(stdout, out)}
    for name in ("trace.transcript.json", "excerpt.csv"):
        got[name] = _sha((out / name).read_text(), out)
    assert got == SIMULATE_OUTPUT_SHA256


@pytest.fixture(scope="module")
def noisy_traces(tmp_path_factory):
    """Per curve: the trace NOISY_TRACES names and its public key as hex."""
    traces = {}
    for curve, args in NOISY_TRACES.items():
        out = tmp_path_factory.mktemp(f"noisy_{curve}")
        assert cli.main(["simulate", "--curve", curve, *args, "--out", str(out)]) == 0
        path = out / "trace.kptr"
        params = get_curve(curve)
        pub = kp_point(read_trace(path).ground_truth, params.g, params)
        traces[curve] = path, pub.to_hex()
    return traces


@pytest.mark.parametrize("command", sorted(ATTACK_OUTPUT_SHA256))
def test_attack_outputs(tmp_path, capsys, noisy_traces, command):
    out = tmp_path / "out"
    name, *extra = command
    curve = extra[extra.index("--curve") + 1] if "--curve" in extra else "b233"
    trace, pub = noisy_traces[curve]
    extra = [pub if a == "<pub>" else a for a in extra]
    stdout = _cli_stdout(capsys, [name, str(trace), "--seed", "7", *extra, "--out", str(out)])
    written = _WRITES[name]
    got = (_sha(stdout, out), written and _sha((out / written).read_text(), out))
    assert got == ATTACK_OUTPUT_SHA256[command]
