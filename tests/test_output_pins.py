"""Byte-level pins of the leakage simulator's output.

The hashes were recorded before the schedule became per-cycle arrays and
must not move when the simulator is restructured.  Only noiseless models
are pinned, so the values do not depend on numpy's random streams.
"""

import hashlib

import pytest

from kpsca import cli
from kpsca.curve import Scalar, kp_multiply
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
