"""Command-line front end tying the pipeline together.

Subcommands: simulate, attack, welch, bruteforce, auth-demo, stats.
Options can come from a key=value config file (--config); explicit
flags win over the file, which wins over built-in defaults.  The
resolved configuration is echoed into every report for
reproducibility.

Exit codes: 0 command completed (an unsuccessful key recovery is data,
not an error), 2 usage/config errors, 3 I/O and trace-format errors,
4 segmentation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

from . import attack as attack_mod
from . import authproto, leaksim
from .curve import (
    AffinePoint,
    CurveError,
    CURVE_IDS,
    NOMINAL_SCALAR_BITS,
    Scalar,
    get_curve,
    kp_multiply,
    kp_point,
)
from .gf2m import FieldMismatchError
from .leaksim import LeakModel, build_schedule, schedule_stats, synthesize_trace
from .traces import (
    CompressionMethod,
    SegmentationError,
    TraceFormatError,
    compress,
    read_trace,
    segment,
    write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SEGMENTATION = 4

SEED_ENV = "KPSCA_SEED"

_COMPRESSION = {"mean": CompressionMethod.MEAN, "sumsq": CompressionMethod.SUM_OF_SQUARES}


@dataclass
class RunConfig:
    command: str
    curve: str = "b233"
    seed: int = 0
    scalar_bits: Optional[int] = None
    slot_len: int = leaksim.SLOT_CYCLES
    start_cycle: Optional[int] = None
    num_slots: Optional[int] = None
    compression: str = "mean"
    addr_weight: float = 1.0
    data_weight: float = 0.0
    baseline: float = 10.0
    noise_sigma: float = 0.0
    samples_per_cycle: int = 10
    clock_hz: float = 100e6
    out: str = "."

    def echo_lines(self) -> list[str]:
        return [f"{k}={v}" for k, v in asdict(self).items() if v is not None]


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line is not key=value: {raw!r}")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false/yes/no/1/0, got {text!r}") from None


def _resolve(args, name: str, cast, fallback):
    """flag > config file > fallback."""
    v = getattr(args, name, None)
    if v is not None:
        return v
    cfg = getattr(args, "_config_values", {})
    if name in cfg:
        return cast(cfg[name])
    return fallback


def _resolve_seed(args) -> int:
    v = _resolve(args, "seed", int, None)
    if v is not None:
        return v
    env = os.environ.get(SEED_ENV, "").strip()
    return int(env) if env else 0


def _build_run_config(args, command: str) -> RunConfig:
    cfg = RunConfig(command=command)
    cfg.curve = _resolve(args, "curve", str, cfg.curve)
    cfg.seed = _resolve_seed(args)
    cfg.scalar_bits = _resolve(args, "scalar_bits", int, NOMINAL_SCALAR_BITS.get(cfg.curve))
    cfg.slot_len = _resolve(args, "slot_len", int, cfg.slot_len)
    cfg.start_cycle = _resolve(args, "start_cycle", int, None)
    cfg.num_slots = _resolve(args, "num_slots", int, None)
    cfg.compression = _resolve(args, "compression", str, cfg.compression)
    cfg.addr_weight = _resolve(args, "addr_weight", float, cfg.addr_weight)
    cfg.data_weight = _resolve(args, "data_weight", float, cfg.data_weight)
    cfg.baseline = _resolve(args, "baseline", float, cfg.baseline)
    cfg.noise_sigma = _resolve(args, "noise_sigma", float, cfg.noise_sigma)
    cfg.samples_per_cycle = _resolve(args, "samples_per_cycle", int, cfg.samples_per_cycle)
    cfg.clock_hz = _resolve(args, "clock_hz", float, cfg.clock_hz)
    cfg.out = _resolve(args, "out", str, cfg.out)
    if cfg.compression not in _COMPRESSION:
        raise CurveError(f"unknown compression {cfg.compression!r}")
    if not (math.isfinite(cfg.clock_hz) and cfg.clock_hz > 0):
        raise CurveError(f"clock_hz must be a positive finite number, got {cfg.clock_hz}")
    return cfg


def _leak_model(cfg: RunConfig) -> LeakModel:
    return LeakModel(
        addr_weight=cfg.addr_weight,
        data_weight=cfg.data_weight,
        baseline=cfg.baseline,
        noise_sigma=cfg.noise_sigma,
        samples_per_cycle=cfg.samples_per_cycle,
        rng_seed=cfg.seed,
    )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_point(params, text: str) -> AffinePoint:
    return AffinePoint.from_hex(params.field, text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--curve", choices=CURVE_IDS)
    p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV}, then 0)")
    p.add_argument("--out", help="output directory (default: .)")


def _add_leak_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--addr-weight", type=float, dest="addr_weight")
    p.add_argument("--data-weight", type=float, dest="data_weight")
    p.add_argument("--baseline", type=float)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p.add_argument("--samples-per-cycle", type=int, dest="samples_per_cycle")
    p.add_argument("--clock-hz", type=float, dest="clock_hz")


def _add_segmentation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slot-len", type=int, dest="slot_len")
    p.add_argument("--start-cycle", type=int, dest="start_cycle")
    p.add_argument("--num-slots", type=int, dest="num_slots")
    p.add_argument("--compression", choices=sorted(_COMPRESSION))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpsca",
        description="simulate a kP accelerator's leakage and attack it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a kP leakage trace")
    _add_common(p)
    _add_leak_flags(p)
    p.add_argument("--scalar-bits", type=int, dest="scalar_bits")
    p.add_argument("--key", help="scalar as hex (default: random from seed)")
    p.add_argument("--point", help="input point as xhex:yhex (default: random from seed)")
    p.add_argument("--no-ground-truth", action="store_true", default=None,
                   dest="no_ground_truth", help="do not embed the key in the trace file")
    p.add_argument("--excerpt-cycles", type=int, dest="excerpt_cycles",
                   help="also write the first N compressed cycles as plot data")

    p = sub.add_parser("attack", help="comparison-to-the-mean key extraction")
    _add_common(p)
    _add_segmentation_flags(p)
    p.add_argument("trace", help="trace file (.kptr or .csv)")
    p.add_argument("--pub", help="public key xhex:yhex to verify candidates against")

    p = sub.add_parser("welch", help="Welch t-test between 0- and 1-slots (needs ground truth)")
    _add_common(p)
    _add_segmentation_flags(p)
    p.add_argument("trace")
    p.add_argument("--threshold", type=float, default=None,
                   help=f"|t| flag threshold (default {attack_mod.DEFAULT_WELCH_THRESHOLD})")

    p = sub.add_parser("bruteforce", help="complete a key by flipping suspect bits")
    _add_common(p)
    _add_segmentation_flags(p)
    p.add_argument("trace")
    p.add_argument("--pub", help="public key xhex:yhex (default: recomputed from ground truth)")
    p.add_argument("--suspects", required=True,
                   help="comma-separated slot indices suspected wrong")
    p.add_argument("--budget", type=int, default=None,
                   help="max candidate scalars tested (checks)")
    p.add_argument("--sample-index", type=int, dest="sample_index",
                   help="candidate to complete (default: best by ground truth)")
    p.add_argument("--polarity", choices=[pol.value for pol in attack_mod.Polarity])

    p = sub.add_parser("auth-demo", help="challenge-response, attack, and replay")
    _add_common(p)
    _add_leak_flags(p)
    p.add_argument("--scalar-bits", type=int, dest="scalar_bits")

    p = sub.add_parser("stats", help="schedule arithmetic for a curve")
    _add_common(p)
    p.add_argument("--scalar-bits", type=int, dest="scalar_bits")
    p.add_argument("--clock-hz", type=float, dest="clock_hz")

    return parser


def _simulate(args) -> int:
    cfg = _build_run_config(args, "simulate")
    excerpt = _resolve(args, "excerpt_cycles", int, None)
    if excerpt is not None and excerpt < 0:
        raise CurveError(f"--excerpt-cycles must be >= 0, got {excerpt}")
    params = get_curve(cfg.curve)
    rng = random.Random(cfg.seed)
    key_hex = _resolve(args, "key", str, None)
    k = Scalar.from_hex(key_hex) if key_hex else Scalar.random(rng, cfg.scalar_bits)
    point_hex = _resolve(args, "point", str, None)
    if point_hex:
        p = _parse_point(params, point_hex)
    else:
        # random multiple of the base point, guaranteed on-curve
        p = kp_point(Scalar.random(rng, cfg.scalar_bits), params.g, params)
    model = _leak_model(cfg)
    _, transcript = kp_multiply(k, p, params)
    schedule = build_schedule(transcript)
    trace = synthesize_trace(schedule, model, cfg.clock_hz)
    if model.addr_weight == 0 and model.data_weight == 0 and model.noise_sigma == 0:
        print("warning: all leakage weights and noise are zero; the trace is flat")

    out = _out_dir(cfg)
    trace_path = out / "trace.kptr"
    include_truth = not _resolve(args, "no_ground_truth", _parse_bool, False)
    write_trace(trace, trace_path, include_ground_truth=include_truth)
    sidecar = {
        "run_config": asdict(cfg),
        "key": k.to_hex() if include_truth else None,
        "scalar_bits": k.bit_length,
        "num_slots": schedule.num_slots,
        "slot_len": schedule.slot_len,
        "slot_layout_version": schedule.layout_version,
        "cycle0_cycle": schedule.cycle0,
        "total_cycles": schedule.total_cycles,
        "point": p.to_hex(),
    }
    (out / "trace.transcript.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"trace written to {trace_path}")
    print(f"main-loop slots: {schedule.num_slots} x {schedule.slot_len} cycles, "
          f"total {schedule.total_cycles} cycles")
    if excerpt:
        ct = compress(trace, _COMPRESSION[cfg.compression])
        n = min(excerpt, ct.values.shape[0])
        path = out / "excerpt.csv"
        with path.open("w") as fh:
            for line in cfg.echo_lines():
                fh.write(f"# {line}\n")
            fh.write("cycle,value\n")
            for j in range(n):
                fh.write(f"{j},{ct.values[j]:.17g}\n")
        print(f"compressed excerpt ({n} cycles) written to {path}")
    return EXIT_OK


def _segment_from_cfg(cfg: RunConfig, trace) -> tuple:
    ct = compress(trace, _COMPRESSION[cfg.compression])
    start = cfg.start_cycle if cfg.start_cycle is not None else ct.cycle0_offset
    num = cfg.num_slots
    if num is None:
        if trace.ground_truth is None:
            raise CurveError("--num-slots is required when the trace has no ground truth")
        num = max(trace.ground_truth.bit_length - 2, 0)
    return ct, segment(ct, start, cfg.slot_len, num)


def _attack(args) -> int:
    cfg = _build_run_config(args, "attack")
    trace = read_trace(args.trace)
    _, matrix = _segment_from_cfg(cfg, trace)
    truth = trace.ground_truth.main_loop_bits if trace.ground_truth else None
    pub_hex = _resolve(args, "pub", str, None)
    params = get_curve(cfg.curve)
    pub = _parse_point(params, pub_hex) if pub_hex else None
    report = attack_mod.evaluate(
        matrix, truth_bits=truth,
        g=params.g if pub else None, pub=pub, params=params if pub else None,
    )
    out = _out_dir(cfg)
    report_path = out / "report.csv"
    attack_mod.report_to_csv(report, report_path, cfg.echo_lines())
    for line in report.summary_lines():
        print(line)
    if report.verified is not None:
        print("verified:", "yes" if report.verified.any() else "no")
    print(f"report written to {report_path}")
    return EXIT_OK


def _welch(args) -> int:
    cfg = _build_run_config(args, "welch")
    trace = read_trace(args.trace)
    if trace.ground_truth is None:
        raise CurveError("welch needs slot labels: the trace carries no ground truth")
    _, matrix = _segment_from_cfg(cfg, trace)
    labels = trace.ground_truth.main_loop_bits
    t = attack_mod.welch_t(matrix, labels)
    threshold = args.threshold if args.threshold is not None else attack_mod.DEFAULT_WELCH_THRESHOLD
    out = _out_dir(cfg)
    path = out / "welch.csv"
    with path.open("w") as fh:
        for line in cfg.echo_lines():
            fh.write(f"# {line}\n")
        fh.write("cycle,t\n")
        for j, v in enumerate(t):
            fh.write(f"{j},{v:.6g}\n")
    flagged = [j for j in range(len(t)) if abs(t[j]) > threshold]
    print(f"cycles with |t| > {threshold}: {flagged}")
    print(f"welch table written to {path}")
    return EXIT_OK


def _bruteforce(args) -> int:
    cfg = _build_run_config(args, "bruteforce")
    budget = args.budget if args.budget is not None else 1 << 17
    if budget < 0:
        raise CurveError(f"--budget must be >= 0, got {budget}")
    trace = read_trace(args.trace)
    params = get_curve(cfg.curve)
    _, matrix = _segment_from_cfg(cfg, trace)
    truth = trace.ground_truth.main_loop_bits if trace.ground_truth else None
    report = attack_mod.evaluate(matrix, truth_bits=truth)

    sample_index = _resolve(args, "sample_index", int, None)
    if sample_index is not None:
        if not 0 <= sample_index < matrix.slot_len:
            raise CurveError(
                f"--sample-index must be in 0..{matrix.slot_len - 1}, got {sample_index}"
            )
        pol = attack_mod.Polarity(args.polarity or "smaller_is_one")
        candidate = next(
            c for c in report.candidates
            if c.sample_index == sample_index and c.polarity == pol
        )
    elif report.best_index is not None:
        candidate = report.best_candidate
    else:
        raise CurveError("no ground truth: select the candidate with --sample-index/--polarity")

    pub_hex = _resolve(args, "pub", str, None)
    if pub_hex:
        pub = _parse_point(params, pub_hex)
    elif trace.ground_truth is not None:
        pub = kp_point(trace.ground_truth, params.g, params)
    else:
        raise CurveError("--pub is required when the trace has no ground truth")

    suspects = [int(s) for s in args.suspects.split(",") if s.strip() != ""]
    result = attack_mod.brute_force_complete(
        candidate, suspects, params.g, pub, params, budget=budget
    )
    if result.key is not None:
        print(f"key found: {result.key.to_hex()} after {result.checks} point multiplications")
    elif result.budget_exhausted:
        print(f"not found within budget ({result.checks} point multiplications)")
    else:
        print(f"enumeration exhausted without a match ({result.checks} point multiplications)")
    return EXIT_OK


def _auth_demo(args) -> int:
    cfg = _build_run_config(args, "auth-demo")
    rng = random.Random(cfg.seed)
    identity = authproto.Identity.generate(cfg.curve, rng, cfg.scalar_bits)
    ch = authproto.challenge(identity.pub, identity.params, rng, cfg.scalar_bits)
    model = _leak_model(cfg)
    q_b, trace = authproto.respond(identity, ch.R, model, cfg.clock_hz)
    honest = authproto.verify(ch.q_expected, q_b)
    print(f"honest authentication: {'ok' if honest else 'FAILED'}")

    # the attacker's view: the measured trace, without the key
    matrix = segment(
        compress(trace.without_ground_truth(), _COMPRESSION[cfg.compression]),
        trace.cycle0_cycle, cfg.slot_len, identity.k.bit_length - 2,
    )
    report = attack_mod.evaluate(matrix)
    recovered = None
    for cand in report.candidates:
        recovered = attack_mod.recover_scalar(
            cand, identity.params.g, identity.pub, identity.params
        )
        if recovered is not None:
            break
    print(f"key recovered: {'yes' if recovered is not None else 'no'}")
    if recovered is None:
        return EXIT_OK
    print(f"recovered scalar: {recovered.to_hex()}")
    stolen = authproto.Identity(cfg.curve, identity.params, recovered, identity.pub)
    q_fake, _ = authproto.respond(stolen, ch.R, model, cfg.clock_hz)
    print(f"replayed response verifies: {'yes' if authproto.verify(ch.q_expected, q_fake) else 'no'}")
    print(f"identity stolen: attacker answers challenges as Bob")
    return EXIT_OK


def _stats(args) -> int:
    cfg = _build_run_config(args, "stats")
    params = get_curve(cfg.curve)
    rng = random.Random(cfg.seed)
    k = Scalar.random(rng, cfg.scalar_bits)
    _, transcript = kp_multiply(k, params.g, params)
    stats = schedule_stats(build_schedule(transcript), cfg.clock_hz)
    print(f"curve: {cfg.curve}, scalar bits: {cfg.scalar_bits}")
    print(f"init cycles: {stats.init_cycles}")
    print(f"pre-loop cycles: {stats.preloop_cycles}")
    print(f"main loop: {stats.num_slots} slots x {stats.slot_len} cycles = {stats.main_cycles}")
    print(f"epilogue cycles: {stats.epilogue_cycles}")
    print(f"total cycles: {stats.total_cycles}")
    print(f"per-slot ops: {stats.per_slot_ops}")
    print(f"execution time at {stats.clock_hz/1e6:g} MHz: {stats.execution_time_s*1e3:.4f} ms")
    return EXIT_OK


_HANDLERS = {
    "simulate": _simulate,
    "attack": _attack,
    "welch": _welch,
    "bruteforce": _bruteforce,
    "auth-demo": _auth_demo,
    "stats": _stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = _read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except SegmentationError as exc:
        print(f"segmentation error: {exc}", file=sys.stderr)
        return EXIT_SEGMENTATION
    except TraceFormatError as exc:
        print(f"trace format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CurveError, FieldMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
