"""Command-line front end tying the pipeline together.

Subcommands: simulate, attack, welch, bruteforce, auth-demo, stats.
Options can come from a key=value config file (--config); explicit
flags win over the file, which wins over built-in defaults.  The parser
is the one option table: a file's keys are the flag destinations of all
commands (`config_actions`), and `main` checks the whole file before a
command runs, each value cast and its choices checked by its flag's
argparse action, so a file may hold any command's options and every
error names its key; a command applies the keys of its own flags.  The
resolved configuration is echoed into every report for reproducibility.
A command's warnings are printed to stderr as "warning: <message>" lines.

Exit codes: 0 command completed (an unsuccessful key recovery is data,
not an error), 2 usage/config errors, 3 I/O and trace-format errors,
4 segmentation errors.  Every trace, auth-demo's keyless view too, is
cut in `_segment_from_cfg`: into --num-slots slots, or else the whole
count >= 1 that its length holds on --curve.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from . import attack as attack_mod
from . import authproto, leaksim
from .curve import (
    AffinePoint,
    CURVE_IDS,
    NOMINAL_SCALAR_BITS,
    Scalar,
    fixed_base_multiples,
    get_curve,
    in_base_subgroup,
    kp_point,
)
from .leaksim import LeakModel, Schedule, synthesize_trace
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
MAX_SCALAR_BITS = 4096  # a simulate trace of a 4096-bit scalar is about 18 MB


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
    addr_weight: float = LeakModel.addr_weight
    data_weight: float = LeakModel.data_weight
    baseline: float = LeakModel.baseline
    noise_sigma: float = LeakModel.noise_sigma
    samples_per_cycle: int = LeakModel.samples_per_cycle
    clock_hz: float = LeakModel.clock_hz
    out: str = "."

    def echo_lines(self) -> list[str]:
        return [f"{k}={v}" for k, v in asdict(self).items() if v is not None]


def config_actions() -> dict[str, argparse.Action]:
    """Every option a config file may set, by key: the flag destinations of all
    subcommands but --config, and --suspects, which must be given as a flag."""
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for p in sub.choices.values() for a in p._actions
            if a.option_strings and a.dest not in ("help", "config", "suspects")}


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false/yes/no/1/0, got {text!r}") from None


def _config_value(action: argparse.Action, key: str, text: str):
    """A config file's `key=text`, cast and checked as its flag `action` would be."""
    cast = _parse_bool if action.const is True else action.type  # a switch takes a word
    try:
        value = text if cast is None else cast(text)
    except ValueError as exc:
        detail = exc if cast is _parse_bool else f"invalid {cast.__name__} value {text!r}"
        raise ValueError(f"config {key}: {detail}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"unknown {key} {value!r}; choose from {tuple(action.choices)}")
    return value


def _read_config_file(path: str) -> dict:
    actions, values = config_actions(), {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _config_value(actions[key], key, val.strip())
    return values


def _build_run_config(args) -> RunConfig:
    """The command and every option set by flag or file; RunConfig's defaults for the rest."""
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                       if getattr(args, f.name, None) is not None})
    if args.seed is None:
        text = os.environ.get(SEED_ENV, "").strip() or "0"
        try:
            cfg.seed = int(text)
        except ValueError:
            raise ValueError(f"environment {SEED_ENV}: invalid int value {text!r}") from None
    if cfg.scalar_bits is None:
        cfg.scalar_bits = NOMINAL_SCALAR_BITS[cfg.curve]
    if not 1 <= cfg.scalar_bits <= MAX_SCALAR_BITS:
        raise ValueError(f"scalar_bits must be in 1..{MAX_SCALAR_BITS}, got {cfg.scalar_bits}")
    if not (math.isfinite(cfg.clock_hz) and cfg.clock_hz > 0):
        raise ValueError(f"clock_hz must be a positive finite number, got {cfg.clock_hz}")
    return cfg


def _leak_model(cfg: RunConfig) -> LeakModel:
    return LeakModel(
        addr_weight=cfg.addr_weight,
        data_weight=cfg.data_weight,
        baseline=cfg.baseline,
        noise_sigma=cfg.noise_sigma,
        samples_per_cycle=cfg.samples_per_cycle,
        rng_seed=cfg.seed,
        clock_hz=cfg.clock_hz,
    )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_point(params, text: str, what: str) -> AffinePoint:
    try:
        return AffinePoint.from_hex(params.field, text)
    except ValueError:
        raise ValueError(f"{what} must be xhex:yhex or 'infinity', got {text!r}") from None


def _parse_pub(params, text: str) -> AffinePoint:
    """--pub as a point of <G> other than infinity: the points a private key gives."""
    pub = _parse_point(params, text, "public key")
    if pub.infinity:
        raise ValueError("public key is the point at infinity, which no private key gives")
    if not in_base_subgroup(pub, params):
        raise ValueError(f"public key {text} is not a multiple of G: no private key gives it")
    return pub


def _parse_key(text: str) -> Scalar:
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError(f"key must be a hex scalar, got {text!r}") from None
    if value.bit_length() > MAX_SCALAR_BITS:
        raise ValueError(f"key must have at most {MAX_SCALAR_BITS} bits, got {value.bit_length()}")
    return Scalar(value)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--curve", choices=CURVE_IDS)
    p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV}, then 0)")
    p.add_argument("--out", help="output directory (default: .)")


def _add_leak_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--addr-weight", type=float)
    p.add_argument("--data-weight", type=float)
    p.add_argument("--baseline", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--samples-per-cycle", type=int)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scalar-bits", type=int)
    p.add_argument("--clock-hz", type=float)


def _add_segmentation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slot-len", type=int)
    p.add_argument("--start-cycle", type=int)
    p.add_argument("--num-slots", type=int)
    p.add_argument("--compression", choices=[m.value for m in CompressionMethod])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; built once per process, as it depends only on constants."""
    parser = argparse.ArgumentParser(
        prog="kpsca",
        description="simulate a kP accelerator's leakage and attack it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a kP leakage trace")
    _add_common(p)
    _add_leak_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--key", help="scalar as hex (default: random from seed)")
    p.add_argument("--point", help="input point as xhex:yhex (default: random from seed)")
    p.add_argument("--no-ground-truth", action="store_true", default=None,
                   help="do not embed the key in the trace file")
    p.add_argument("--excerpt-cycles", type=int,
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
    p.add_argument("--threshold", type=float,
                   help=f"|t| flag threshold (default {attack_mod.DEFAULT_WELCH_THRESHOLD})")

    p = sub.add_parser("bruteforce", help="complete a key by flipping suspect bits")
    _add_common(p)
    _add_segmentation_flags(p)
    p.add_argument("trace")
    p.add_argument("--pub", help="public key xhex:yhex (default: recomputed from ground truth)")
    p.add_argument("--suspects", required=True,
                   help="comma-separated slot indices suspected wrong")
    p.add_argument("--budget", type=int, help="max candidate scalars tested (checks)")
    p.add_argument("--sample-index", type=int,
                   help="candidate to complete (default: best by ground truth)")
    p.add_argument("--polarity", choices=[pol.value for pol in attack_mod.Polarity])

    p = sub.add_parser("auth-demo", help="challenge-response, attack, and replay")
    _add_common(p)
    _add_leak_flags(p)
    _add_schedule_flags(p)

    p = sub.add_parser("stats", help="schedule arithmetic for a curve")
    _add_common(p)
    _add_schedule_flags(p)

    return parser


def _write_cycle_csv(path: Path, cfg: RunConfig, column: str, cells) -> None:
    """The run configuration as comments, then one `cycle,<column>` row per cell."""
    with path.open("w") as fh:
        fh.writelines(f"# {line}\n" for line in cfg.echo_lines())
        fh.write(f"cycle,{column}\n")
        fh.writelines(f"{j},{cell}\n" for j, cell in enumerate(cells))


def _simulate(args) -> int:
    cfg = _build_run_config(args)
    excerpt = args.excerpt_cycles
    if excerpt is not None and excerpt < 0:
        raise ValueError(f"excerpt cycle count must be >= 0, got {excerpt}")
    params = get_curve(cfg.curve)
    rng = random.Random(cfg.seed)
    k = _parse_key(args.key) if args.key else Scalar.random(rng, cfg.scalar_bits)
    if args.point:
        p = _parse_point(params, args.point, "point")
    else:
        # random multiple of the base point, guaranteed on-curve
        p, = fixed_base_multiples([Scalar.random(rng, cfg.scalar_bits).value], params)
    model = _leak_model(cfg)
    schedule = Schedule(k, p, params)
    trace = synthesize_trace(schedule, model)
    if model.addr_weight == 0 and model.data_weight == 0 and model.noise_sigma == 0:
        warnings.warn("all leakage weights and noise are zero; the trace is flat")

    out = _out_dir(cfg)
    trace_path = out / "trace.kptr"
    include_truth = not args.no_ground_truth
    write_trace(trace, trace_path, include_ground_truth=include_truth)
    sidecar = {
        "run_config": asdict(cfg),
        "key": k.to_hex() if include_truth else None,
        "scalar_bits": k.bit_length,
        "num_slots": schedule.num_slots,
        "slot_len": leaksim.SLOT_CYCLES,
        "slot_layout_version": leaksim.SLOT_LAYOUT_VERSION,
        "cycle0_cycle": schedule.cycle0,
        "total_cycles": schedule.total_cycles,
        "point": p.to_hex(),
    }
    (out / "trace.transcript.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"trace written to {trace_path}")
    print(f"main-loop slots: {schedule.num_slots} x {leaksim.SLOT_CYCLES} cycles, "
          f"total {schedule.total_cycles} cycles")
    if excerpt:
        values = compress(trace, CompressionMethod(cfg.compression))
        n = min(excerpt, values.shape[0])
        path = out / "excerpt.csv"
        _write_cycle_csv(path, cfg, "value", [f"{v:.17g}" for v in values[:n]])
        print(f"compressed excerpt ({n} cycles) written to {path}")
    return EXIT_OK


def _segment_from_cfg(cfg: RunConfig, trace):
    """The trace's (slots, cycles) array, from --start-cycle or else its first
    main-loop cycle, and its ground truth's main-loop bits (or None): the
    first num of them for a window that starts at that cycle."""
    values = compress(trace, CompressionMethod(cfg.compression))
    start = cfg.start_cycle if cfg.start_cycle is not None else trace.cycle0_cycle
    num = cfg.num_slots if cfg.num_slots is not None else leaksim.slot_count(
        values.shape[0], trace.cycle0_cycle, get_curve(cfg.curve).field.m)
    truth = trace.ground_truth.main_loop_bits if trace.ground_truth else None
    if truth is not None and start == trace.cycle0_cycle:
        truth = truth[:num]
    return segment(values, start, cfg.slot_len, num), truth


def _attack(args) -> int:
    cfg = _build_run_config(args)
    trace = read_trace(args.trace)
    matrix, truth = _segment_from_cfg(cfg, trace)
    params = get_curve(cfg.curve)
    pub = _parse_pub(params, args.pub) if args.pub else None
    report = attack_mod.evaluate(matrix, truth_bits=truth, pub=pub, params=params)
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
    cfg = _build_run_config(args)
    threshold = attack_mod.DEFAULT_WELCH_THRESHOLD if args.threshold is None else args.threshold
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be a finite number >= 0, got {threshold}")
    trace = read_trace(args.trace)
    if trace.ground_truth is None:
        raise ValueError("welch needs slot labels: the trace carries no ground truth")
    t = attack_mod.welch_t(*_segment_from_cfg(cfg, trace))
    out = _out_dir(cfg)
    path = out / "welch.csv"
    _write_cycle_csv(path, cfg, "t", [f"{v:.6g}" for v in t])
    flagged = [j for j in range(len(t)) if abs(t[j]) > threshold]
    print(f"cycles with |t| > {threshold}: {flagged}")
    print(f"welch table written to {path}")
    return EXIT_OK


def _bruteforce(args) -> int:
    cfg = _build_run_config(args)
    budget = attack_mod.DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if args.polarity is not None and args.sample_index is None:
        raise ValueError("--polarity selects a candidate only together with --sample-index")
    try:
        suspects = [int(s) for s in args.suspects.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(
            f"suspects must be comma-separated slot indices, got {args.suspects!r}") from None
    repeated = [s for i, s in enumerate(suspects) if s in suspects[:i]]
    if repeated:
        raise ValueError(f"suspect slot {repeated[0]} is given more than once")
    trace = read_trace(args.trace)
    params = get_curve(cfg.curve)
    matrix, truth = _segment_from_cfg(cfg, trace)
    report = attack_mod.evaluate(matrix, truth_bits=truth)

    if args.sample_index is not None:
        if not 0 <= args.sample_index < matrix.shape[1]:
            raise ValueError(
                f"sample index must be in 0..{matrix.shape[1] - 1}, got {args.sample_index}"
            )
        pol = attack_mod.Polarity(args.polarity or "smaller_is_one")
        candidate = report.candidates[report.candidates.column(args.sample_index, pol)]
    elif report.best_index is not None:
        candidate = report.best_candidate
    else:
        raise ValueError("no ground truth: select the candidate with --sample-index/--polarity")

    if args.pub:
        pub = _parse_pub(params, args.pub)
    elif trace.ground_truth is not None:
        pub, = fixed_base_multiples([trace.ground_truth.value], params)
    else:
        raise ValueError("--pub is required when the trace has no ground truth")

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
    cfg = _build_run_config(args)
    if cfg.scalar_bits < 4:  # the attack needs 2 main-loop slots
        raise ValueError(f"auth-demo needs scalars of at least 4 bits, got {cfg.scalar_bits}")
    rng = random.Random(cfg.seed)
    identity = authproto.Identity.generate(cfg.curve, rng, cfg.scalar_bits)
    ch = authproto.challenge(identity.pub, identity.params, rng, cfg.scalar_bits)
    model = _leak_model(cfg)
    q_b, trace = authproto.respond(identity, ch.R, model)
    honest = authproto.verify(ch.q_expected, q_b)
    print(f"honest authentication: {'ok' if honest else 'FAILED'}")

    # the attacker's view: the measured trace, without the key
    matrix, _ = _segment_from_cfg(cfg, trace.without_ground_truth())
    recovered = attack_mod.evaluate(matrix, pub=identity.pub, params=identity.params).key
    print(f"key recovered: {'yes' if recovered is not None else 'no'}")
    if recovered is None:
        return EXIT_OK
    print(f"recovered scalar: {recovered.to_hex()}")
    # the replay leaks nothing the demo measures, so it needs no schedule
    q_fake = kp_point(recovered, ch.R, identity.params)
    print(f"replayed response verifies: {'yes' if authproto.verify(ch.q_expected, q_fake) else 'no'}")
    print(f"identity stolen: attacker answers challenges as Bob")
    return EXIT_OK


def _stats(args) -> int:
    cfg = _build_run_config(args)
    params = get_curve(cfg.curve)
    rng = random.Random(cfg.seed)
    k = Scalar.random(rng, cfg.scalar_bits)
    schedule = Schedule(k, params.g, params)
    slot = leaksim.SLOT_CYCLES
    print(f"curve: {cfg.curve}, scalar bits: {cfg.scalar_bits}")
    print(f"init cycles: {leaksim.INIT_CYCLES}")
    print(f"pre-loop cycles: {slot if schedule.has_preloop else 0}")
    print(f"main loop: {schedule.num_slots} slots x {slot} cycles = {schedule.main_cycles}")
    print(f"epilogue cycles: {schedule.epilogue_len}")
    print(f"total cycles: {schedule.total_cycles}")
    print(f"per-slot ops: {schedule.per_slot_ops}")
    seconds = schedule.total_cycles / cfg.clock_hz
    print(f"execution time at {cfg.clock_hz/1e6:g} MHz: {seconds*1e3:.4f} ms")
    return EXIT_OK


_HANDLERS = {
    "simulate": _simulate,
    "attack": _attack,
    "welch": _welch,
    "bruteforce": _bruteforce,
    "auth-demo": _auth_demo,
    "stats": _stats,
}


def _run(args) -> int:
    """The command's exit code; a failure prints one line to stderr."""
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in config.items():  # a flag wins; the command's flags only
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, value)
    with warnings.catch_warnings():  # a command's warnings, one stderr line each
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return _run(args)


if __name__ == "__main__":
    sys.exit(main())
