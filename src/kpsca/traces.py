"""Trace persistence, per-clock-cycle compression and slot segmentation.

Two compression rules are supported, both collapsing each clock cycle
to a single value: the per-cycle mean (the natural choice for
simulated power) and the per-cycle sum of squares (the choice for
measured EM traces, where the signal rides on oscillation).  The
method is always an explicit argument, never inferred.

Binary trace format ("KPTR", little-endian throughout):

    magic            4 bytes  b"KPTR"
    version          u16      = 1
    samples_per_cycle u32
    cycle0_offset    u64      sample index where the first main-loop slot begins
    clock_hz         f64
    sample_count     u64
    samples          f64 * sample_count
    [optional] ground-truth scalar: u32 hex-string length + ASCII hex

The CSV alternative stores one sample per line (17 significant
digits) with the metadata in a sibling ".meta" key=value file.
"""

from __future__ import annotations

import enum
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .curve import CurveError, Scalar


class TraceFormatError(ValueError):
    """Base class for trace file problems."""


class BadMagicError(TraceFormatError):
    pass


class FormatVersionError(TraceFormatError):
    pass


class TruncatedTraceError(TraceFormatError):
    pass


class BadMetadataError(TraceFormatError):
    """A header or metadata value is unusable: zero samples per cycle, a bad key."""


class SegmentationError(ValueError):
    def __init__(self, msg: str, max_feasible_slots: int):
        super().__init__(msg)
        self.max_feasible_slots = max_feasible_slots


@dataclass
class Trace:
    """Raw sampled trace; synthetic traces carry their ground-truth scalar."""

    samples: np.ndarray
    samples_per_cycle: int
    cycle0_offset: int  # sample index where the first main-loop slot begins
    clock_hz: float = 100e6
    ground_truth: Optional[Scalar] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    @property
    def cycle0_cycle(self) -> int:
        return self.cycle0_offset // self.samples_per_cycle

    def without_ground_truth(self) -> "Trace":
        return Trace(
            self.samples.copy(), self.samples_per_cycle,
            self.cycle0_offset, self.clock_hz, None,
        )


class CompressionMethod(enum.Enum):
    MEAN = "mean"
    SUM_OF_SQUARES = "sumsq"


@dataclass
class CompressedTrace:
    values: np.ndarray  # one value per clock cycle
    method: CompressionMethod
    cycle0_offset: int  # in cycles (the source trace's offset / samples_per_cycle)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class SlotMatrix:
    """slots[i, j]: compressed value of cycle j within main-loop slot i."""

    slots: np.ndarray
    slot_len: int
    start_cycle: int

    @property
    def num_slots(self) -> int:
        return self.slots.shape[0]


def compress(trace: Trace, method: CompressionMethod) -> CompressedTrace:
    """Collapse each clock cycle to one value per the chosen rule."""
    spc = trace.samples_per_cycle
    n = trace.samples.shape[0]
    if n == 0:
        raise ValueError("cannot compress an empty trace")
    n_cycles, rem = divmod(n, spc)
    samples = trace.samples
    if rem:
        warnings.warn(
            f"trace length {n} is not a multiple of samples_per_cycle={spc}; "
            f"dropping {rem} trailing samples",
            stacklevel=2,
        )
        samples = samples[: n_cycles * spc]
    grid = samples.reshape(n_cycles, spc)
    if method == CompressionMethod.MEAN:
        values = grid.mean(axis=1)
    elif method == CompressionMethod.SUM_OF_SQUARES:
        values = np.square(grid).sum(axis=1)
    else:
        raise ValueError(f"unknown compression method {method!r}")
    return CompressedTrace(values, method, trace.cycle0_offset // spc)


def segment(ct: CompressedTrace, start_cycle: int, slot_len: int, num_slots: int) -> SlotMatrix:
    """Cut the compressed trace into the slots x samples matrix.

    The segmentation parameters are the central attacker unknown, so
    they are explicit inputs; a bounds failure reports how many slots
    would have fit.
    """
    if slot_len < 1 or num_slots < 1:
        raise ValueError("slot_len and num_slots must be positive")
    n = ct.values.shape[0]
    if start_cycle < 0 or start_cycle > n:
        raise SegmentationError(
            f"start_cycle {start_cycle} outside the trace (0..{n})", 0
        )
    max_slots = (n - start_cycle) // slot_len
    if num_slots > max_slots:
        raise SegmentationError(
            f"window of {num_slots} x {slot_len} cycles from cycle {start_cycle} "
            f"exceeds the trace; at most {max_slots} slots fit",
            max_slots,
        )
    window = ct.values[start_cycle : start_cycle + num_slots * slot_len]
    return SlotMatrix(window.reshape(num_slots, slot_len).copy(), slot_len, start_cycle)


_HEADER = struct.Struct("<4sHIQdQ")
_MAGIC = b"KPTR"
_VERSION = 1


def write_trace(trace: Trace, path, include_ground_truth: bool = True) -> None:
    """Persist a trace; dispatches on extension (.csv -> text, else binary)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(trace, path, include_ground_truth)
        return
    blob = bytearray()
    blob += _HEADER.pack(
        _MAGIC, _VERSION, trace.samples_per_cycle,
        trace.cycle0_offset, trace.clock_hz, trace.samples.shape[0],
    )
    blob += np.ascontiguousarray(trace.samples, dtype="<f8").tobytes()
    if include_ground_truth and trace.ground_truth is not None:
        hexkey = trace.ground_truth.to_hex().encode("ascii")
        blob += struct.pack("<I", len(hexkey)) + hexkey
    path.write_bytes(bytes(blob))


def _check_samples_per_cycle(spc: int, where) -> None:
    if spc < 1:
        raise BadMetadataError(f"{where}: samples_per_cycle is {spc}, must be >= 1")


def _parse_ground_truth(text: str, where) -> Scalar:
    try:
        return Scalar.from_hex(text)
    except (CurveError, ValueError):
        raise BadMetadataError(
            f"{where}: ground truth {text!r} is not a positive hex scalar"
        ) from None


def read_trace(path) -> Trace:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedTraceError(f"{path}: shorter than the fixed header")
    magic, version, spc, cycle0, clock_hz, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatVersionError(f"{path}: format version {version}, expected {_VERSION}")
    _check_samples_per_cycle(spc, path)
    need = _HEADER.size + 8 * count
    if len(raw) < need:
        raise TruncatedTraceError(
            f"{path}: header promises {count} samples but the file is short"
        )
    samples = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size).copy()
    ground_truth = None
    rest = raw[need:]
    if rest:
        if len(rest) < 4:
            raise TruncatedTraceError(f"{path}: dangling metadata block")
        (hexlen,) = struct.unpack_from("<I", rest)
        if len(rest) < 4 + hexlen:
            raise TruncatedTraceError(f"{path}: ground-truth block cut short")
        hexkey = rest[4 : 4 + hexlen].decode("ascii", errors="replace")
        ground_truth = _parse_ground_truth(hexkey, path)
    return Trace(samples, spc, cycle0, clock_hz, ground_truth)


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta")


def _write_csv(trace: Trace, path: Path, include_ground_truth: bool) -> None:
    with path.open("w") as fh:
        for v in trace.samples:
            fh.write(f"{v:.17g}\n")
    meta = {
        "samples_per_cycle": trace.samples_per_cycle,
        "cycle0_offset": trace.cycle0_offset,
        "clock_hz": f"{trace.clock_hz:.17g}",
        "sample_count": trace.samples.shape[0],
    }
    if include_ground_truth and trace.ground_truth is not None:
        meta["ground_truth"] = trace.ground_truth.to_hex()
    with _meta_path(path).open("w") as fh:
        for k, v in meta.items():
            fh.write(f"{k}={v}\n")


def _read_csv(path: Path) -> Trace:
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise TraceFormatError(f"{path}: sidecar metadata file {meta_file} is missing")
    try:
        meta_text = meta_file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadMetadataError(f"{meta_file}: {exc}") from None
    meta = {}
    for line in meta_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, _, v = line.partition("=")
        meta[k.strip()] = v.strip()
    try:
        spc = int(meta["samples_per_cycle"])
        cycle0 = int(meta["cycle0_offset"])
        clock_hz = float(meta["clock_hz"])
        count = int(meta["sample_count"]) if "sample_count" in meta else None
    except KeyError as exc:
        raise TraceFormatError(f"{meta_file}: missing key {exc}") from None
    except ValueError as exc:
        raise BadMetadataError(f"{meta_file}: {exc}") from None
    _check_samples_per_cycle(spc, meta_file)
    try:
        samples = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    if count is not None and count != samples.shape[0]:
        raise TruncatedTraceError(
            f"{path}: {samples.shape[0]} samples, metadata promises {count}"
        )
    truth = None
    if "ground_truth" in meta:
        truth = _parse_ground_truth(meta["ground_truth"], meta_file)
    return Trace(samples, spc, cycle0, clock_hz, truth)
