"""Trace persistence, per-clock-cycle compression and slot segmentation.

The attacker's view is plain numpy: `compress` gives one float64 value
per clock cycle, and `segment` cuts those values into a slots x cycles
array, row i holding main-loop slot i.  Two compression rules are
supported: the per-cycle mean (the natural choice for simulated power)
and the per-cycle sum of squares (the choice for measured EM traces,
where the signal rides on oscillation).  The method is always an
explicit argument, never inferred.

Binary trace format ("KPTR", little-endian throughout):

    magic            4 bytes  b"KPTR"
    version          u16      = 1
    samples_per_cycle u32
    cycle0_offset    u64      sample index where the first main-loop slot begins
    clock_hz         f64
    sample_count     u64
    samples          f64 * sample_count
    [optional] ground-truth scalar: u32 hex-string length + ASCII hex
    (nothing may follow)

The binary reader reads the samples straight into one float64 array and
the writer writes them from their own memory: one sample buffer per trace.
The CSV alternative stores one sample per line (17 significant
digits) with the metadata in a sibling ".meta" key=value file.
"""

from __future__ import annotations

import enum
import io
import math
import struct
import warnings
from dataclasses import dataclass, replace
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
    """A header or metadata value is unusable: zero samples per cycle, a
    negative first-slot offset, a non-finite clock, a bad key."""


class SegmentationError(ValueError):
    """A slot window that does not fit the trace."""


@dataclass
class Trace:
    """Raw sampled trace; synthetic traces carry their ground-truth scalar."""

    samples: np.ndarray
    samples_per_cycle: int
    cycle0_offset: int  # sample index where the first main-loop slot begins
    clock_hz: float
    ground_truth: Optional[Scalar] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")

    @property
    def cycle0_cycle(self) -> int:
        return self.cycle0_offset // self.samples_per_cycle

    def without_ground_truth(self) -> "Trace":
        """The attacker's view: the same samples, read-only, and no key."""
        samples = self.samples.view()
        samples.flags.writeable = False
        return replace(self, samples=samples, ground_truth=None)


class CompressionMethod(enum.Enum):
    MEAN = "mean"
    SUM_OF_SQUARES = "sumsq"


def compress(trace: Trace, method: CompressionMethod) -> np.ndarray:
    """Collapse each clock cycle to one value per the chosen rule: a 1-D
    float64 array whose index is the cycle (see `Trace.cycle0_cycle`)."""
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
        return grid.mean(axis=1)
    if method == CompressionMethod.SUM_OF_SQUARES:
        return np.square(grid).sum(axis=1)
    raise ValueError(f"unknown compression method {method!r}")


def segment(values: np.ndarray, start_cycle: int, slot_len: int, num_slots: int) -> np.ndarray:
    """Cut the per-cycle values into a (num_slots, slot_len) array, a copy:
    element [i, j] is cycle j of slot i, the slots starting at start_cycle.

    The segmentation parameters are the central attacker unknown, so
    they are explicit inputs; a bounds failure reports how many slots
    would have fit.
    """
    if slot_len < 1 or num_slots < 1:
        raise ValueError("slot_len and num_slots must be positive")
    n = values.shape[0]
    if start_cycle < 0 or start_cycle > n:
        raise SegmentationError(f"start_cycle {start_cycle} outside the trace (0..{n})")
    max_slots = (n - start_cycle) // slot_len
    if num_slots > max_slots:
        raise SegmentationError(
            f"window of {num_slots} x {slot_len} cycles from cycle {start_cycle} "
            f"exceeds the trace; at most {max_slots} slots fit"
        )
    window = values[start_cycle : start_cycle + num_slots * slot_len]
    return window.reshape(num_slots, slot_len).copy()


_HEADER = struct.Struct("<4sHIQdQ")
_MAGIC = b"KPTR"
_VERSION = 1


def write_trace(trace: Trace, path, include_ground_truth: bool = True) -> None:
    """Persist a trace; dispatches on extension (.csv -> text, else binary).

    A trace the readers would reject is refused before anything is written.
    The binary writer copies no samples: it writes them from their own memory.
    """
    path = Path(path)
    _check_header(path, trace.samples_per_cycle, trace.cycle0_offset,
                  trace.clock_hz, trace.samples.shape[0])
    if path.suffix.lower() == ".csv":
        _write_csv(trace, path, include_ground_truth)
        return
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(
            _MAGIC, _VERSION, trace.samples_per_cycle,
            trace.cycle0_offset, trace.clock_hz, trace.samples.shape[0],
        ))
        fh.write(memoryview(np.ascontiguousarray(trace.samples, dtype="<f8")).cast("B"))
        if include_ground_truth and trace.ground_truth is not None:
            hexkey = trace.ground_truth.to_hex().encode("ascii")
            fh.write(struct.pack("<I", len(hexkey)) + hexkey)


def _check_header(where, spc: int, cycle0: int, clock_hz: float, count: int) -> None:
    """The header values both readers check, and write_trace before writing."""
    if spc < 1:
        raise BadMetadataError(f"{where}: samples_per_cycle is {spc}, must be >= 1")
    if cycle0 < 0:
        raise BadMetadataError(f"{where}: cycle0_offset is {cycle0}, must be >= 0")
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise BadMetadataError(f"{where}: clock_hz is {clock_hz}, must be finite and positive")
    if count == 0:
        raise TraceFormatError(f"{where}: the trace holds no samples")


def _parse_ground_truth(text: str, where) -> Scalar:
    try:
        return Scalar.from_hex(text)
    except (CurveError, ValueError):
        raise BadMetadataError(
            f"{where}: ground truth {text!r} is not a positive hex scalar"
        ) from None


def read_trace(path) -> Trace:
    """Load a trace; dispatches on extension (.csv -> text, else binary).

    A KPTR sample count the file cannot hold is refused before allocating.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    with path.open("rb") as file:
        # a pipe's length is known only once it has been read
        fh = file if file.seekable() else io.BytesIO(file.read())
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedTraceError(f"{path}: shorter than the fixed header")
        magic, version, spc, cycle0, clock_hz, count = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FormatVersionError(f"{path}: format version {version}, expected {_VERSION}")
        _check_header(path, spc, cycle0, clock_hz, count)
        fits = fh.seek(0, io.SEEK_END) >= _HEADER.size + 8 * count
        fh.seek(_HEADER.size)
        samples = np.empty(count, dtype="<f8") if fits else None
        if samples is None or fh.readinto(samples) < samples.nbytes:
            raise TruncatedTraceError(
                f"{path}: header promises {count} samples but the file is short"
            )
        rest = fh.read()
    ground_truth = None
    if rest:
        if len(rest) < 4:
            raise TruncatedTraceError(f"{path}: dangling metadata block")
        (hexlen,) = struct.unpack_from("<I", rest)
        if len(rest) < 4 + hexlen:
            raise TruncatedTraceError(f"{path}: ground-truth block cut short")
        if len(rest) > 4 + hexlen:
            raise TraceFormatError(
                f"{path}: {len(rest) - 4 - hexlen} bytes after the ground-truth block"
            )
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
        k, sep, v = line.partition("=")
        if not sep:
            raise BadMetadataError(f"{meta_file}: line is not key=value: {line!r}")
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
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a format error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            samples = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    if samples.shape[1] != 1:
        raise TraceFormatError(f"{path}: {samples.shape[1]} values per line, expected 1")
    samples = samples.ravel()
    _check_header(meta_file, spc, cycle0, clock_hz, samples.shape[0])
    if count is not None and count != samples.shape[0]:
        raise TruncatedTraceError(
            f"{path}: {samples.shape[0]} samples, metadata promises {count}"
        )
    truth = None
    if "ground_truth" in meta:
        truth = _parse_ground_truth(meta["ground_truth"], meta_file)
    return Trace(samples, spc, cycle0, clock_hz, truth)
