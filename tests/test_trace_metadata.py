"""Unusable trace metadata or samples are trace-format errors (CLI exit 3)."""

import struct

import numpy as np
import pytest

from kpsca import cli
from kpsca.traces import (
    BadMetadataError,
    Trace,
    TraceFormatError,
    read_trace,
    write_trace,
)


def write_bad_trace(tmp_path, suffix, problem):
    """A small trace file with one unusable value: samples_per_cycle, key or sample."""
    path = tmp_path / f"trace{suffix}"
    spc = 0 if problem == "zero_spc" else 10
    write_trace(Trace(np.zeros(540), spc, 0), path, include_ground_truth=False)
    if problem == "zero_key":
        if suffix == ".csv":
            meta = path.with_suffix(".meta")
            meta.write_text(meta.read_text() + "ground_truth=0000\n")
        else:
            path.write_bytes(path.read_bytes() + struct.pack("<I", 4) + b"0000")
    if problem == "unparsable_spc":
        meta = path.with_suffix(".meta")
        meta.write_text(meta.read_text().replace("samples_per_cycle=10", "samples_per_cycle=ten"))
    if problem == "unparsable_sample":
        path.write_text(path.read_text().replace("0\n", "zero\n", 1))
    return path


CASES = [(suffix, problem) for suffix in (".kptr", ".csv")
         for problem in ("zero_spc", "zero_key")] + [(".csv", "unparsable_spc"),
                                                      (".csv", "unparsable_sample")]


@pytest.mark.parametrize("suffix, problem", CASES)
def test_reader_raises_trace_format_error(tmp_path, suffix, problem):
    expected = TraceFormatError if problem == "unparsable_sample" else BadMetadataError
    with pytest.raises(expected):
        read_trace(write_bad_trace(tmp_path, suffix, problem))


@pytest.mark.parametrize("suffix, problem", CASES)
def test_attack_exits_with_trace_format_code(tmp_path, capsys, suffix, problem):
    path = write_bad_trace(tmp_path, suffix, problem)
    code = cli.main(["attack", str(path), "--num-slots", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert "trace format error" in err
