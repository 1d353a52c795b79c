"""Unusable trace metadata or samples are trace-format errors (CLI exit 3)."""

import math

import numpy as np
import pytest

from kpsca import cli
from kpsca.traces import (
    BadMetadataError, Trace, TraceFormatError, TruncatedTraceError, read_trace, write_trace,
)

from helpers import write_bad_trace


CASES = [(suffix, problem) for suffix in (".kptr", ".csv")
         for problem in ("zero_spc", "zero_key", "nan_clock", "negative_clock")] + [
    (".csv", "unparsable_spc"),
    (".csv", "unparsable_sample"),
    (".csv", "two_columns"),
    (".csv", "unparsable_count"),
    (".csv", "undecodable_meta"),
    (".csv", "negative_offset"),  # KPTR stores the offset unsigned
    (".kptr", "trailing_bytes"),
    (".kptr", "count_plus_one"),  # a count the file cannot hold is refused before allocating
    (".kptr", "huge_count"),
]


@pytest.mark.parametrize("suffix, problem", CASES)
def test_reader_raises_trace_format_error(tmp_path, suffix, problem):
    expected = {"unparsable_sample": TraceFormatError, "two_columns": TraceFormatError,
                "trailing_bytes": TraceFormatError,
                "count_plus_one": TruncatedTraceError, "huge_count": TruncatedTraceError,
                }.get(problem, BadMetadataError)
    with pytest.raises(expected):
        read_trace(write_bad_trace(tmp_path, suffix, problem))


def test_one_csv_line_of_two_values_is_not_two_samples(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1 2\n")
    (tmp_path / "t.meta").write_text("samples_per_cycle=1\ncycle0_offset=0\nclock_hz=1e8\n")
    with pytest.raises(TraceFormatError, match="2 values per line, expected 1"):
        read_trace(path)


@pytest.mark.parametrize("suffix, problem", CASES)
def test_attack_exits_with_trace_format_code(tmp_path, capsys, suffix, problem):
    path = write_bad_trace(tmp_path, suffix, problem)
    code = cli.main(["attack", str(path), "--num-slots", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert "trace format error" in err


@pytest.mark.parametrize("suffix", [".kptr", ".csv"])
@pytest.mark.parametrize("change, expected", [
    ({"clock_hz": math.nan}, BadMetadataError),
    ({"clock_hz": -5.0}, BadMetadataError),
    ({"cycle0_offset": -540}, BadMetadataError),
    ({"samples": np.zeros(0)}, TraceFormatError),
], ids=["nan_clock", "negative_clock", "negative_offset", "empty"])
def test_write_trace_refuses_what_read_trace_rejects(tmp_path, suffix, change, expected):
    fields = {"samples": np.ones(20), "samples_per_cycle": 10, "cycle0_offset": 0,
              "clock_hz": 100e6, **change}
    with pytest.raises(expected):
        write_trace(Trace(**fields), tmp_path / f"x{suffix}")
    assert list(tmp_path.iterdir()) == []
