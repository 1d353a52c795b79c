"""Unusable trace metadata or samples are trace-format errors (CLI exit 3)."""

import math

import numpy as np
import pytest

from kpsca import cli
from kpsca.traces import Trace, TraceFormatError, read_trace, write_trace

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
    (".kptr", "dangling_block"),
    (".kptr", "count_plus_one"),  # a count the file cannot hold is refused before allocating
    (".kptr", "huge_count"),
]


# the message names the problem; the error type is one category, exit code 3
MESSAGES = {
    "zero_spc": "samples_per_cycle is 0, must be >= 1",
    "zero_key": "ground truth '0000' is not a positive hex scalar",
    "nan_clock": "clock_hz is nan, must be finite and positive",
    "negative_clock": "clock_hz is -5.0, must be finite and positive",
    "unparsable_spc": r"trace\.meta: invalid literal for int\(\) with base 10: 'ten'",
    "unparsable_sample": r"trace\.csv: could not convert string.*'zero'",
    "two_columns": "2 values per line, expected 1",
    "unparsable_count": r"trace\.meta: invalid literal for int\(\) with base 10: 'many'",
    "undecodable_meta": r"trace\.meta: 'utf-8' codec can't decode byte 0xff",
    "negative_offset": "cycle0_offset is -540, must be >= 0",
    "trailing_bytes": "7 bytes after the ground-truth block",
    "dangling_block": "dangling metadata block",
    "count_plus_one": "header promises 541 samples but the file is short",
    "huge_count": f"header promises {2**62} samples but the file is short",
}


@pytest.mark.parametrize("suffix, problem", CASES)
def test_reader_raises_trace_format_error(tmp_path, suffix, problem):
    with pytest.raises(TraceFormatError, match=MESSAGES[problem]):
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
@pytest.mark.parametrize("change, message", [
    ({"clock_hz": math.nan}, MESSAGES["nan_clock"]),
    ({"clock_hz": -5.0}, MESSAGES["negative_clock"]),
    ({"cycle0_offset": -540}, MESSAGES["negative_offset"]),
    ({"samples": np.zeros(0)}, "the trace holds no samples"),
], ids=["nan_clock", "negative_clock", "negative_offset", "empty"])
def test_write_trace_refuses_what_read_trace_rejects(tmp_path, suffix, change, message):
    fields = {"samples": np.ones(20), "samples_per_cycle": 10, "cycle0_offset": 0,
              "clock_hz": 100e6, **change}
    with pytest.raises(TraceFormatError, match=message):
        write_trace(Trace(**fields), tmp_path / f"x{suffix}")
    assert list(tmp_path.iterdir()) == []
