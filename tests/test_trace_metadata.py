"""Unusable trace metadata or samples are trace-format errors (CLI exit 3)."""

import pytest

from kpsca import cli
from kpsca.traces import BadMetadataError, TraceFormatError, read_trace

from helpers import write_bad_trace


CASES = [(suffix, problem) for suffix in (".kptr", ".csv")
         for problem in ("zero_spc", "zero_key")] + [(".csv", "unparsable_spc"),
                                                      (".csv", "unparsable_sample"),
                                                      (".csv", "unparsable_count"),
                                                      (".csv", "undecodable_meta")]


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
