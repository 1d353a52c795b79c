"""Damaged trace bytes end every command that reads a trace in a documented
exit code: 0, 2, 3 or 4, never an exception.

A test8 trace, with and without ground truth, is truncated, padded or
bit-flipped inside its KPTR header, its samples or its ground-truth block,
and the values of its CSV `.meta` file are replaced or dropped.  `attack`,
`welch` and `bruteforce` then run on it in process, without --num-slots, so
the slot count comes from whatever length the damaged file holds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kpsca import cli
from kpsca.curve import get_curve, kp_point
from kpsca.traces import read_trace, write_trace

from helpers import KPTR_HEADER

DOCUMENTED = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_SEGMENTATION)
META_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "1e308", "99999999999999999999", "", "0x10"]),
    st.integers(-(2**64), 2**64).map(str),
    st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"]), max_size=8),
)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """(directory holding known/ and anon/, each file's original bytes by
    relative path, the key's public point): a 10-bit test8 trace at 2
    samples a cycle, with and without ground truth, as KPTR and as CSV."""
    d = tmp_path_factory.mktemp("damaged")
    originals = {}
    for name, extra in (("known", []), ("anon", ["--no-ground-truth"])):
        assert cli.main(["simulate", "--curve", "test8", "--seed", "1", "--samples-per-cycle",
                         "2", *extra, "--out", str(d / name)]) == 0
        write_trace(read_trace(d / name / "trace.kptr"), d / name / "trace.csv")
        for file in ("trace.kptr", "trace.meta"):
            originals[f"{name}/{file}"] = (d / name / file).read_bytes()
    params = get_curve("test8")
    key = read_trace(d / "known" / "trace.kptr").ground_truth
    return d, originals, kp_point(key, params.g, params).to_hex()


@st.composite
def damaged_kptr(draw, raw: bytes) -> bytes:
    """`raw` cut short, padded or with one byte changed inside its header,
    its samples or its ground-truth block (padding may also follow the end)."""
    samples_end = KPTR_HEADER.size + 8 * KPTR_HEADER.unpack_from(raw)[5]
    regions = [(0, KPTR_HEADER.size), (KPTR_HEADER.size, samples_end)]
    if len(raw) > samples_end:
        regions.append((samples_end, len(raw)))
    start, end = draw(st.sampled_from(regions))
    kind = draw(st.sampled_from(["truncate", "pad", "flip"]))
    if kind == "pad":
        i = draw(st.integers(start, end))
        return raw[:i] + draw(st.binary(min_size=1, max_size=16)) + raw[i:]
    i = draw(st.integers(start, end - 1))
    if kind == "truncate":
        return raw[:i]
    return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1:]


@st.composite
def damaged_meta(draw, raw: bytes) -> bytes:
    """The `.meta` key=value lines with one value replaced or one line dropped."""
    lines = raw.decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        lines[i] = f"{lines[i].partition('=')[0]}={draw(META_VALUES)}"
    else:
        del lines[i]
    return "".join(f"{line}\n" for line in lines).encode()


def run_commands(d, path, pub):
    for command in (["attack", path], ["welch", path],
                    ["bruteforce", path, "--suspects", "0,1", "--pub", pub]):
        code = cli.main([*command, "--curve", "test8", "--out", str(d / "out")])
        assert code in DOCUMENTED, command


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["known", "anon"]), data=st.data())
def test_damaged_kptr_bytes(traces, name, data):
    d, originals, pub = traces
    path = d / name / "trace.kptr"
    path.write_bytes(data.draw(damaged_kptr(originals[f"{name}/trace.kptr"])))
    run_commands(d, str(path), pub)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["known", "anon"]), data=st.data())
def test_damaged_csv_meta_values(traces, name, data):
    d, originals, pub = traces
    (d / name / "trace.meta").write_bytes(data.draw(damaged_meta(originals[f"{name}/trace.meta"])))
    run_commands(d, str(d / name / "trace.csv"), pub)
