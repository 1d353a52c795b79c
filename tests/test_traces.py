import os
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpsca.curve import Scalar, get_curve, kp_multiply
from kpsca.leaksim import LeakModel, build_schedule, synthesize_trace
from kpsca.traces import (
    CompressionMethod,
    SegmentationError,
    Trace,
    TraceFormatError,
    compress,
    read_trace,
    segment,
    write_trace,
)

from helpers import KPTR_HEADER


def make_trace(samples, spc=2, cycle0=0, truth=None):
    return Trace(np.asarray(samples, float), spc, cycle0, 100e6, truth)


def with_count(raw: bytes, count) -> bytes:
    """KPTR bytes whose header promises count(written count) samples."""
    header = list(KPTR_HEADER.unpack_from(raw))
    header[5] = count(header[5])
    return KPTR_HEADER.pack(*header) + raw[KPTR_HEADER.size:]


def test_samples_must_be_1d():
    with pytest.raises(ValueError, match="1-D"):
        Trace(np.arange(20.0).reshape(4, 5), 5, 0, 100e6)


class TestCompress:
    def test_mean_example(self):
        values = compress(make_trace([1, 3, 2, 2]), CompressionMethod.MEAN)
        assert list(values) == [2, 2]

    def test_sum_of_squares_example(self):
        values = compress(make_trace([1, 3, 0, 2]), CompressionMethod.SUM_OF_SQUARES)
        assert list(values) == [10, 4]

    def test_identity_when_one_sample_per_cycle(self):
        t = make_trace([5, 7, 9], spc=1)
        values = compress(t, CompressionMethod.MEAN)
        assert np.array_equal(values, t.samples)

    def test_trailing_partial_cycle_dropped_with_warning(self):
        t = make_trace([1, 3, 2, 2, 9], spc=2)
        with pytest.warns(UserWarning, match="trailing"):
            values = compress(t, CompressionMethod.MEAN)
        assert list(values) == [2, 2]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compress(make_trace([]), CompressionMethod.MEAN)

    def test_mean_is_linear(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        alpha, beta = 2.5, -1.25
        lhs = compress(make_trace(alpha * a + beta * b, spc=4), CompressionMethod.MEAN)
        ca = compress(make_trace(a, spc=4), CompressionMethod.MEAN)
        cb = compress(make_trace(b, spc=4), CompressionMethod.MEAN)
        assert np.allclose(lhs, alpha * ca + beta * cb)

    def test_offset_converted_to_cycles(self):
        t = make_trace(list(range(20)), spc=4, cycle0=12)
        values = compress(t, CompressionMethod.MEAN)
        assert t.cycle0_cycle == 3
        assert values[t.cycle0_cycle] == np.mean(t.samples[12:16])

    def test_sum_of_squares_of_zero_cycle(self):
        values = compress(make_trace([0, 0, 1, 1]), CompressionMethod.SUM_OF_SQUARES)
        assert values[0] == 0


class TestSegment:
    def test_rows_are_windows(self):
        values = compress(make_trace(list(range(12)), spc=1), CompressionMethod.MEAN)
        m = segment(values, 2, 3, 3)
        assert m.tolist() == [[2, 3, 4], [5, 6, 7], [8, 9, 10]]

    def test_flatten_reproduces_window(self):
        values = compress(make_trace(list(range(30)), spc=1), CompressionMethod.MEAN)
        m = segment(values, 4, 5, 5)
        assert np.array_equal(m.reshape(-1), values[4:29])
        assert not np.shares_memory(m, values)  # a copy: the slots outlive edits

    def test_out_of_bounds_reports_max_feasible(self):
        values = compress(make_trace(list(range(20)), spc=1), CompressionMethod.MEAN)
        with pytest.raises(SegmentationError, match="at most 4 slots fit"):
            segment(values, 2, 4, 10)

    def test_bad_start(self):
        values = compress(make_trace(list(range(8)), spc=1), CompressionMethod.MEAN)
        with pytest.raises(SegmentationError):
            segment(values, -1, 2, 1)
        with pytest.raises(SegmentationError):
            segment(values, 9, 2, 1)


class TestBinaryRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        t = Trace(rng.normal(size=500), 10, 620, 20e6, Scalar(0b10110101))
        path = tmp_path / "t.kptr"
        write_trace(t, path)
        back = read_trace(path)
        assert np.array_equal(back.samples, t.samples)
        assert back.samples_per_cycle == 10
        assert back.cycle0_offset == 620
        assert back.clock_hz == 20e6
        assert back.ground_truth == t.ground_truth

    def test_ground_truth_optional(self, tmp_path):
        t = make_trace([1, 2, 3, 4], truth=Scalar(9))
        path = tmp_path / "t.kptr"
        write_trace(t, path, include_ground_truth=False)
        assert read_trace(path).ground_truth is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.kptr"
        write_trace(make_trace([1, 2]), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="bad magic b'NOPE'"):
            read_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.kptr"
        write_trace(make_trace([1, 2]), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="format version 99, expected 1"):
            read_trace(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.kptr"
        write_trace(make_trace([1, 2, 3, 4]), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(TraceFormatError, match="promises 4 samples but the file is short"):
            read_trace(path)

    def test_header_truncation(self, tmp_path):
        path = tmp_path / "t.kptr"
        path.write_bytes(b"KPTR\x01")
        with pytest.raises(TraceFormatError, match="shorter than the fixed header"):
            read_trace(path)

    @staticmethod
    def read_through_pipe(pipe, raw: bytes) -> Trace:
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(raw,), daemon=True)
        writer.start()
        try:
            return read_trace(pipe)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_pipe(self, tmp_path):
        t = make_trace([1, 2, 3, 4], truth=Scalar(9))
        write_trace(t, tmp_path / "t.kptr")
        raw = (tmp_path / "t.kptr").read_bytes()
        back = self.read_through_pipe(tmp_path / "a.kptr", raw)
        assert np.array_equal(back.samples, t.samples)
        assert back.ground_truth == t.ground_truth
        with pytest.raises(TraceFormatError,
                           match=f"promises {2**62} samples but the file is short"):
            self.read_through_pipe(tmp_path / "b.kptr", with_count(raw, lambda n: 2**62))


def peak_ratio(fn, nbytes) -> float:
    """Peak allocation traced during fn's second call, over nbytes.

    numpy reports its buffers to tracemalloc; the first call allocates
    extra once, so it does not count.
    """
    for _ in range(2):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / nbytes


class TestOneSampleBuffer:
    """Synthesizing, writing, reading and the attacker's view each hold at
    most one sample buffer (B-233, noise 0.5: about 1 MB of samples)."""

    @pytest.fixture(scope="class")
    def rendering(self):
        params = get_curve("b233")
        _, transcript = kp_multiply(Scalar.random(random.Random(3), 233), params.g, params)
        return build_schedule(transcript), LeakModel(noise_sigma=0.5, rng_seed=1)

    def test_peak_allocation_per_stage(self, rendering, tmp_path):
        trace = synthesize_trace(*rendering)
        path = tmp_path / "t.kptr"
        write_trace(trace, path)
        stages = {
            "synthesize": (lambda: synthesize_trace(*rendering), 1.25),
            "write": (lambda: write_trace(trace, path), 0.05),
            "read": (lambda: read_trace(path), 1.05),
            "attacker view": (trace.without_ground_truth, 0.01),
        }
        ratios = {name: peak_ratio(fn, trace.samples.nbytes) for name, (fn, _) in stages.items()}
        assert all(ratios[name] <= bound for name, (_, bound) in stages.items()), ratios

    @pytest.mark.parametrize("promised", [lambda n: n + 1, lambda n: 2**62],
                             ids=["count+1", "2^62"])
    def test_oversized_count_refused_before_allocating(self, rendering, tmp_path, promised):
        trace = synthesize_trace(*rendering)
        path = tmp_path / "t.kptr"
        write_trace(trace, path, include_ground_truth=False)
        path.write_bytes(with_count(path.read_bytes(), promised))

        def read_refused():
            with pytest.raises(TraceFormatError, match="samples but the file is short"):
                read_trace(path)

        assert peak_ratio(read_refused, trace.samples.nbytes) <= 0.05

    def test_attacker_view_is_a_read_only_view(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0], truth=Scalar(9))
        view = trace.without_ground_truth()
        assert view.ground_truth is None
        assert np.shares_memory(view.samples, trace.samples)
        with pytest.raises(ValueError):
            view.samples[0] = 5.0
        trace.samples[0] = 5.0  # the original stays writable
        assert view.samples[0] == 5.0


class TestCsvRoundTrip:
    def test_lossless_to_17_digits(self, tmp_path):
        rng = np.random.default_rng(2)
        t = Trace(rng.normal(size=64), 4, 8, 100e6, Scalar(0xABC1))
        path = tmp_path / "t.csv"
        write_trace(t, path)
        meta = tmp_path / "t.meta"
        first, *rest = meta.read_text().splitlines(keepends=True)
        # the .meta as written, then with a comment and blank lines between its keys
        for text in (first, first + "# edited by hand\n\n  \n"):
            meta.write_text(text + "".join(rest))
            back = read_trace(path)
            # 17 significant digits reproduce float64 exactly
            assert np.array_equal(back.samples, t.samples)
            assert back.ground_truth == t.ground_truth
            assert (back.samples_per_cycle, back.cycle0_offset, back.clock_hz) == (4, 8, 100e6)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(Exception, match="metadata"):
            read_trace(path)

    def test_meta_line_not_key_value(self, tmp_path):
        # a line without "=" is refused, also beside a valid clock_hz line
        path = tmp_path / "t.csv"
        write_trace(make_trace([1.5, 2.5]), path)
        meta = tmp_path / "t.meta"
        meta.write_text(meta.read_text() + "clock_hz 5\n")
        with pytest.raises(TraceFormatError, match="line is not key=value: 'clock_hz 5'"):
            read_trace(path)

    def test_sidecar_file_name(self, tmp_path):
        t = make_trace([1.5, 2.5])
        write_trace(t, tmp_path / "x.csv")
        assert (tmp_path / "x.meta").exists()


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """`data` truncated, with one byte changed, or with bytes appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    return data + draw(st.binary(min_size=1, max_size=64))


class TestReaderFuzz:
    """Damaged files fail with TraceFormatError and nothing else."""

    TRACE = Trace(np.linspace(-2.0, 3.0, 24), 4, 8, 100e6, Scalar(0x1D3))

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        for name in ("valid.kptr", "valid.csv"):
            write_trace(self.TRACE, d / name)
        originals = {f.name: f.read_bytes() for f in d.iterdir()}
        return d, originals

    def _read_damaged(self, files, damaged_name, data):
        d, originals = files
        for name, raw in originals.items():  # undo the previous example's damage
            (d / name).write_bytes(raw)
        (d / damaged_name).write_bytes(data.draw(corrupted(originals[damaged_name])))
        path = d / ("valid.kptr" if damaged_name.endswith(".kptr") else "valid.csv")
        try:
            read_trace(path)
        except TraceFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kptr(self, files, data):
        self._read_damaged(files, "valid.kptr", data)

    @settings(max_examples=300, deadline=None)
    @given(damaged=st.sampled_from(["valid.csv", "valid.meta"]), data=st.data())
    def test_csv_and_meta(self, files, damaged, data):
        self._read_damaged(files, damaged, data)
