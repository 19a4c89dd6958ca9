import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import traces
from hurstlab.estimators import Method
from hurstlab.fgn import FgnSpec, synthesize_fgn
from hurstlab.traces import (
    BinnedSeries,
    Capture,
    EmptyCapture,
    ParseError,
    Unit,
    WindowScan,
    _parse_columns,
    _parse_lines,
    bin_to_series,
    parse_capture_csv,
    sliding_window_scan,
    write_window_scan_csv,
)
from oracles import window_count


class TestParseCaptureCsv:
    def test_two_records(self):
        capture = parse_capture_csv(b"timestamp,bytes\n0.05,100\n0.12,200\n")
        assert list(zip(capture.times.tolist(), capture.sizes.tolist())) == [(0.05, 100), (0.12, 200)]

    def test_records_resorted_ascending(self):
        capture = parse_capture_csv(b"timestamp,bytes\n0.12,200\n0.05,100\n")
        assert capture.times.tolist() == [0.05, 0.12]

    def test_malformed_size_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_capture_csv(b"timestamp,bytes\n0.05,abc\n")
        assert err.value.line == 2

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_capture_csv(b"timestamp,bytes\n0.05,10\n-0.1,10\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("row", ["nan,10", "inf,10", "0.2,0", "0.2,9223372036854775808"])
    def test_out_of_range_row_reports_line(self, row):
        with pytest.raises(ParseError) as err:
            parse_capture_csv(f"timestamp,bytes\n0.05,10\n{row}\n".encode())
        assert err.value.line == 3

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_capture_csv(b"timestamp,bytes\n0.05,10,extra\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_capture_csv(b"0.05,100\n")

    def test_empty_capture(self):
        with pytest.raises(EmptyCapture):
            parse_capture_csv(b"timestamp,bytes\n")

    def test_duplicate_timestamps_permitted(self):
        capture = parse_capture_csv(io.StringIO("timestamp,bytes\n1.0,10\n1.0,20\n"))
        assert len(capture) == 2

    def test_accepts_path(self, capture_file):
        capture = parse_capture_csv(capture_file)
        assert len(capture) == 20000


def _capture_outcome(parse, text):
    """What a parser makes of a capture text: the column bytes, or the error."""
    try:
        capture = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return capture.times.tobytes(), capture.sizes.tobytes()


def _line_loop(text):
    return _parse_lines(io.StringIO(text))


# As _frames, over the whole range of valid times and sizes.
_wide_frames = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 0.5, 828.4])),
        st.integers(1, 2**63 - 1),
    ),
    min_size=1,
    max_size=100,
)

# Rows the one-pass reader might read otherwise than the line loop: it must
# either read them the same way or leave them to the loop.
_TRAP_ROWS = [
    "1.5,2 # x", "# comment", '"1.5",2', '1.5,"2"', "1_0,2", "1,1_0", "\u0663,2", "1,\u0663",
    "1,2.0", "1,0x10", "1,1e3", "1,9223372036854775808", "1,9223372036854775807",
    "nan,1", "inf,1", "-inf,1", "1e400,1", "-0.1,1", "-0.0,1", "1,0", "1,-5",
    "   ", "\t", "", "1,2,3", "1", "1,", "1,2\r3,4", " 1.5 , 2 ", "1.5,+2", "1.5,007", "1,2\xa0",
    "1,2\x0c3",
]
_TRAP_FILES = [
    "\n\ntimestamp,bytes\n1,2\n",
    "  \ntimestamp,bytes\n1,2\n",
    "  TIMESTAMP,BYTES  \n1,2\n",
    "Timestamp, Bytes\n1,2\n",
    "1,2\n",
    "",
    "timestamp,bytes\n",
    "timestamp,bytes\n\n  \n",
    "timestamp,bytes\r\n\r\n",
]


class TestOnePassMatchesLineLoop:
    """parse_capture_csv reads a path or bytes in one C pass and falls back
    to the line loop (_parse_lines) on any error; both must agree on every
    file."""

    @settings(max_examples=200, deadline=None)
    @given(_wide_frames, st.sampled_from(["\n", "\r\n"]), st.sets(st.integers(0, 100)))
    def test_columns_are_bit_identical(self, frames, newline, blank_after):
        lines = ["timestamp,bytes"]
        for i, (t, s) in enumerate(frames):
            lines.append(f"{t!r},{s}")
            if i in blank_after:
                lines.append("")
        text = newline.join(lines) + newline
        expected = _capture_outcome(_line_loop, text)
        # The one pass reads these files by itself, without the loop.
        assert _capture_outcome(lambda t: _parse_columns(io.StringIO(t)), text) == expected
        assert _capture_outcome(lambda t: parse_capture_csv(t.encode()), text) == expected

    @pytest.mark.parametrize("row", _TRAP_ROWS)
    @pytest.mark.parametrize("kind", ["bytes", "path"])
    def test_trap_row_reads_as_in_the_loop(self, row, kind, tmp_path):
        text = f"timestamp,bytes\n0.5,10\n{row}\n0.25,20\n"
        self._check_same(text, kind, tmp_path)

    @pytest.mark.parametrize("text", _TRAP_FILES)
    @pytest.mark.parametrize("kind", ["bytes", "path"])
    def test_trap_file_reads_as_in_the_loop(self, text, kind, tmp_path):
        self._check_same(text, kind, tmp_path)

    @staticmethod
    def _check_same(text, kind, tmp_path):
        if kind == "bytes":
            actual = _capture_outcome(lambda t: parse_capture_csv(t.encode()), text)
            expected = _capture_outcome(_line_loop, text)
        else:
            path = tmp_path / "capture.csv"
            path.write_bytes(text.encode())
            actual = _capture_outcome(lambda _: parse_capture_csv(path), text)
            with path.open(encoding="utf-8") as fh:
                expected = _capture_outcome(lambda _: _parse_lines(fh), text)
        assert actual == expected

    def test_valid_capture_takes_one_pass(self, capture_file, monkeypatch):
        def no_loop(_):
            raise AssertionError("line loop ran on a valid capture")

        monkeypatch.setattr(traces, "_parse_lines", no_loop)
        assert len(parse_capture_csv(capture_file)) == 20000

    def test_bad_row_near_the_end_of_a_long_capture(self):
        rows = 250_000
        lines = [f"{i * 1e-3:.3f},{64 + i % 1400}" for i in range(rows)]
        lines[-3] = "249.997,12x"
        text = "timestamp,bytes\n" + "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as err:
            parse_capture_csv(text.encode())
        # The header is line 1, so row i is line i + 2.
        assert err.value.line == rows - 1
        assert str(err.value) == f"line {rows - 1}: invalid literal for int() with base 10: '12x'"

    @pytest.mark.parametrize("text", ["timestamp,bytes\n0.12,200\n0.05,100\n", "timestamp,bytes\n0.05,100\n0.12,x\n"])
    def test_non_seekable_stream(self, text):
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        with open(read, encoding="utf-8") as pipe:
            assert _capture_outcome(lambda _: parse_capture_csv(pipe), text) == _capture_outcome(_line_loop, text)
        assert _capture_outcome(lambda t: parse_capture_csv(iter(t.splitlines())), text) == _capture_outcome(
            _line_loop, text
        )

    def test_invalid_utf8_fails_as_in_the_loop(self, tmp_path):
        # A lone 0xa0 byte is no UTF-8, but Latin-1 reads it as a space.
        path = tmp_path / "capture.csv"
        path.write_bytes(b"timestamp,bytes\n0.5,10\n1,2\xa0\n")
        with path.open(encoding="utf-8") as fh:
            expected = _capture_outcome(_parse_lines, fh)
        assert _capture_outcome(parse_capture_csv, path) == expected
        assert expected[0] is UnicodeDecodeError

    @pytest.mark.parametrize("text", ["timestamp,bytes\n0.5,10\n1,2.0\n", "timestamp,bytes\n0.5,10\n0.25,20\n"])
    def test_deprecation_warning_sends_the_file_to_the_loop(self, text, monkeypatch):
        # numpy 1.x loadtxt reads the size "2.0" as 2, with only a
        # DeprecationWarning, where int() fails.
        def lenient_loadtxt(fh, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(0.5, 10), (1.0, 2)], dtype=kwargs["dtype"])

        expected = _capture_outcome(_line_loop, text)
        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        assert _capture_outcome(lambda t: parse_capture_csv(t.encode()), text) == expected

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("text", ["timestamp,bytes\n", "timestamp,bytes\n\n\n"])
    def test_header_only_raises_empty_capture_without_warning(self, text):
        with pytest.raises(EmptyCapture, match="capture contains no records"):
            parse_capture_csv(text.encode())


class TestBinToSeries:
    def test_direct_binning_arithmetic(self):
        capture = Capture(np.array([0.05, 0.12, 0.18]), np.array([100, 200, 50]))
        binned = bin_to_series(capture, 0.1, Unit.BYTES)
        np.testing.assert_allclose(binned.values, [100.0, 250.0])

    def test_single_record_single_frame_bin(self):
        binned = bin_to_series(Capture(np.array([3.0]), np.array([64])), 1.0, Unit.FRAMES)
        np.testing.assert_allclose(binned.values, [1.0])
        assert binned.origin == 3.0

    def test_uniform_records_conserve_bytes(self):
        capture = Capture(np.arange(1000) * 0.01, np.full(1000, 100))
        binned = bin_to_series(capture, 0.1, Unit.BYTES)
        assert binned.values.size == 100
        assert binned.values.sum() == 100000.0

    def test_empty_interior_bins_are_zero(self):
        capture = Capture(np.array([0.0, 1.0]), np.array([10, 10]))
        binned = bin_to_series(capture, 0.25, Unit.FRAMES)
        np.testing.assert_allclose(binned.values, [1, 0, 0, 0, 1])

    def test_byte_conservation_random(self):
        rng = np.random.default_rng(5)
        capture = Capture(rng.uniform(0, 100, 50000), rng.integers(40, 1501, 50000))
        binned = bin_to_series(capture, 0.013, Unit.BYTES)
        assert binned.values.sum() == float(capture.sizes.sum())

    def test_origin_rounded_above_first_time(self):
        # floor(828.4 / 0.1) * 0.1 is 828.4000000000001, above the first time.
        binned = bin_to_series(Capture(np.array([828.4, 828.55]), np.array([1, 1])), 0.1, Unit.FRAMES)
        np.testing.assert_allclose(binned.values, [1, 1])

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            bin_to_series(Capture(np.array([0.0]), np.array([1])), 0.0, Unit.BYTES)


# Times include a few repeated values so that ties, and their stable order,
# come up often.
_frames = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 0.5, 828.4])),
        st.integers(1, 10**9),
    ),
    min_size=1,
    max_size=200,
)


def _columns(frames):
    return np.array([t for t, _ in frames]), np.array([s for _, s in frames])


class TestCaptureProperties:
    @settings(max_examples=200, deadline=None)
    @given(_frames)
    def test_csv_round_trip_is_stable_sorted(self, frames):
        text = "timestamp,bytes\n" + "".join(f"{t!r},{s}\n" for t, s in frames)
        capture = parse_capture_csv(text.encode())
        expected = sorted(frames, key=lambda frame: frame[0])
        assert capture.times.tolist() == [t for t, _ in expected]
        assert capture.sizes.tolist() == [s for _, s in expected]
        assert len(capture) == len(frames)

    @settings(max_examples=200, deadline=None)
    @given(_frames, st.floats(0.01, 100.0))
    def test_binning_conserves_bytes_and_frames(self, frames, width):
        capture = Capture(*_columns(frames))
        assert bin_to_series(capture, width, Unit.BYTES).values.sum() == float(capture.sizes.sum())
        assert bin_to_series(capture, width, Unit.FRAMES).values.sum() == len(frames)

    @settings(max_examples=200, deadline=None)
    @given(_frames, st.floats(0.01, 100.0))
    def test_bin_count_and_edges(self, frames, width):
        capture = Capture(*_columns(frames))
        binned = bin_to_series(capture, width, Unit.FRAMES)
        assert binned.origin == math.floor(capture.times.min() / width) * width
        # When every frame sits within an ulp below the rounded origin,
        # floor(...) is -1 and the frames fill bin 0.
        assert binned.values.size == max(math.floor((capture.times.max() - binned.origin) / width), 0) + 1
        assert binned.values[0] > 0 and binned.values[-1] > 0

    @settings(max_examples=100, deadline=None)
    @given(_frames, st.data())
    def test_capture_rejects_invalid_columns(self, frames, data):
        times, sizes = _columns(frames)
        i = data.draw(st.integers(0, len(frames) - 1))
        for bad_time in (math.nan, math.inf, -data.draw(st.floats(1e-300, 1e6))):
            corrupted = times.copy()
            corrupted[i] = bad_time
            with pytest.raises(ValueError):
                Capture(corrupted, sizes)
        corrupted = sizes.copy()
        corrupted[i] = data.draw(st.integers(-(10**9), 0))
        with pytest.raises(ValueError):
            Capture(times, corrupted)
        for bad_sizes in (sizes[:-1], np.append(sizes, 1), sizes + 0.5, sizes[None, :]):
            with pytest.raises(ValueError):
                Capture(times, bad_sizes)


class TestSlidingWindowScan:
    def test_stride_must_be_smaller_than_window(self):
        x = np.random.default_rng(0).standard_normal(4096)
        with pytest.raises(ValueError):
            sliding_window_scan(x, 256, 256, Method.WHITTLE)
        with pytest.raises(ValueError):
            sliding_window_scan(x, 256, 0, Method.WHITTLE)

    def test_window_exceeding_length_rejected(self):
        with pytest.raises(ValueError):
            sliding_window_scan(np.zeros(100), 256, 128, Method.RS)

    def test_window_count_formula(self):
        x = synthesize_fgn(FgnSpec(hurst=0.5, length=2**16, seed=61)).values
        scan = sliding_window_scan(x, 2**8, 2**7, Method.WHITTLE)
        assert len(scan.points) + len(scan.failures) == window_count(2**16, 2**8, 2**7) == 511

    def test_window_estimates_depend_only_on_window(self):
        x = synthesize_fgn(FgnSpec(hurst=0.8, length=2048, seed=62)).values
        scan = sliding_window_scan(x, 512, 256, Method.WHITTLE)
        start, reference = scan.points[2]
        mutated = x.copy()
        mutated[: start - 1] = 0.0
        mutated[start + 512 :] = 99.0
        rescanned = sliding_window_scan(mutated, 512, 256, Method.WHITTLE)
        assert dict(rescanned.points)[start].value == reference.value

    def test_degenerate_windows_recorded_not_fatal(self):
        x = np.concatenate([np.full(512, 5.0), np.random.default_rng(1).standard_normal(512)])
        scan = sliding_window_scan(x, 256, 128, Method.RS)
        assert scan.failures
        assert all(reason.startswith("error:") for _, reason in scan.failures)
        assert len(scan.points) + len(scan.failures) == window_count(1024, 256, 128)

    def test_accepts_binned_series(self):
        binned = BinnedSeries(
            bin_width=0.01, origin=0.0,
            values=np.abs(np.random.default_rng(3).standard_normal(1024)) + 0.1,
            unit=Unit.BYTES,
        )
        scan = sliding_window_scan(binned, 256, 128, Method.RS)
        assert len(scan.points) + len(scan.failures) == window_count(1024, 256, 128)


@st.composite
def _scan_shape(draw):
    total = draw(st.integers(2, 512))
    window = draw(st.integers(2, total))
    stride = draw(st.integers(1, window - 1))
    return total, window, stride


@settings(max_examples=60, deadline=None)
@given(_scan_shape())
def test_scan_covers_every_window_start(shape):
    total, window, stride = shape
    # R/S needs 16 samples, so shorter windows land in failures.
    x = np.random.default_rng(total).standard_normal(total)
    scan = sliding_window_scan(x, window, stride, Method.RS)
    assert len(scan.points) + len(scan.failures) == window_count(total, window, stride)
    starts = sorted([t for t, _ in scan.points] + [t for t, _ in scan.failures])
    assert starts == list(range(0, window_count(total, window, stride) * stride, stride))


def test_window_scan_invariants():
    with pytest.raises(ValueError):
        WindowScan(window_length=10, stride=10, points=())
    with pytest.raises(ValueError):
        WindowScan(window_length=10, stride=2, points=((4, None), (2, None)))


def test_scan_csv_output(tmp_path):
    x = synthesize_fgn(FgnSpec(hurst=0.8, length=1024, seed=63)).values
    scan = sliding_window_scan(x, 256, 128, Method.WHITTLE)
    path = tmp_path / "scan.csv"
    write_window_scan_csv(path, scan, bin_width=0.01, origin=2.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_start_index,t_start_seconds,H,ci_low,ci_high,status"
    assert len(lines) == 1 + window_count(1024, 256, 128)
    seconds = [float(line.split(",")[1]) for line in lines[1:]]
    assert seconds == sorted(seconds)
    assert seconds[0] == 2.0 and seconds[1] == pytest.approx(2.0 + 128 * 0.01)
