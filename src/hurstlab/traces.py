"""Packet-capture ingestion: CSV rows to binned series, sliding-window scans.

Capture input is a CSV export with header "timestamp,bytes" (arrival
seconds, frame length), held as one Capture of two validated columns.
Binning aligns bin edges to multiples of the bin width, sums bytes or
counts frames per bin, and zero-fills empty interior bins, so total
bytes are conserved exactly.
"""

from __future__ import annotations

import csv
import io
import lzma
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .estimators import FIT_FAILURES, HurstEstimate, Method, estimate, too_many_failures
from .series import as_values


class ParseError(ValueError):
    """A malformed capture row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyCapture(ValueError):
    """The capture contained no records."""


@dataclass(frozen=True)
class Capture:
    """Captured frames as two columns: arrival seconds `times` (float64,
    finite, >= 0) and frame bytes `sizes` (int64, >= 1)."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        # Contiguous: loadtxt's columns are strided views of its records.
        times = np.asarray(self.times, dtype=np.float64, order="C")
        sizes = np.asarray(self.sizes, order="C")
        if times.ndim != 1 or sizes.ndim != 1 or times.size < 1 or times.size != sizes.size:
            raise ValueError("times and sizes must be one-dimensional, non-empty and of equal length")
        if sizes.dtype.kind not in "iu":
            raise ValueError("sizes must be integers")
        sizes = sizes.astype(np.int64, copy=False)
        if not np.all(np.isfinite(times) & (times >= 0.0)):
            raise ValueError("timestamp must be finite and non-negative")
        if np.any(sizes < 1):
            raise ValueError("size must be at least 1 byte")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return int(self.times.size)


class Unit(str, Enum):
    BYTES = "bytes"
    FRAMES = "frames"


@dataclass(frozen=True)
class BinnedSeries:
    """Traffic volume per fixed-width time bin."""

    bin_width: float
    origin: float
    values: np.ndarray
    unit: Unit

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.size < 1 or np.any(arr < 0):
            raise ValueError("binned values must be non-empty and non-negative")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class WindowScan:
    """Sliding-window Hurst estimates over a long series."""

    window_length: int
    stride: int
    points: tuple[tuple[int, HurstEstimate], ...]
    failures: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not 1 <= self.stride < self.window_length:
            raise ValueError("stride must satisfy 1 <= stride < window_length")
        starts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("window starts must be strictly increasing")

    @property
    def flagged(self) -> bool:
        """Whether too many windows failed for the scan to be trusted."""
        return too_many_failures(len(self.failures), len(self.points) + len(self.failures))


def parse_capture_csv(source) -> Capture:
    """Parse a capture CSV (header "timestamp,bytes") into a Capture sorted by time.

    Accepts a path, a text or byte stream, or raw bytes.  Frames with equal
    times keep their file order.  Raises ParseError with the offending line
    number, or EmptyCapture when no records follow the header.

    A path or bytes is read in one C pass.  If that pass fails for any
    reason, the text is read again line by line, which names the bad line;
    both accept and reject exactly the same files.  A stream given by the
    caller is read line by line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            # np.loadtxt reads a path string in C chunks but a handle line by
            # line in Python.  A pipe cannot be opened again from its start.
            # The absolute path keeps numpy from taking "http://…" for a URL.
            return _parse_text(fh, str(Path(source).absolute()) if fh.seekable() else None)
    if isinstance(source, bytes):
        return _parse_text(io.StringIO(source.decode("utf-8")))
    return _parse_lines(source)


def _parse_text(fh, path: str | None = None) -> Capture:
    """Read a UTF-8 text stream positioned at its start: one pass, else the
    loop.  Given `path`, the file that `fh` reads, the pass reads the path."""
    try:
        return _parse_columns(fh, path)
    # A row that loadtxt reads otherwise than the loop, numpy 1.x's
    # DeprecationWarning, or numpy failing to decompress a plain-text path
    # named .gz, .bz2 (OSError) or .xz (LZMAError): the loop decides.
    except (ValueError, DeprecationWarning, OSError, lzma.LZMAError):
        fh.seek(0)
        return _parse_lines(fh)


def _parse_columns(fh, path: str | None = None) -> Capture:
    """Read a capture in one np.loadtxt pass, of `path` past the header if
    given, else of the rest of `fh`; raise on any row the line loop might
    read differently, or reject."""
    header_lines = 1
    header = fh.readline()
    while header and not header.strip():  # blank lines before the header, as the loop skips them
        header = fh.readline()
        header_lines += 1
    if header.strip().lower() != "timestamp,bytes":
        raise ValueError("header is not the first non-blank line")
    source, skiprows = (fh, 0) if path is None else (path, header_lines)
    # comments=None: the loop rejects "1.5,2 # x".  Rows loadtxt reads but
    # the loop rejects (bad times or sizes, no rows at all) fail in Capture.
    # numpy 1.x reads a size such as "2.0" with a DeprecationWarning where
    # int() fails; raising it sends the file to the loop.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(
            source, delimiter=",", dtype=[("t", "f8"), ("s", "i8")], comments=None, ndmin=1,
            skiprows=skiprows, encoding="utf-8",
        )
    return _time_sorted(rows["t"], rows["s"])


def _parse_lines(source) -> Capture:
    """Read a capture line by line, raising ParseError at the first bad line."""
    times: list[float] = []
    sizes: list[int] = []
    header_seen = False
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        text = raw.strip()
        if not text:
            continue
        if not header_seen:
            if text.lower() != "timestamp,bytes":
                raise ParseError(lineno, f'expected header "timestamp,bytes", got {text!r}')
            header_seen = True
            continue
        fields = text.split(",")
        if len(fields) != 2:
            raise ParseError(lineno, f"expected 2 fields, got {len(fields)}")
        try:
            timestamp = float(fields[0])
            size = int(fields[1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if not (math.isfinite(timestamp) and timestamp >= 0.0):
            raise ParseError(lineno, "timestamp must be finite and non-negative")
        if size < 1:
            raise ParseError(lineno, "size must be at least 1 byte")
        if size >= 2**63:
            raise ParseError(lineno, "size does not fit in 64 bits")
        times.append(timestamp)
        sizes.append(size)
    if not header_seen:
        raise ParseError(1, 'missing header "timestamp,bytes"')
    if not times:
        raise EmptyCapture("capture contains no records")
    return _time_sorted(np.array(times, dtype=np.float64), np.array(sizes, dtype=np.int64))


def _time_sorted(times: np.ndarray, sizes: np.ndarray) -> Capture:
    """The frames in time order; frames with equal times keep their order.
    In-order times, as captures mostly come, are returned as they are: a
    stable sort of them is the identity."""
    if np.all(times[1:] >= times[:-1]):
        return Capture(times, sizes)
    order = np.argsort(times, kind="stable")
    return Capture(times[order], sizes[order])


def bin_to_series(capture: Capture, bin_width: float, unit: Unit = Unit.BYTES) -> BinnedSeries:
    """Aggregate a capture into bins [origin + k*w, origin + (k+1)*w).

    Bin edges align to multiples of bin_width (origin = the first frame's
    bin start); the last bin is the one containing the final frame, and
    empty interior bins hold zero.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    unit = Unit(unit)
    origin = math.floor(capture.times.min() / bin_width) * bin_width
    # The rounded origin can exceed the first time by an ulp (828.4 with
    # w = 0.1 gives 828.4000000000001); such frames belong to bin 0.
    indices = np.maximum(np.floor((capture.times - origin) / bin_width).astype(np.intp), 0)
    values = np.bincount(indices, weights=capture.sizes if unit is Unit.BYTES else None)
    return BinnedSeries(bin_width=float(bin_width), origin=float(origin), values=values, unit=unit)


def sliding_window_scan(series, window: int, stride: int, method: Method) -> WindowScan:
    """Estimate H on every block [t_i, t_i + window), t_i = i * stride.

    Windows run while t_i + window <= len(series); ones that raise
    DegenerateSeries (or otherwise fail) are recorded under failures with
    the reason instead of aborting the scan.
    """
    if isinstance(series, BinnedSeries):
        series = series.values
    x = as_values(series)
    total = x.size
    if not 2 <= window <= total:
        raise ValueError(f"window must be at least 2 and at most the series length {total}")
    if not 1 <= stride < window:
        raise ValueError("stride must satisfy 1 <= stride < window")
    method = Method(method)
    points: list[tuple[int, HurstEstimate]] = []
    failures: list[tuple[int, str]] = []
    for start in range(0, total - window + 1, stride):
        try:
            points.append((start, estimate(x[start : start + window], method)))
        except FIT_FAILURES as exc:
            failures.append((start, f"error:{type(exc).__name__}"))
    return WindowScan(
        window_length=window, stride=stride, points=tuple(points), failures=tuple(failures)
    )


def write_window_scan_csv(path, scan: WindowScan, bin_width: float = 1.0, origin: float = 0.0) -> None:
    """Window-scan CSV: t_start_index, t_start_seconds, H, ci_low, ci_high, status."""
    rows: dict[int, tuple] = {}
    for start, est in scan.points:
        ci_low = "" if est.ci_low is None else f"{est.ci_low:.10g}"
        ci_high = "" if est.ci_high is None else f"{est.ci_high:.10g}"
        rows[start] = (f"{est.value:.10g}", ci_low, ci_high, "ok")
    for start, reason in scan.failures:
        rows[start] = ("", "", "", reason)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_start_index", "t_start_seconds", "H", "ci_low", "ci_high", "status"])
        for start in sorted(rows):
            h, lo, hi, status = rows[start]
            writer.writerow([start, f"{origin + start * bin_width:.10g}", h, lo, hi, status])
