"""Reference computations that the tests compare the package against.

None of these runs in a command; each is the simplest direct form of a
property that a test checks.
"""

import numpy as np

from hurstlab.estimators.wavelet import DB3_HIGHPASS, DB3_LOWPASS
from hurstlab.series import TimeSeries, as_values


def _synthesis_step(smooth, detail, lowpass, highpass):
    length = 2 * smooth.size
    starts = 2 * np.arange(smooth.size)
    approx = np.zeros(length)
    for offset, (h_tap, g_tap) in enumerate(zip(lowpass, highpass)):
        np.add.at(approx, (starts + offset) % length, h_tap * smooth + g_tap * detail)
    return approx


def idwt(details, approx) -> np.ndarray:
    """Inverse of dwt: rebuild the series from its full coefficient set."""
    current = np.asarray(approx, dtype=float)
    for detail in reversed(details):
        current = _synthesis_step(current, np.asarray(detail, dtype=float), DB3_LOWPASS, DB3_HIGHPASS)
    return current


def aggregate_blocks(series, m: int) -> TimeSeries:
    """Block-mean aggregation: floor(N/m) means of consecutive blocks of m.

    Trailing samples that do not fill a block are dropped.
    """
    x = as_values(series)
    if m < 1:
        raise ValueError("aggregation factor m must be at least 1")
    if m > x.size:
        raise ValueError("aggregation factor m exceeds series length")
    blocks = x.size // m
    return TimeSeries(x[: blocks * m].reshape(blocks, m).mean(axis=1))


def window_count(total: int, window: int, stride: int) -> int:
    """Closed-form number of sliding windows: floor((M - window) / stride) + 1."""
    return (total - window) // stride + 1
