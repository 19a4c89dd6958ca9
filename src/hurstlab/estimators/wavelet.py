"""Wavelet scaling analysis: periodic Daubechies pyramid DWT and the
variance-of-details regression estimator of Veitch & Abry (1998).

The analysing wavelet is db3, the extremal-phase Daubechies wavelet with
three vanishing moments; its low-pass taps are stored as literals and its
high-pass is their quadrature mirror.  The transform uses periodic
extension, the simplest exactly invertible convention, which also makes
the per-octave coefficient counts reproducible.  Each level extends its
input periodically once (np.resize) and reads every filter tap as a
stride-2 slice of that extension.  dwt stops when the cascade length
turns odd; the variance path drops the last approximation coefficient
there and goes on, so octave j always has n_j = floor(N / 2^j)
coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, clamp_hurst, loglog_fit

_LN2_SQ = math.log(2.0) ** 2

# The finest octave the regression fits; finer ones carry filter transients.
MIN_SCALE = 3
# Octaves with fewer detail coefficients than this are dropped.
MIN_COEFFS = 8


def quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    """High-pass filter paired with the low-pass: g[n] = (-1)^n h[L-1-n]."""
    signs = np.where(np.arange(lowpass.size) % 2 == 0, 1.0, -1.0)
    return signs * lowpass[::-1]


# db3 low-pass taps, extremal phase (Daubechies 1992, Table 6.1); they sum to sqrt(2).
DB3_LOWPASS = np.array([
    0.3326705529500827, 0.8068915093110927, 0.45987750211849154,
    -0.1350110200102546, -0.08544127388202664, 0.03522629188570957,
])
DB3_HIGHPASS = quadrature_mirror(DB3_LOWPASS)


def _analysis_step(approx):
    """One periodic analysis level of an even-length approximation.

    np.resize repeats approx cyclically, so the extension also wraps
    lengths shorter than the filter; tap offset then reads every second
    sample of the extension from offset on."""
    half = approx.size // 2
    extended = np.resize(approx, approx.size + DB3_LOWPASS.size - 1)
    smooth = np.zeros(half)
    detail = np.zeros(half)
    for offset, (h_tap, g_tap) in enumerate(zip(DB3_LOWPASS, DB3_HIGHPASS)):
        segment = extended[offset : offset + 2 * half : 2]
        smooth += h_tap * segment
        detail += g_tap * segment
    return smooth, detail


def dwt(series):
    """Periodic pyramid DWT; returns (details per level, final approximation).

    Decomposition continues while the cascade length stays even.
    """
    approx = as_values(series).copy()
    details = []
    while approx.size >= 2 and approx.size % 2 == 0:
        approx, detail = _analysis_step(approx)
        details.append(detail)
    return details, approx


class ScaleVariance(NamedTuple):
    scale: int
    variance: float
    count: int


def dwt_detail_variances(series) -> list[ScaleVariance]:
    """Mean squared detail coefficient per octave, with coefficient counts
    n_j = floor(N / 2^j).

    Octaves with fewer than MIN_COEFFS coefficients are dropped;
    at least 3 usable octaves are required.
    """
    x = as_values(series)
    if x.size < 2 ** (MIN_SCALE + 2):
        raise ValueError(f"wavelet analysis requires at least {2 ** (MIN_SCALE + 2)} samples")
    details = []
    approx = x
    while approx.size >= 2:
        # Where the cascade length is odd, drop the last approximation coefficient.
        more, approx = dwt(approx[: approx.size // 2 * 2])
        details.extend(more)
    usable = [
        ScaleVariance(scale=j, variance=float(np.mean(d**2)), count=int(d.size))
        for j, d in enumerate(details, start=1)
        if d.size >= MIN_COEFFS
    ]
    if len(usable) < 3:
        raise ValueError("too few usable wavelet scales")
    return usable


def estimate_abry_veitch(series) -> HurstEstimate:
    """Weighted regression of log2 detail variance on octave: slope = 2H - 1.

    Octaves below MIN_SCALE are excluded (filter-transient
    contamination); when that leaves fewer than two points, the range is
    widened downward to the two coarsest usable octaves and flagged.
    """
    x = as_values(series)
    variances = dwt_detail_variances(x)
    fit = [sv for sv in variances if sv.scale >= MIN_SCALE]
    range_reduced = False
    if len(fit) < 2:
        fit = variances[-2:]
        range_reduced = True
    # A constant series has only rounding residue for details.
    if x.min() == x.max() or any(sv.variance <= 0.0 for sv in fit):
        raise DegenerateSeries("zero wavelet detail energy in the fitted octaves")

    scales = np.array([sv.scale for sv in fit], dtype=float)
    log_var = np.log2([sv.variance for sv in fit])
    counts = np.array([sv.count for sv in fit], dtype=float)

    center = (counts * scales).sum() / counts.sum()
    spread = (counts * (scales - center) ** 2).sum()
    slope = float((counts * (scales - center) * log_var).sum() / spread)
    intercept = float((counts * log_var).sum() / counts.sum() - slope * center)
    _, _, corr = loglog_fit(scales, log_var)

    # Var(log2 mu_j) ~ 2 / (n_j ln^2 2) for Gaussian details.
    slope_var = 1.0 / ((counts * _LN2_SQ / 2.0) * (scales - center) ** 2).sum()
    half_width = 1.96 * np.sqrt(slope_var) / 2.0

    value, clamped = clamp_hurst((slope + 1.0) / 2.0)
    return HurstEstimate(
        value=value,
        method=Method.ABRY_VEITCH,
        ci_low=max(0.001, value - half_width),
        ci_high=min(0.999, value + half_width),
        diagnostics={
            "slope": slope,
            "intercept": intercept,
            "corr_coef": corr,
            "points_used": float(len(fit)),
            "scale_min": float(scales.min()),
            "scale_max": float(scales.max()),
            "scale_range_reduced": float(range_reduced),
            "clamped": float(clamped),
        },
    )
