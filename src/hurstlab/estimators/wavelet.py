"""Wavelet scaling analysis: periodic Daubechies pyramid DWT and the
variance-of-details regression estimator of Veitch & Abry (1998).

Filters are built by spectral factorization of the Daubechies half-band
polynomial, so any number of vanishing moments is available without a
wavelet dependency.  The transform uses periodic extension, the simplest
exactly invertible convention, which also makes the per-octave
coefficient counts reproducible.  dwt stops when the cascade length turns
odd; the variance path drops the last approximation coefficient there and
goes on, so octave j always has n_j = floor(N / 2^j) coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, clamp_hurst, loglog_fit

_LN2_SQ = math.log(2.0) ** 2

# Daubechies vanishing moments of the analysing wavelet (db3).
VANISHING_MOMENTS = 3
# The finest octave the regression fits; finer ones carry filter transients.
MIN_SCALE = 3
# Octaves with fewer detail coefficients than this are dropped.
MIN_COEFFS = 8


def daubechies_filter(moments: int) -> np.ndarray:
    """Orthonormal Daubechies low-pass filter with the given vanishing moments.

    Length 2 * moments, extremal-phase convention, sum sqrt(2).
    """
    if moments < 1:
        raise ValueError("need at least one vanishing moment")
    if moments == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    # Half-band residual P(y) = sum_k C(p-1+k, k) y^k with y = (2 - z - 1/z)/4.
    p = moments
    residual = np.array([math.comb(p - 1 + k, k) for k in range(p)], dtype=float)
    roots_inside = []
    for y in np.roots(residual[::-1]):
        # z^2 - (2 - 4y) z + 1 = 0; keep the root inside the unit circle.
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z1, z2 = (b + disc) / 2.0, (b - disc) / 2.0
        roots_inside.append(z1 if abs(z1) < 1.0 else z2)
    taps = np.real(np.convolve(np.poly(roots_inside), np.poly([-1.0] * p)))
    taps *= np.sqrt(2.0) / taps.sum()
    return taps


def quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    """High-pass filter paired with the low-pass: g[n] = (-1)^n h[L-1-n]."""
    signs = np.where(np.arange(lowpass.size) % 2 == 0, 1.0, -1.0)
    return signs * lowpass[::-1]


def _analysis_step(approx, lowpass, highpass):
    length = approx.size
    starts = 2 * np.arange(length // 2)
    smooth = np.zeros(length // 2)
    detail = np.zeros(length // 2)
    for offset, (h_tap, g_tap) in enumerate(zip(lowpass, highpass)):
        segment = approx[(starts + offset) % length]
        smooth += h_tap * segment
        detail += g_tap * segment
    return smooth, detail


def _synthesis_step(smooth, detail, lowpass, highpass):
    length = 2 * smooth.size
    starts = 2 * np.arange(smooth.size)
    approx = np.zeros(length)
    for offset, (h_tap, g_tap) in enumerate(zip(lowpass, highpass)):
        np.add.at(approx, (starts + offset) % length, h_tap * smooth + g_tap * detail)
    return approx


def dwt(series):
    """Periodic pyramid DWT; returns (details per level, final approximation).

    Decomposition continues while the cascade length stays even.
    """
    approx = as_values(series).copy()
    lowpass = daubechies_filter(VANISHING_MOMENTS)
    highpass = quadrature_mirror(lowpass)
    details = []
    while approx.size >= 2 and approx.size % 2 == 0:
        approx, detail = _analysis_step(approx, lowpass, highpass)
        details.append(detail)
    return details, approx


def idwt(details, approx) -> np.ndarray:
    """Inverse of dwt: rebuild the series from its full coefficient set.

    No estimator calls this; it is kept as the tests' oracle for dwt
    (perfect reconstruction) and as a public helper."""
    lowpass = daubechies_filter(VANISHING_MOMENTS)
    highpass = quadrature_mirror(lowpass)
    current = np.asarray(approx, dtype=float)
    for detail in reversed(details):
        current = _synthesis_step(current, np.asarray(detail, dtype=float), lowpass, highpass)
    return current


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
    variances = dwt_detail_variances(series)
    fit = [sv for sv in variances if sv.scale >= MIN_SCALE]
    range_reduced = False
    if len(fit) < 2:
        fit = variances[-2:]
        range_reduced = True
    if any(sv.variance <= 0.0 for sv in fit):
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
