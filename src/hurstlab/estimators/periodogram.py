"""Periodogram computation and the low-frequency log-log regression estimator."""

from __future__ import annotations

import math

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, clamp_hurst, loglog_fit

# Share of the Fourier frequencies, lowest first, that the regression fits.
# It keeps the fit inside the low-frequency scaling region; wider cutoffs
# let spectral curvature beyond it flip the estimator's small-sample bias
# sign on exact fGn.
LOW_FRACTION = 0.02


def periodogram_of(series) -> tuple[np.ndarray, np.ndarray]:
    """Periodogram at the positive Fourier frequencies.

    Returns (frequencies, powers) with lambda_j = 2*pi*j/N for
    j = 1..floor((N-1)/2) and I(lambda_j) = |sum_t (x_t - mean) e^{-i t lambda_j}|^2 / (2*pi*N).
    The mean is removed before transforming.
    """
    x = as_values(series)
    n = x.size
    if n < 16:
        raise ValueError("periodogram requires at least 16 samples")
    spectrum = np.fft.rfft(x - x.mean())[1 : (n - 1) // 2 + 1]
    freqs = 2.0 * np.pi * np.arange(1, spectrum.size + 1) / n
    powers = (spectrum.real**2 + spectrum.imag**2) / (2.0 * np.pi * n)
    return freqs, powers


def estimate_periodogram(series) -> HurstEstimate:
    """Estimate H from the slope of log I(lambda) vs log lambda near the origin.

    The lowest LOW_FRACTION of Fourier frequencies is fitted; the
    slope s estimates 1-2H, so H = (1-s)/2, clamped and flagged if the
    regression leaves (0,1).
    """
    x = as_values(series)
    if x.size < 64:
        raise ValueError("periodogram estimation requires at least 64 samples")
    freqs, powers = periodogram_of(x)
    n_low = max(2, math.ceil(LOW_FRACTION * freqs.size))
    freqs, powers = freqs[:n_low], powers[:n_low]
    keep = powers > 0.0
    if not np.any(keep):
        raise DegenerateSeries("all low-frequency periodogram powers are zero")
    if keep.sum() < 2:
        raise DegenerateSeries("fewer than two nonzero low-frequency powers")
    slope, intercept, corr = loglog_fit(np.log(freqs[keep]), np.log(powers[keep]))
    value, clamped = clamp_hurst((1.0 - slope) / 2.0)
    return HurstEstimate(
        value=value,
        method=Method.PERIODOGRAM,
        diagnostics={
            "slope": slope,
            "intercept": intercept,
            "corr_coef": corr,
            "points_used": float(keep.sum()),
            "clamped": float(clamped),
        },
    )
