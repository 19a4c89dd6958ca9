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


# Even lengths with a prime factor above this take the packed transform; of
# the cuts 13 .. 1000, 300 was fastest over the convergence checkpoints.
PACKED_FACTOR_CUT = 300
# pocketfft's own radices; _fft splits the rest of a length off as one factor.
_RADICES = (2, 3, 5, 7, 11)
_SMALL_PRIMES = tuple(p for p in range(2, PACKED_FACTOR_CUT + 1) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _rough_part(n: int, primes: tuple) -> int:
    """n with every factor in primes divided out."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def _has_factor_above_cut(n: int) -> bool:
    """Whether n keeps a factor after trial division by the primes up to PACKED_FACTOR_CUT."""
    return _rough_part(n, _SMALL_PRIMES) > 1


def _twiddles(n: int, count: int) -> np.ndarray:
    """w_j = e^{-2 pi i j / n} for j = 0 .. count - 1, the outer product of a
    coarse and a fine table of about sqrt(count) exponentials each."""
    fine_count = math.isqrt(count - 1) + 1
    fine = np.exp(np.arange(fine_count) * (-2j * np.pi / n))
    coarse = np.exp(np.arange(-(-count // fine_count)) * (-2j * np.pi * fine_count / n))
    return np.multiply.outer(coarse, fine).ravel()[:count]


def _fft(z: np.ndarray) -> np.ndarray:
    """Complex FFT of z as one Cooley-Tukey step (the four-step form, Bailey
    1990) h = s * r, with s the largest divisor of h whose prime factors are
    pocketfft's radices (<= 11): s transforms of length r, the twiddles
    W_h^(j k), then r transforms of length s.  numpy plans the rough length
    r once for all s rows, where a plain fft would run Bluestein on all of h."""
    h = z.size
    r = _rough_part(h, _RADICES)
    s = h // r
    if s == 1 or r == 1:
        return np.fft.fft(z)
    rows = np.fft.fft(z.reshape(r, s).T, axis=1)
    rows *= _twiddles(h, h)[np.multiply.outer(np.arange(s), np.arange(r))]
    return np.fft.fft(rows, axis=0).ravel()


def _packed_powers(centered: np.ndarray) -> np.ndarray:
    """|X_j|^2 / (2 pi n) for j = 1 .. h - 1 of an even length n = 2h, from
    one complex FFT Z of the h pairs (x_2k, x_2k+1) (Cooley, Lewis & Welch 1970):
    X_j = (A + B - i w_j (A - B)) / 2 with A = Z_j and B = conj(Z_{h-j})."""
    n = centered.size
    h = n // 2
    z = _fft(centered.view(complex))
    a = z[1:h]
    b = z[h - 1 : 0 : -1].conj()
    total = a + b
    turned = a - b
    turned *= _twiddles(n, h)[1:]
    # 2 X_j = total - i * turned, split into real and imaginary parts.
    real = total.real + turned.imag
    imag = total.imag - turned.real
    return (real**2 + imag**2) / (8.0 * np.pi * n)


def periodogram_of(series) -> tuple[np.ndarray, np.ndarray]:
    """Periodogram at the positive Fourier frequencies.

    Returns (frequencies, powers) with lambda_j = 2*pi*j/N for
    j = 1..floor((N-1)/2) and I(lambda_j) = |sum_t (x_t - mean) e^{-i t lambda_j}|^2 / (2*pi*N).
    The mean is removed before transforming; a constant series has all-zero powers.

    An even N with a prime factor above PACKED_FACTOR_CUT (65264 = 16 * 4079,
    say), where rfft would run a full-length Bluestein transform, is
    transformed as one complex FFT of its N/2 sample pairs and unpacked;
    that FFT splits off the large prime as its own factor (_fft), so
    Bluestein runs on 4079 points, not 32632.  There the powers agree with
    rfft's to about 2e-15 of the largest power. Every other N goes through
    rfft.
    """
    x = as_values(series)
    n = x.size
    if n < 16:
        raise ValueError("periodogram requires at least 16 samples")
    # A constant series centers to rounding residue, whose powers are not zero.
    centered = x - x.mean() if x.min() < x.max() else np.zeros(n)
    if n % 2 == 0 and _has_factor_above_cut(n):
        powers = _packed_powers(centered)
    else:
        spectrum = np.fft.rfft(centered)[1 : (n - 1) // 2 + 1]
        powers = (spectrum.real**2 + spectrum.imag**2) / (2.0 * np.pi * n)
    freqs = 2.0 * np.pi * np.arange(1, powers.size + 1) / n
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
