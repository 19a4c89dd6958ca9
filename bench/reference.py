"""Reference computations for the benchmark's output checks.

Everything here is written from the published definitions and uses only
numpy and scipy, never the package under test, so a check that compares
the program's output with these functions compares two independent
implementations.  The estimator settings (block grid, low-frequency
share, Whittle bounds, wavelet octave rules) are the program's documented
defaults, because an estimator is only defined together with them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

H_CLAMP = (0.001, 0.999)

# Daubechies (1988) orthonormal low-pass filter with 3 vanishing moments,
# extremal phase, as tabulated in "Ten Lectures on Wavelets" (Table 6.1).
DB3_LOWPASS = np.array([
    0.3326705529500826,
    0.8068915093110925,
    0.4598775021184915,
    -0.1350110200102546,
    -0.0854412738820267,
    0.0352262918857095,
])


def _clamp(value: float) -> float:
    return min(max(value, H_CLAMP[0]), H_CLAMP[1])


def _ols_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """Closed form rho(k) = 1/2 [(k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}], unit variance."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def synthesize_fgn(hurst: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance fGn by circulant embedding (Davies & Harte 1987)."""
    rho = fgn_autocovariance(hurst, np.arange(length + 1))
    eigen = np.fft.rfft(np.concatenate([rho, rho[length - 1 : 0 : -1]])).real
    if eigen.min() < -1e-8:
        raise ValueError("circulant embedding is not positive semi-definite")
    # Spectral weights sqrt(lambda_k * m / 2) on complex normals; the two
    # real slots (k = 0 and k = length) carry sqrt(2) times a real normal.
    z = rng.standard_normal(length + 1) + 1j * rng.standard_normal(length + 1)
    z[0] = z[0].real * math.sqrt(2.0)
    z[-1] = z[-1].real * math.sqrt(2.0)
    return np.fft.irfft(np.sqrt(np.maximum(eigen, 0.0) * length) * z, n=2 * length)[:length]


def rs_block_sizes(n: int, min_block: int = 8, per_decade: int = 8) -> list[int]:
    """round(min_block * 10^(k/per_decade)) for k = 0, 1, ... up to n/2, deduplicated."""
    sizes = []
    k = 0
    while True:
        size = round(min_block * 10 ** (k / per_decade))
        if size > n // 2:
            return sorted(set(sizes))
        sizes.append(size)
        k += 1


def rescaled_range(x: np.ndarray, size: int) -> float:
    """Mean of R/S over the non-overlapping blocks of `size` samples."""
    blocks = x.size // size
    data = x[: blocks * size].reshape(blocks, size)
    dev = np.cumsum(data - data.mean(axis=1, keepdims=True), axis=1)
    return float(((dev.max(axis=1) - dev.min(axis=1)) / data.std(axis=1)).mean())


def rs_estimate(x) -> float:
    """Slope of log mean R/S against log block size, by ordinary least squares."""
    x = np.asarray(x, dtype=float)
    sizes = rs_block_sizes(x.size)
    ratios = [rescaled_range(x, size) for size in sizes]
    return _clamp(_ols_slope(np.log(sizes), np.log(ratios)))


def periodogram(x) -> tuple[np.ndarray, np.ndarray]:
    """I(lambda_j) = |sum (x_t - mean) e^{-i t lambda_j}|^2 / (2 pi N), j = 1 .. (N-1)//2."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = (n - 1) // 2
    spectrum = np.fft.rfft(x - x.mean())[1 : m + 1]
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / n
    return freqs, np.abs(spectrum) ** 2 / (2.0 * np.pi * n)


def periodogram_estimate(x, low_fraction: float = 0.02) -> float:
    """H = (1 - s) / 2 from the log-log slope s over the lowest frequencies."""
    freqs, powers = periodogram(x)
    keep = max(2, math.ceil(low_fraction * freqs.size))
    slope = _ols_slope(np.log(freqs[:keep]), np.log(powers[:keep]))
    return _clamp((1.0 - slope) / 2.0)


def fgn_spectral_shape(hurst: float, freqs: np.ndarray, terms: int = 6) -> np.ndarray:
    """(1 - cos l) * sum_j |l + 2 pi j|^{-2H-1}, summed directly for |j| <= terms.

    The aliases beyond `terms` are closed by Euler-Maclaurin: the integral
    from terms + 1, half the first omitted term, and the derivative term.
    """
    alpha = 2.0 * hurst + 1.0
    lam = np.asarray(freqs, dtype=float)
    total = lam**-alpha
    for j in range(1, terms + 1):
        total += (2.0 * np.pi * j + lam) ** -alpha + (2.0 * np.pi * j - lam) ** -alpha
    a = terms + 1
    for sign in (1.0, -1.0):
        base = 2.0 * np.pi * a + sign * lam
        total += base ** (1.0 - alpha) / (2.0 * np.pi * (alpha - 1.0))
        total += 0.5 * base**-alpha
        total += alpha * 2.0 * np.pi * base ** (-alpha - 1.0) / 12.0
    return (1.0 - np.cos(lam)) * total


def whittle_estimate(x, xatol: float = 1e-7) -> float:
    """Argmin over (0.01, 0.99) of the Whittle contrast with the scale profiled out.

    Q(H) = sum_j log f_j(H) + m log(mean_j I_j / f_j(H)).
    """
    freqs, powers = periodogram(x)
    m = freqs.size

    def contrast(hurst: float) -> float:
        shape = fgn_spectral_shape(hurst, freqs)
        return float(np.log(shape).sum() + m * np.log(np.mean(powers / shape)))

    result = minimize_scalar(contrast, bounds=(0.01, 0.99), method="bounded", options={"xatol": xatol})
    return float(result.x)


def dwt_details(x, lowpass: np.ndarray = DB3_LOWPASS) -> list[np.ndarray]:
    """Detail coefficients per octave of the periodic pyramid DWT.

    a_{j+1}[k] = sum_n h[n] a_j[(2k + n) mod L], d_{j+1}[k] likewise with
    the mirror filter g[n] = (-1)^n h[len-1-n], while L stays even.
    """
    highpass = lowpass[::-1] * np.where(np.arange(lowpass.size) % 2 == 0, 1.0, -1.0)
    approx = np.asarray(x, dtype=float)
    details = []
    while approx.size >= 2 and approx.size % 2 == 0:
        idx = (2 * np.arange(approx.size // 2)[:, None] + np.arange(lowpass.size)) % approx.size
        windows = approx[idx]
        details.append(windows @ highpass)
        approx = windows @ lowpass
    return details


def abry_veitch_estimate(x, min_scale: int = 3, min_coeffs: int = 8) -> float:
    """Count-weighted regression of log2 mean d_j^2 on octave j; H = (slope + 1) / 2.

    Octaves with fewer than min_coeffs coefficients are unusable; octaves
    from min_scale up are fitted, or the two coarsest usable ones when
    fewer than two remain.
    """
    usable = [(j, float(np.mean(d**2)), d.size)
              for j, d in enumerate(dwt_details(x), start=1) if d.size >= min_coeffs]
    fit = [row for row in usable if row[0] >= min_scale]
    if len(fit) < 2:
        fit = usable[-2:]
    scales = np.array([row[0] for row in fit], dtype=float)
    log_var = np.log2([row[1] for row in fit])
    weights = np.array([row[2] for row in fit], dtype=float)
    center = (weights * scales).sum() / weights.sum()
    slope = (weights * (scales - center) * log_var).sum() / (weights * (scales - center) ** 2).sum()
    return _clamp((float(slope) + 1.0) / 2.0)


ESTIMATORS = {
    "rs": rs_estimate,
    "periodogram": periodogram_estimate,
    "whittle": whittle_estimate,
    "abry_veitch": abry_veitch_estimate,
}
