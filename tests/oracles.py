"""Reference computations that the tests compare the package against.

None of these runs in a command; each is the simplest direct form of a
property that a test checks.
"""

import numpy as np

from hurstlab.estimators.wavelet import DB3_HIGHPASS, DB3_LOWPASS
from hurstlab.fgn import EIG_TOLERANCE, EmbeddingNotPSD, FgnSpec, target_autocovariance
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


def complex_ring_embedding(spec: FgnSpec) -> np.ndarray:
    """Davies-Harte eigenvalues as the complex DFT of the full 2N ring."""
    n = spec.length
    rho = target_autocovariance(spec.hurst, spec.variance, np.arange(n + 1))
    ring = np.concatenate([rho, rho[n - 1 : 0 : -1]])
    eigenvalues = np.fft.fft(ring).real
    floor = -EIG_TOLERANCE * spec.variance
    worst = eigenvalues.min()
    if worst < floor:
        raise EmbeddingNotPSD(
            f"embedding eigenvalue {worst:.3e} below tolerance {floor:.3e} "
            f"for H={spec.hurst}, N={n}"
        )
    return np.maximum(eigenvalues, 0.0)


def complex_ring_fgn(spec: FgnSpec) -> TimeSeries:
    """Davies-Harte synthesis with the 2N Hermitian vector built in full,
    conjugate half mirrored by hand, and inverted by a complex ifft.

    Same draw order as synthesize_fgn: g[0] and g[1] fill the two real
    spectral slots, g[2:N+1] and g[N+1:] the real/imaginary parts of the
    conjugate-paired slots.
    """
    eigenvalues = complex_ring_embedding(spec)
    n = spec.length
    m = 2 * n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(spec.seed))))
    g = rng.standard_normal(m)
    z = np.empty(m, dtype=complex)
    z[0] = g[0]
    z[n] = g[1]
    z[1:n] = (g[2 : n + 1] + 1j * g[n + 1 :]) / np.sqrt(2.0)
    z[n + 1 :] = np.conj(z[1:n][::-1])
    x = np.sqrt(m) * np.fft.ifft(np.sqrt(eigenvalues) * z).real[:n]
    return TimeSeries(x)
