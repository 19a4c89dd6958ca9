"""Reference computations that the tests compare the package against.

None of these runs in a command; each is the simplest direct form of a
property that a test checks.
"""

import numpy as np

from hurstlab.estimators.base import DegenerateSeries
from hurstlab.estimators.rs import _ROUNDING_FLOOR
from hurstlab.estimators.wavelet import DB3_HIGHPASS, DB3_LOWPASS
from hurstlab.estimators.whittle import _alias_sum, _series_basis
from hurstlab.fgn import EIG_TOLERANCE, EmbeddingNotPSD, FgnSpec, build_embedding, target_autocovariance
from hurstlab.series import TimeSeries, as_values
from hurstlab.traces import Capture


def analysis_step_gather(approx):
    """One periodic DWT level, each tap gathered by a modular index."""
    length = approx.size
    starts = 2 * np.arange(length // 2)
    smooth = np.zeros(length // 2)
    detail = np.zeros(length // 2)
    for offset, (h_tap, g_tap) in enumerate(zip(DB3_LOWPASS, DB3_HIGHPASS)):
        segment = approx[(starts + offset) % length]
        smooth += h_tap * segment
        detail += g_tap * segment
    return smooth, detail


def block_rs_rows(x: np.ndarray, prefixes: tuple, size: int, work: np.ndarray) -> np.ndarray:
    """R/S of each block of one size, each block's range reduced per row."""
    prefix, prefix_sq, changes = prefixes
    blocks = x.size // size
    used = blocks * size
    means = (prefix[size : used + 1 : size] - prefix[0:used:size]) / size
    block_sq = prefix_sq[size : used + 1 : size]
    variances = (block_sq - prefix_sq[0:used:size]) / size - means**2
    # Cumulative deviations D_k = (P[a+k] - P[a]) - k * mean, k = 1..size;
    # the per-block constant P[a] cancels in max - min and is dropped.
    inner = work[:used].reshape(blocks, size)
    np.multiply(means[:, None], np.arange(1.0, size + 1.0), out=inner)
    np.subtract(prefix[1 : used + 1].reshape(blocks, size), inner, out=inner)
    spread = inner.max(axis=1)
    spread -= inner.min(axis=1)
    constant = changes[size - 1 : used : size] == changes[0:used:size]
    # A block variance from running sums carries a rounding error of order
    # eps * P2[a+size]; a nearly constant block is measured from its samples.
    rough = (variances <= _ROUNDING_FLOOR * block_sq) & ~constant
    if rough.any():
        data = x[:used].reshape(blocks, size)[rough]
        walk = np.cumsum(data - data.mean(axis=1, keepdims=True), axis=1)
        spread[rough] = walk.max(axis=1) - walk.min(axis=1)
        variances[rough] = data.var(axis=1)
    variances[constant] = np.nan
    return spread / np.sqrt(variances)


def periodogram_rfft(series) -> tuple[np.ndarray, np.ndarray]:
    """The periodogram as one rfft of the centered series, at every length."""
    x = as_values(series)
    n = x.size
    if n < 16:
        raise ValueError("periodogram requires at least 16 samples")
    spectrum = np.fft.rfft(x - x.mean())[1 : (n - 1) // 2 + 1]
    freqs = 2.0 * np.pi * np.arange(1, spectrum.size + 1) / n
    powers = (spectrum.real**2 + spectrum.imag**2) / (2.0 * np.pi * n)
    return freqs, powers


def prefix_sums_concatenated(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The R/S running sums, each a fresh cumsum behind a concatenated zero."""
    changes = np.concatenate([[0], np.cumsum(x[1:] != x[:-1])])
    # R/S is shift-invariant; removing the global mean keeps the moment
    # formula well-conditioned for series riding on a large offset.
    x = x - x.mean()
    return np.concatenate([[0.0], np.cumsum(x)]), np.concatenate([[0.0], np.cumsum(x * x)]), changes


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


def time_sorted_argsort(times: np.ndarray, sizes: np.ndarray) -> Capture:
    """The frames in time order by a stable argsort of every capture, in order or not."""
    order = np.argsort(times, kind="stable")
    return Capture(times[order], sizes[order])


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


def one_series_fgn(spec: FgnSpec) -> TimeSeries:
    """Half-spectrum Davies-Harte synthesis of one series, drawn and
    transformed on its own rather than as a row of a block."""
    eigenvalues = build_embedding(spec)
    n = spec.length
    m = 2 * n
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(spec.seed))))
    g = rng.standard_normal(m)
    z = np.empty(n + 1, dtype=complex)
    z[0] = g[0]
    z[n] = g[1]
    z[1:n] = (g[2 : n + 1] + 1j * g[n + 1 :]) / np.sqrt(2.0)
    return TimeSeries(np.sqrt(m) * np.fft.irfft(np.sqrt(eigenvalues[: n + 1]) * z, m)[:n])


def whittle_objective_normalized(freqs: np.ndarray, powers: np.ndarray):
    """Build the profiled Whittle contrast Q(H) for a periodogram.

    Q(H) = sum_j log f~_j(H) + m * log(mean_j(I~_j / f~_j(H))) + m,
    the value of sum_j [log(c f~_j) + I~_j/(c f~_j)] at its minimizing
    scale c, so sigma^2 never enters.
    """
    freqs = np.asarray(freqs, dtype=float)
    powers = np.asarray(powers, dtype=float)
    mean_power = powers.mean()
    if not mean_power > 0.0:
        raise DegenerateSeries("periodogram is identically zero")
    m = freqs.size
    log_lam = np.log(freqs)
    one_minus_cos = 1.0 - np.cos(freqs)
    log_omc_sum = float(np.log(one_minus_cos).sum())
    basis = _series_basis(freqs)
    weights = powers / (mean_power * one_minus_cos)
    # Scratch buffers for the hot loop; each whittle_objective call owns its own.
    shape = np.empty(m)
    scratch = np.empty(m)

    def objective(hurst: float) -> float:
        _alias_sum(hurst, log_lam, basis, out=shape)
        # einsum's own loop, not a BLAS dot, so the sum's rounding does not
        # follow the BLAS thread count.
        mean_density = float(np.einsum("i,i->", one_minus_cos, shape)) / m
        np.divide(weights, shape, out=scratch)
        ratio_mean = mean_density * float(scratch.mean())
        np.log(shape, out=shape)
        # log of the unit-mean density, summed: sum log f - m log mean(f).
        log_sum = log_omc_sum + float(shape.sum()) - m * np.log(mean_density)
        return log_sum + m * (np.log(ratio_mean) + 1.0)

    return objective
