"""Rescaled-range (R/S) analysis over a logarithmic grid of block sizes."""

from __future__ import annotations

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, clamp_hurst, loglog_fit

# The block grid: sizes from MIN_BLOCK to n/2, BLOCKS_PER_DECADE per decade.
MIN_BLOCK = 8
BLOCKS_PER_DECADE = 8


def _block_sizes(n: int) -> np.ndarray:
    """Logarithmically spaced block sizes from MIN_BLOCK to n/2."""
    largest = n // 2
    ratio = 10.0 ** (1.0 / BLOCKS_PER_DECADE)
    sizes = []
    size = float(MIN_BLOCK)
    while int(round(size)) <= largest:
        sizes.append(int(round(size)))
        size *= ratio
    sizes = sorted(set(sizes))
    if len(sizes) < 2:
        raise ValueError("series too short for an R/S block grid")
    return np.asarray(sizes)


def _mean_rs(prefix: np.ndarray, prefix_sq: np.ndarray, size: int, work: np.ndarray) -> float:
    """Mean R/S over the non-overlapping blocks of one size, from prefix sums."""
    total = prefix.size - 1
    blocks = total // size
    used = blocks * size
    first = prefix[0:used:size]
    sums = prefix[size : used + 1 : size] - first
    means = sums / size
    variances = (prefix_sq[size : used + 1 : size] - prefix_sq[0:used:size]) / size - means**2
    if np.any(variances <= 0.0):
        raise DegenerateSeries(f"constant block of {size} samples (zero standard deviation)")
    # Cumulative deviations D_k = (P[a+k] - P[a]) - k * mean, k = 1..size;
    # the per-block constant P[a] cancels in max - min and is dropped.
    inner = work[:used].reshape(blocks, size)
    np.multiply(means[:, None], np.arange(1.0, size + 1.0), out=inner)
    np.subtract(prefix[1 : used + 1].reshape(blocks, size), inner, out=inner)
    spread = inner.max(axis=1)
    spread -= inner.min(axis=1)
    return float((spread / np.sqrt(variances)).mean())


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # R/S is shift-invariant; removing the global mean keeps the moment
    # formula well-conditioned for series riding on a large offset.
    x = x - x.mean()
    return np.concatenate([[0.0], np.cumsum(x)]), np.concatenate([[0.0], np.cumsum(x * x)])


def rescaled_range(series, size: int) -> float:
    """Mean R/S statistic over the non-overlapping blocks of the given size.

    estimate_rs does not call this; it is kept as a public helper that
    exposes one point of the R/S fit, which the tests check block by block."""
    x = as_values(series)
    if size < 2 or size > x.size:
        raise ValueError("block size must be in [2, series length]")
    prefix, prefix_sq = _prefix_sums(x)
    return _mean_rs(prefix, prefix_sq, size, np.empty(x.size))


def estimate_rs(series) -> HurstEstimate:
    """H as the log-log slope of the mean rescaled range against block size."""
    x = as_values(series)
    if x.size < 2 * MIN_BLOCK:
        raise ValueError(f"R/S estimation requires at least {2 * MIN_BLOCK} samples")
    sizes = _block_sizes(x.size)
    prefix, prefix_sq = _prefix_sums(x)
    work = np.empty(x.size)
    ratios = np.array([_mean_rs(prefix, prefix_sq, int(size), work) for size in sizes])
    slope, intercept, corr = loglog_fit(np.log(sizes), np.log(ratios))
    value, clamped = clamp_hurst(slope)
    return HurstEstimate(
        value=value,
        method=Method.RS,
        diagnostics={
            "slope": slope,
            "intercept": intercept,
            "corr_coef": corr,
            "points_used": float(sizes.size),
            "clamped": float(clamped),
        },
    )
