"""Rescaled-range (R/S) analysis over a logarithmic grid of block sizes."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, clamp_hurst, loglog_fit

# The block grid: sizes from MIN_BLOCK to n/2, BLOCKS_PER_DECADE per decade.
MIN_BLOCK = 8
BLOCKS_PER_DECADE = 8
# Block variances below this share of the running sum of squares are
# recomputed from the block's samples (about 4000 times double rounding).
_ROUNDING_FLOOR = 2.0**-40


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


def _block_rs(x: np.ndarray, prefixes: tuple, size: int, work: np.ndarray) -> np.ndarray:
    """R/S of each non-overlapping block of one size, from prefix sums.

    A block whose samples are all equal gets NaN.  Each block removes its
    own mean, so a block's value does not depend on what precedes it."""
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


def _mean_rs(x: np.ndarray, prefixes: tuple, size: int, work: np.ndarray) -> float:
    """Mean R/S over the non-overlapping blocks of one size."""
    ratio = float(_block_rs(x, prefixes, size, work).mean())
    if np.isnan(ratio):
        raise DegenerateSeries(f"constant block of {size} samples (zero standard deviation)")
    return ratio


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running sums of x and x**2 (from 0), and changes[k], the number of
    i < k with x[i] != x[i + 1]: a block [a, a + s) is constant exactly
    when changes[a + s - 1] == changes[a]."""
    changes = np.concatenate([[0], np.cumsum(x[1:] != x[:-1])])
    # R/S is shift-invariant; removing the global mean keeps the moment
    # formula well-conditioned for series riding on a large offset.
    x = x - x.mean()
    return np.concatenate([[0.0], np.cumsum(x)]), np.concatenate([[0.0], np.cumsum(x * x)]), changes


def estimate_rs(series) -> HurstEstimate:
    """H as the log-log slope of the mean rescaled range against block size."""
    x = as_values(series)
    if x.size < 2 * MIN_BLOCK:
        raise ValueError(f"R/S estimation requires at least {2 * MIN_BLOCK} samples")
    sizes = _block_sizes(x.size)
    prefixes = _prefix_sums(x)
    work = np.empty(x.size)
    ratios = np.array([_mean_rs(x, prefixes, int(size), work) for size in sizes])
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


def rs_prefix_estimates(series, checkpoints: Sequence[int]) -> list[Optional[float]]:
    """estimate_rs(series[:t]).value for each checkpoint t, or None where
    that call would raise, from one pass over the series.

    A block's R/S does not depend on which prefix holds it, so each block
    of the longest prefix is measured once per size; the mean over the
    first t // size blocks then comes from a cumulative sum, and the fit
    runs over _block_sizes(t), a prefix of the longest prefix's sizes.
    """
    x = as_values(series)
    ts = np.asarray(checkpoints, dtype=np.int64)
    if ts.size == 0:
        return []
    if ts.min() < 1 or ts.max() > x.size:
        raise ValueError("checkpoints must lie in [1, series length]")
    x = x[: int(ts.max())]
    try:
        sizes = _block_sizes(x.size)
    except ValueError:
        return [None] * ts.size
    prefixes = _prefix_sums(x)
    work = np.empty(x.size)
    # means[i, j]: mean R/S of the first ts[j] // sizes[i] blocks.
    means = np.full((sizes.size, ts.size), np.nan)
    for row, size in enumerate(sizes):
        cumulative = np.concatenate([[0.0], np.cumsum(_block_rs(x, prefixes, int(size), work))])
        blocks = ts // size
        held = blocks > 0
        means[row, held] = cumulative[blocks[held]] / blocks[held]
    log_sizes = np.log(sizes)
    counts = np.searchsorted(sizes, ts // 2, side="right")
    values: list[Optional[float]] = []
    for column, count in enumerate(counts):
        ratios = means[:count, column]
        if count < 2 or np.isnan(ratios).any():
            values.append(None)
            continue
        slope, _, _ = loglog_fit(log_sizes[:count], np.log(ratios))
        value, _ = clamp_hurst(slope)
        values.append(value if 0.0 < value < 1.0 else None)
    return values
