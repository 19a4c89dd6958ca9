"""Exact fractional Gaussian noise: target covariance, circulant embedding, synthesis.

The generator is the circulant-embedding method of Davies & Harte
(Biometrika 74, 1987), in the form given by Dieker, "Simulation of
fractional Brownian motion" (2004), ch. 2.1.3: the DFT of the 2N covariance
ring gives its eigenvalues (all nonnegative for fGn); weight a Hermitian
complex-Gaussian vector by their square roots and invert.  The ring is real
and even and the vector Hermitian, so both transforms take only the N+1
half (hfft, irfft).  The first N outputs are an exact zero-mean Gaussian
sample of the target covariance.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence,
with Gaussians drawn by the ziggurat method.  The draw order is fixed
(see synthesize_block): each series has its own generator, seeded by its
spec, so a row of a block holds the same normals, and the same values, as
synthesize_fgn gives that spec alone, and a given (spec, seed) reproduces
the same series on every run of this build.  Independent replicate
streams are derived with child_seed, which hashes (base_seed, *keys)
through SeedSequence so results do not depend on scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import TimeSeries

_MASK64 = (1 << 64) - 1

# Tiny negative DFT values of the covariance ring are floating-point
# roundoff; anything below -EIG_TOLERANCE * variance is a real failure.
EIG_TOLERANCE = 1e-8


class EmbeddingNotPSD(ValueError):
    """The circulant covariance embedding has a materially negative or a non-finite eigenvalue."""


def child_seed(base_seed: int, *keys: int) -> int:
    """Derive a 64-bit seed from a base seed and integer keys.

    Uses SeedSequence's entropy mixing, so distinct key tuples give
    independent streams and the mapping is stable across runs.
    """
    entropy = [int(base_seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def check_seed(seed: int) -> None:
    """Reject a seed that child_seed and SeedSequence would not keep whole."""
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError("seed must fit in 64 unsigned bits")


def hurst_key(hurst: float) -> int:
    """Integer key for a Hurst value, for use with child_seed."""
    return int(round(float(hurst) * 1e9))


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of one synthetic fractional Gaussian noise realization."""

    hurst: float
    length: int
    variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must be in (0,1)")
        if not 0.0 < self.variance < np.inf:
            raise ValueError("variance must be finite and positive")
        if self.length < 2:
            raise ValueError("length must be at least 2")
        check_seed(self.seed)


def target_autocovariance(hurst: float, variance: float, lag):
    """Autocovariance rho(k) of exact second-order self-similar increments.

    rho(0) = variance; for k >= 1,
    rho(k) = (variance/2) * [(k+1)^{2H} - 2 k^{2H} + (k-1)^{2H}].
    Accepts a scalar or array lag.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must be in (0,1)")
    if not 0.0 < variance < np.inf:
        raise ValueError("variance must be finite and positive")
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0) or np.any(k != np.floor(k)):
        raise ValueError("lag must be a non-negative integer")
    two_h = 2.0 * hurst
    # |k-1| makes the k=0 case come out as variance with no special-casing.
    rho = 0.5 * variance * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    if np.isscalar(lag) or np.ndim(lag) == 0:
        return float(rho)
    return rho


def build_embedding(spec: FgnSpec) -> np.ndarray:
    """Eigenvalues of the 2N circulant ring for spec, clamped at zero.

    The ring rho(0..N), rho(N-1..1) is real and even, so its DFT is the
    Hermitian FFT of rho(0..N).
    Raises EmbeddingNotPSD if any eigenvalue is below -EIG_TOLERANCE * variance
    (not expected for fGn with 0 < H < 1) or is not finite.
    """
    n = spec.length
    rho = target_autocovariance(spec.hurst, spec.variance, np.arange(n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        eigenvalues = np.fft.hfft(rho, 2 * n)
    floor = -EIG_TOLERANCE * spec.variance
    worst = eigenvalues.min()
    if worst < floor or not np.isfinite(eigenvalues).all():
        raise EmbeddingNotPSD(
            f"embedding eigenvalues must be finite and at least {floor:.3e}; the least is "
            f"{worst:.3e} for H={spec.hurst}, N={n}"
        )
    return np.maximum(eigenvalues, 0.0)


def synthesize_block(specs: Sequence[FgnSpec]) -> np.ndarray:
    """Exact, zero-mean fGn series for specs that share hurst, length and variance.

    Returns a (len(specs), length) array; row i is the series of specs[i].
    The eigenvalues are built once for the block.  Draw order, per row: one
    generator seeded by that spec's seed fills 2N standard normals g; g[0]
    and g[1] fill the real spectral slots 0 and N, g[2:N+1] and g[N+1:] the
    real/imaginary parts of slots 1..N-1, whose conjugates N+1..2N-1 the
    real inverse FFT implies.  One inverse FFT runs along the rows.  A row
    depends only on its own spec, not on the block it is drawn in.
    """
    if not specs:
        raise ValueError("specs must be non-empty")
    first = specs[0]
    shape = (first.hurst, first.length, first.variance)
    if any((spec.hurst, spec.length, spec.variance) != shape for spec in specs):
        raise ValueError("specs in a block must share hurst, length and variance")
    eigenvalues = build_embedding(first)
    n = first.length
    m = 2 * n
    g = np.empty((len(specs), m))
    for row, spec in zip(g, specs):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(spec.seed)))).standard_normal(out=row)
    z = np.empty((len(specs), n + 1), dtype=complex)
    z[:, 0] = g[:, 0]
    z[:, n] = g[:, 1]
    z[:, 1:n] = (g[:, 2 : n + 1] + 1j * g[:, n + 1 :]) / np.sqrt(2.0)
    del g
    z *= np.sqrt(eigenvalues[: n + 1])
    return np.sqrt(m) * np.fft.irfft(z, m)[:, :n]


def synthesize_fgn(spec: FgnSpec) -> TimeSeries:
    """Generate an exact, zero-mean fGn series of spec.length samples.

    Deterministic in spec.seed: the one-row case of synthesize_block.
    """
    return TimeSeries(synthesize_block([spec])[0])
