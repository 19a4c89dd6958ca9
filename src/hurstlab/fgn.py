"""Exact fractional Gaussian noise: target covariance, circulant embedding, synthesis.

The generator is the circulant-embedding method of Davies & Harte
(Biometrika 74, 1987), in the form given by Dieker, "Simulation of
fractional Brownian motion" (2004), ch. 2.1.3: extend the covariance
sequence to a ring of size 2N, take its DFT (all eigenvalues are
nonnegative for fGn), weight a Hermitian complex-Gaussian vector by the
eigenvalue square roots, and invert.  The first N outputs are an exact
zero-mean Gaussian sample of the target covariance.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence,
with Gaussians drawn by the ziggurat method.  The draw order is fixed
(see synthesize_fgn), so a given (spec, seed) reproduces the same series
on every run of this build.  Independent replicate streams are derived
with child_seed, which hashes (base_seed, *keys) through SeedSequence so
results do not depend on scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

_MASK64 = (1 << 64) - 1

# Tiny negative DFT values of the covariance ring are floating-point
# roundoff; anything below -EIG_TOLERANCE * variance is a real failure.
EIG_TOLERANCE = 1e-8


class EmbeddingNotPSD(ValueError):
    """The circulant covariance embedding has a materially negative eigenvalue."""


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
        if not self.variance > 0.0:
            raise ValueError("variance must be positive")
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
    if not variance > 0.0:
        raise ValueError("variance must be positive")
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

    The ring is rho(0..N), rho(N-1..1); its eigenvalues are its DFT.
    Raises EmbeddingNotPSD if any eigenvalue is below -EIG_TOLERANCE * variance
    (not expected for fGn with 0 < H < 1).
    """
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


def synthesize_fgn(spec: FgnSpec) -> TimeSeries:
    """Generate an exact, zero-mean fGn series of spec.length samples.

    Deterministic in spec.seed.  Draw order: one block of 2N standard
    normals g; g[0] and g[1] fill the two real spectral slots, g[2:N+1]
    and g[N+1:] the real/imaginary parts of the conjugate-paired slots.
    """
    eigenvalues = build_embedding(spec)
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

