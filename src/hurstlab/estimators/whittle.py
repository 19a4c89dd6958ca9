"""Whittle maximum-likelihood estimation against the exact fGn spectral density.

The spectral shape is f(lambda; H) = (1 - cos lambda) * S(lambda, H) with
S the alias sum over |lambda + 2*pi*j|^{-2H-1}, truncated after
SPECTRUM_TERMS terms and closed with an integral (midpoint-rule)
tail correction, which keeps the truncation error far below 1e-6 for
H <= 0.95.

The objective is the discrete Whittle contrast
    Q(H) = sum_j [ log f~(lambda_j; H) + I~(lambda_j) / f~(lambda_j; H) ]
evaluated at the scale that minimizes it, i.e. with sigma^2 profiled out
in closed form; f~ and I~ are the unit-mean-normalized density and
periodogram.  The profiled form is exactly invariant under a*x + b and,
when the periodogram is replaced by the model density at H0, is minimized
exactly at H0.

Repeated objective evaluations dominate benchmark runtime, so the smooth
truncated alias body (minus its leading lambda^{-2H-1} term) is tabulated
once per process as a 2-D Chebyshev surface in (lambda, H); per
evaluation it collapses to a dot product with a precomputed basis matrix.
The tail correction, whose 1/H factor polynomial fits handle poorly, is
applied analytically.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import minimize_scalar

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, NoConvergence

# xatol of the bounded minimization over H.
TOLERANCE = 1e-4
# Aliases summed exactly before the integral tail correction.
SPECTRUM_TERMS = 200

_H_BOUNDS = (0.01, 0.99)
_TABLE_H_RANGE = (0.002, 0.998)
_TABLE_DEG_LAMBDA = 14
_TABLE_DEG_H = 36


def _alias_body(lam: np.ndarray, hurst: float, terms: int) -> np.ndarray:
    """Truncated alias sum without the leading |lambda|^{-2H-1} term."""
    expo = -(2.0 * hurst + 1.0)
    j = 2.0 * np.pi * np.arange(1, terms + 1)
    grid = np.atleast_1d(np.asarray(lam, dtype=float))[:, None]
    return ((grid + j) ** expo + (j - grid) ** expo).sum(axis=1)


def _alias_tail(lam: np.ndarray, hurst: float, terms: int) -> np.ndarray:
    """Integral correction for the aliases beyond the truncation point."""
    edge = 2.0 * np.pi * (terms + 0.5)
    lam = np.asarray(lam, dtype=float)
    return ((edge + lam) ** (-2.0 * hurst) + (edge - lam) ** (-2.0 * hurst)) / (
        4.0 * np.pi * hurst
    )


def fgn_spectral_density(hurst: float, frequency, terms: int = SPECTRUM_TERMS):
    """Normalization-free fGn spectral density shape on (0, pi].

    f(lambda; H) = (1 - cos lambda) * sum_j |lambda + 2*pi*j|^{-2H-1},
    truncated at `terms` aliases plus an integral tail correction.
    Accepts a scalar or array frequency.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must be in (0,1)")
    lam = np.asarray(frequency, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam > np.pi):
        raise ValueError("frequency must lie in (0, pi]")
    flat = np.atleast_1d(lam).ravel()
    expo = -(2.0 * hurst + 1.0)
    s = flat**expo + _alias_body(flat, hurst, terms) + _alias_tail(flat, hurst, terms)
    out = (1.0 - np.cos(flat)) * s
    if np.isscalar(frequency) or np.ndim(frequency) == 0:
        return float(out[0])
    return out.reshape(lam.shape)


def _cheb_matrix(n: int) -> np.ndarray:
    """Interpolation matrix mapping first-kind node values to Chebyshev coefficients."""
    k = np.arange(n)
    theta = np.pi * (2.0 * k + 1.0) / (2.0 * n)
    mat = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    mat[0] /= 2.0
    return mat


def _cheb_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev basis matrix T[j, i] = T_j(x_i) by the three-term recurrence."""
    basis = np.empty((degree + 1, x.size))
    basis[0] = 1.0
    basis[1] = x
    two_x = 2.0 * x
    for j in range(2, degree + 1):
        basis[j] = two_x * basis[j - 1] - basis[j - 2]
    return basis


class _AliasBodySurface:
    """Chebyshev tensor fit of the truncated alias body over (lambda, H)."""

    def __init__(self, terms: int):
        nl, nh = _TABLE_DEG_LAMBDA, _TABLE_DEG_H
        h_lo, h_hi = _TABLE_H_RANGE
        lam_nodes = (np.cos(np.pi * (2.0 * np.arange(nl) + 1.0) / (2.0 * nl)) + 1.0) * (np.pi / 2.0)
        h_nodes = h_lo + (np.cos(np.pi * (2.0 * np.arange(nh) + 1.0) / (2.0 * nh)) + 1.0) * (
            (h_hi - h_lo) / 2.0
        )
        values = np.empty((nl, nh))
        for col, h in enumerate(h_nodes):
            values[:, col] = _alias_body(lam_nodes, float(h), terms)
        self.coeffs = _cheb_matrix(nl) @ values @ _cheb_matrix(nh).T
        self.edge = 2.0 * np.pi * (terms + 0.5)
        self._h_lo, self._h_hi = h_lo, h_hi

    def coeffs_for(self, hurst: float) -> np.ndarray:
        """Collapse the surface to 1-D Chebyshev coefficients in lambda at fixed H."""
        if not self._h_lo <= hurst <= self._h_hi:
            raise ValueError("hurst outside tabulated range")
        h_scaled = 2.0 * (hurst - self._h_lo) / (self._h_hi - self._h_lo) - 1.0
        weights = np.empty(_TABLE_DEG_H)
        previous, current = 1.0, h_scaled
        weights[0], weights[1] = previous, current
        double = 2.0 * h_scaled
        for degree in range(2, _TABLE_DEG_H):
            previous, current = current, double * current - previous
            weights[degree] = current
        return self.coeffs @ weights


@functools.cache
def _surface() -> _AliasBodySurface:
    return _AliasBodySurface(SPECTRUM_TERMS)


def whittle_objective(freqs: np.ndarray, powers: np.ndarray):
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
    table = _surface()
    m = freqs.size
    log_lam = np.log(freqs)
    one_minus_cos = 1.0 - np.cos(freqs)
    log_omc_sum = float(np.log(one_minus_cos).sum())
    basis = _cheb_basis(freqs * (2.0 / np.pi) - 1.0, _TABLE_DEG_LAMBDA - 1)
    weights = powers / (mean_power * one_minus_cos)
    log_edge = np.log(table.edge)
    # Scratch buffers for the hot loop; each whittle_objective call owns its own.
    shape = np.empty(m)
    scratch = np.empty(m)

    def objective(hurst: float) -> float:
        np.multiply(log_lam, -(2.0 * hurst + 1.0), out=shape)
        np.exp(shape, out=shape)
        np.add(shape, np.dot(table.coeffs_for(hurst), basis, out=scratch), out=shape)
        # The tail's lambda dependence is below 2e-7 of the total and is
        # dropped here; fgn_spectral_density keeps the exact form.
        tail_scale = np.exp(-2.0 * hurst * log_edge) / (2.0 * np.pi * hurst)
        np.add(shape, tail_scale, out=shape)
        mean_density = float(one_minus_cos @ shape) / m
        np.divide(weights, shape, out=scratch)
        ratio_mean = mean_density * float(scratch.mean())
        np.log(shape, out=shape)
        # log of the unit-mean density, summed: sum log f - m log mean(f).
        log_sum = log_omc_sum + float(shape.sum()) - m * np.log(mean_density)
        return log_sum + m * (np.log(ratio_mean) + 1.0)

    return objective


def minimize_whittle(objective):
    """Bracketed scalar minimization of the Whittle objective over (0.01, 0.99)."""
    result = minimize_scalar(
        objective,
        bounds=_H_BOUNDS,
        method="bounded",
        options={"xatol": TOLERANCE},
    )
    if not result.success or not np.isfinite(result.fun):
        raise NoConvergence(f"whittle minimization failed: {result.message}")
    return result


def whittle_point_value(series) -> float:
    """Whittle point estimate only: the same minimization as estimate_whittle
    without the CI curvature stencil.  Intended for bulk benchmarking."""
    from .periodogram import periodogram_of

    x = as_values(series)
    if x.size < 64:
        raise ValueError("whittle estimation requires at least 64 samples")
    freqs, powers = periodogram_of(x)
    result = minimize_whittle(whittle_objective(freqs, powers))
    return float(result.x)


def estimate_whittle(series) -> HurstEstimate:
    """Whittle estimate with a 95% CI from the objective curvature at the minimum."""
    from .periodogram import periodogram_of

    x = as_values(series)
    if x.size < 64:
        raise ValueError("whittle estimation requires at least 64 samples")
    freqs, powers = periodogram_of(x)
    objective = whittle_objective(freqs, powers)
    result = minimize_whittle(objective)
    value = float(result.x)

    step = 1e-2
    center = min(max(value, _H_BOUNDS[0] + step), _H_BOUNDS[1] - step)
    curvature = (objective(center + step) - 2.0 * objective(center) + objective(center - step)) / step**2
    ci_low = ci_high = None
    if curvature > 0.0:
        # Q is the profiled negative log Whittle likelihood: Var(H) ~ 1 / Q''.
        half_width = 1.96 / np.sqrt(curvature)
        ci_low = max(0.001, value - half_width)
        ci_high = min(0.999, value + half_width)
    at_bound = value <= _H_BOUNDS[0] + 2.0 * TOLERANCE or value >= _H_BOUNDS[1] - 2.0 * TOLERANCE
    return HurstEstimate(
        value=value,
        method=Method.WHITTLE,
        ci_low=ci_low,
        ci_high=ci_high,
        diagnostics={
            "objective": float(result.fun),
            "evaluations": float(result.nfev),
            "curvature": float(curvature),
            "at_bound": float(at_bound),
        },
    )
