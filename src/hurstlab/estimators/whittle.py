"""Whittle maximum-likelihood estimation against the exact fGn spectral density.

The spectral shape is f(lambda; H) = (1 - cos lambda) * S(lambda, H) with
S the alias sum over |lambda + 2*pi*j|^{-s}, s = 2H + 1.  Pairing alias j
with -j and expanding in x = (lambda / 2pi)^2 <= 1/4 gives, for
0 < lambda <= pi,

    S = lambda^{-s} + 2 (2pi)^{-s} sum_{i>=0} (s)_{2i} / (2i)! * zeta(s + 2i) * x^i

with (s)_k the rising factorial and zeta Riemann's.  Every term is
positive and the terms fall roughly as 4^{-i}.  ALIAS_TERMS = 16 terms
leave a relative error in S of at most 2.1e-8 for H <= 0.99, the worst
case being H = 0.99 at lambda = pi.

The objective is the discrete Whittle contrast
    Q(H) = sum_j [ log f~(lambda_j; H) + I~(lambda_j) / f~(lambda_j; H) ]
evaluated at the scale that minimizes it, i.e. with sigma^2 profiled out
in closed form; f~ and I~ are the unit-mean-normalized density and
periodogram.  The profiled form is exactly invariant under a*x + b and,
when the periodogram is replaced by the model density at H0, is minimized
exactly at H0.

Repeated objective evaluations dominate benchmark runtime, so the powers
x^0 .. x^15 of the frequency grid are built once per objective; an
evaluation is then 16 series coefficients and one matrix-vector product.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import factorial, poch, zeta

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, NoConvergence

# xatol of the bounded minimization over H.
TOLERANCE = 1e-4
# Terms of the zeta series for the alias sum.
ALIAS_TERMS = 16

_H_BOUNDS = (0.01, 0.99)
_EVEN = 2.0 * np.arange(ALIAS_TERMS)
_SERIES_WEIGHTS = 2.0 / factorial(_EVEN)


def _series_basis(lam: np.ndarray) -> np.ndarray:
    """Rows x^0 .. x^(ALIAS_TERMS - 1) of x = (lambda / 2pi)^2, one column per frequency."""
    x = (lam / (2.0 * np.pi)) ** 2
    basis = np.empty((ALIAS_TERMS, x.size))
    basis[0] = 1.0
    for i in range(1, ALIAS_TERMS):
        np.multiply(basis[i - 1], x, out=basis[i])
    return basis


def _alias_sum(hurst: float, log_lam: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S(lambda, H) = sum_j |lambda + 2*pi*j|^{-2H-1}, written into out."""
    s = 2.0 * hurst + 1.0
    coeffs = (2.0 * np.pi) ** -s * poch(s, _EVEN) * zeta(s + _EVEN) * _SERIES_WEIGHTS
    np.multiply(log_lam, -s, out=out)
    np.exp(out, out=out)
    out += np.dot(coeffs, basis)
    return out


def fgn_spectral_density(hurst: float, frequency):
    """Normalization-free fGn spectral density shape on (0, pi].

    f(lambda; H) = (1 - cos lambda) * sum_j |lambda + 2*pi*j|^{-2H-1},
    summed by the zeta series of the module docstring.  Accepts a scalar
    or array frequency.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must be in (0,1)")
    lam = np.asarray(frequency, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam > np.pi):
        raise ValueError("frequency must lie in (0, pi]")
    flat = np.atleast_1d(lam).ravel()
    s = _alias_sum(hurst, np.log(flat), _series_basis(flat), np.empty(flat.size))
    out = (1.0 - np.cos(flat)) * s
    if np.isscalar(frequency) or np.ndim(frequency) == 0:
        return float(out[0])
    return out.reshape(lam.shape)


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


def _fit(series):
    """Minimize the Whittle contrast of a series; returns (objective, result)."""
    from .periodogram import periodogram_of

    x = as_values(series)
    if x.size < 64:
        raise ValueError("whittle estimation requires at least 64 samples")
    objective = whittle_objective(*periodogram_of(x))
    return objective, minimize_whittle(objective)


def whittle_point_value(series) -> float:
    """Whittle point estimate only: the same minimization as estimate_whittle
    without the CI curvature stencil.  Intended for bulk benchmarking."""
    _, result = _fit(series)
    return float(result.x)


def estimate_whittle(series) -> HurstEstimate:
    """Whittle estimate with a 95% CI from the objective curvature at the minimum."""
    objective, result = _fit(series)
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
