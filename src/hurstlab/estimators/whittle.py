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
    Q(H) = sum_j [ log f(lambda_j; H) + I~(lambda_j) / f(lambda_j; H) ]
evaluated at the scale that minimizes it, i.e. with sigma^2 profiled out
in closed form.  The profiled Q does not change when f is rescaled, so f
is never normalized; only the periodogram is, to unit mean (I~), which
keeps the reported minimum exactly invariant under a*x + b.  When the
periodogram is replaced by the model density at H0, Q is minimized
exactly at H0.

Repeated objective evaluations dominate benchmark runtime, so the powers
x^0 .. x^15 of the frequency grid are built once per objective; an
evaluation is then 16 series coefficients and one matrix-vector product.

The coefficients need zeta(t) for t = s + 2i in (1, 33), summed by
Euler-Maclaurin (Abramowitz & Stegun 23.2):

    zeta(t) = sum_{k<n} k^-t + n^(1-t)/(t-1) + n^-t/2
              + sum_{j=1}^{7} B_2j/(2j)! (t)_(2j-1) n^(-t-2j+1),    n = 9,

which matches scipy.special.zeta to 2e-15 relative over the range.  As
(s)_2i (s+2i)_(2j-1) = (s)_(2i+2j-1), every term is a constant times
(2 pi k)^-s (s)_m for k = 1..9 and m = 0..43, so the 16 coefficients are
one 9-value exp, one cumprod of rising factors and a constant table.

H is found by bounded Brent minimization (Brent 1973, ch. 5), ported
step for step from scipy.optimize.minimize_scalar(method="bounded"):
same points, same x, fun and evaluation count, without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..series import as_values
from .base import DegenerateSeries, HurstEstimate, Method, NoConvergence

# xatol of the bounded minimization over H.
TOLERANCE = 1e-4
# Terms of the zeta series for the alias sum.
ALIAS_TERMS = 16

_H_BOUNDS = (0.01, 0.99)
# Objective evaluations after which the minimization gives up.
_MAX_EVALUATIONS = 500
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)

# Euler-Maclaurin for zeta: head k = 1 .. _CUT - 1, tail at n = _CUT, and
# the Bernoulli numbers B_2 .. B_14 of the corrections.
_CUT = 9
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_RISING_ORDERS = 2 * ALIAS_TERMS + 2 * len(_BERNOULLI) - 2  # (s)_0 .. (s)_43
_LOG_2PI_K = np.log(2.0 * np.pi * np.arange(1, _CUT + 1))
# s + _SHIFTS, with the first entry set to 1, has cumprod (s)_0 .. (s)_43.
_SHIFTS = np.arange(-1.0, _RISING_ORDERS - 1)


def _zeta_table() -> np.ndarray:
    """T[i, k - 1, m] with coefficient_i(s) = sum_k,m T (2 pi k)^-s (s)_m,
    except the i = 0 tail n^(1-s)/(s-1), which has no (s)_m; rows (i, k)
    are flattened for one matrix-vector product."""
    table = np.zeros((ALIAS_TERMS, _CUT, _RISING_ORDERS))
    n = float(_CUT)
    for i in range(ALIAS_TERMS):
        weight = 2.0 / math.factorial(2 * i)
        for k in range(1, _CUT):
            table[i, k - 1, 2 * i] = weight * float(k) ** (-2 * i)
        if i:
            table[i, -1, 2 * i - 1] = weight * n ** (1 - 2 * i)
        table[i, -1, 2 * i] = weight * n ** (-2 * i) / 2.0
        for j, bernoulli in enumerate(_BERNOULLI, start=1):
            table[i, -1, 2 * i + 2 * j - 1] = weight * bernoulli / math.factorial(2 * j) * n ** (1 - 2 * i - 2 * j)
    return table.reshape(-1, _RISING_ORDERS)


_ZETA_TABLE = _zeta_table()


def _series_coefficients(s: float) -> np.ndarray:
    """2 (2 pi)^-s (s)_2i / (2i)! * zeta(s + 2i) for i = 0 .. ALIAS_TERMS - 1."""
    factors = s + _SHIFTS
    factors[0] = 1.0
    scaled = np.exp(_LOG_2PI_K * -s)
    coeffs = _ZETA_TABLE.dot(factors.cumprod()).reshape(ALIAS_TERMS, _CUT).dot(scaled)
    coeffs[0] += 2.0 * _CUT * scaled[-1] / (s - 1.0)
    return coeffs


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
    coeffs = _series_coefficients(s)
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

    Q(H) = sum_j log f_j(H) + m * log(mean_j(I~_j / f_j(H))) + m,
    the value of sum_j [log(c f_j) + I~_j/(c f_j)] at its minimizing
    scale c, so sigma^2 never enters and the scale of f cancels.
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
        np.divide(weights, shape, out=scratch)
        np.log(shape, out=shape)
        return log_omc_sum + float(shape.sum()) + m * (np.log(scratch.mean()) + 1.0)

    return objective


@dataclass(frozen=True)
class Minimum:
    """Where the minimization stopped: H, the objective there, and the evaluations used."""

    x: float
    fun: float
    nfev: int


def minimize_whittle(objective) -> Minimum:
    """Bounded Brent minimization of the Whittle objective over (0.01, 0.99).

    Step for step scipy's bounded method (xatol = TOLERANCE, at most 500
    evaluations): xf is the best point, nfc the second best, fulc the
    third; each step is the parabola through them when it falls well
    inside [a, b], else a golden section.  Raises NoConvergence where scipy
    reports failure (500 evaluations, or NaN at the last point or at the
    minimum) or the minimum is not finite.
    """
    a, b = _H_BOUNDS
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = float(objective(xf))
    fu = math.inf
    nfev = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + TOLERANCE / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = float(objective(x))
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + TOLERANCE / 3.0
        tol2 = 2.0 * tol1
        if nfev >= _MAX_EVALUATIONS:
            raise NoConvergence(f"whittle minimization failed: {nfev} evaluations without converging")
    if math.isnan(fu) or not math.isfinite(fx):
        raise NoConvergence(f"whittle minimization failed: objective not finite near H = {xf}")
    return Minimum(x=xf, fun=fx, nfev=nfev)


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
