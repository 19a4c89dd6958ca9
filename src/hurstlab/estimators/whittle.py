"""Whittle maximum-likelihood estimation against the exact fGn spectral density.

The spectral shape is f(lambda; H) = (1 - cos lambda) * S(lambda, H) with
S the alias sum over |lambda + 2*pi*j|^{-s}, s = 2H + 1.  Pairing alias j
with -j and expanding in x = (lambda / 2pi)^2 <= 1/4 gives, for
0 < lambda <= pi,

    S = lambda^{-s} + 2 (2pi)^{-s} sum_{i>=0} (s)_{2i} / (2i)! * zeta(s + 2i) * x^i

with (s)_k the rising factorial and zeta Riemann's.  Every term is
positive and the terms fall roughly as 4^{-i}.

The series part is summed in Chebyshev polynomials T_k(u) of
u = 8x - 1, which maps x in [0, 1/4] onto [-1, 1].  Its first 24 Taylor
coefficients c_i are mapped to Chebyshev coefficients d_k = sum_i M[k, i] c_i
by the fixed matrix M of x^i = ((1 + u) / 8)^i, and the series is cut
after ALIAS_TERMS = 9 of them.  M has no negative entry (a power of
1 + u = T_0 + T_1 has none, as T_j T_k = (T_(j+k) + T_|j-k|) / 2) and
every c_i is positive, so each d_k is a sum of positive terms and there
is no cancellation.  The cut leaves a relative error in S of at most
3.8e-9 for H <= 0.99, the worst case being H = 0.99 at lambda = pi.

The objective is the discrete Whittle contrast
    Q(H) = sum_j [ log f(lambda_j; H) + I~(lambda_j) / f(lambda_j; H) ]
evaluated at the scale that minimizes it, i.e. with sigma^2 profiled out
in closed form.  The profiled Q does not change when f is rescaled, so f
is never normalized; only the periodogram is, to unit mean (I~), which
keeps the reported minimum exactly invariant under a*x + b.  When the
periodogram is replaced by the model density at H0, Q is minimized
exactly at H0.

Repeated objective evaluations dominate benchmark runtime, so the
polynomials T_0(u) .. T_8(u) of the frequency grid are built once per
objective, by T_k = 2u T_(k-1) - T_(k-2); an evaluation is then 9 series
coefficients and one matrix-vector product.

The coefficients need zeta(t) for t = s + 2i in (1, 49), summed by
Euler-Maclaurin (Abramowitz & Stegun 23.2):

    zeta(t) = sum_{k<n} k^-t + n^(1-t)/(t-1) + n^-t/2
              + sum_{j=1}^{7} B_2j/(2j)! (t)_(2j-1) n^(-t-2j+1),    n = 9.

As (s)_2i (s+2i)_(2j-1) = (s)_(2i+2j-1), every term is a constant times
(2 pi k)^-s (s)_m for k = 1..9 and m = 0..59, so with M folded into the
constant table the 9 coefficients are one 9-value exp, one cumprod of
rising factors and one table product; they match scipy.special's Taylor
coefficients mapped through M to 2e-15 relative.

H is found by bounded Brent minimization (Brent 1973, ch. 5), ported
step for step from scipy.optimize.minimize_scalar(method="bounded"):
same points, same x, fun and evaluation count, without importing scipy.
A convergence sweep (whittle_prefix_estimates) starts each prefix's fit
from the previous prefix's H, H0.  It first takes the parabola through Q
at H0 - WARM_STENCIL, H0 and H0 + WARM_STENCIL, Brent's own parabolic
step, and returns its vertex when that lies within the stencil; else it
runs Brent on a narrow bracket around H0.  That takes ~4 evaluations per
prefix instead of ~10 for a full-range fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..series import as_values
from .base import FIT_FAILURES, DegenerateSeries, HurstEstimate, Method, NoConvergence

# xatol of the bounded minimization over H.
TOLERANCE = 1e-4
# Chebyshev terms of the alias sum's series part.
ALIAS_TERMS = 9
# Half-width of the bracket around the previous checkpoint's H in a
# convergence sweep (whittle_prefix_estimates).
WARM_BRACKET = 0.01
# Half-width, 10 * TOLERANCE, of the three-point stencil around the previous
# checkpoint's H whose parabola vertex a convergence sweep tries first.
WARM_STENCIL = 1e-3

_H_BOUNDS = (0.01, 0.99)
# Objective evaluations after which the minimization gives up.
_MAX_EVALUATIONS = 500
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)

# Taylor terms x^0 .. x^23 that the Chebyshev coefficients are taken from.
_TAYLOR_TERMS = 24
# Euler-Maclaurin for zeta: head k = 1 .. _CUT - 1, tail at n = _CUT, and
# the Bernoulli numbers B_2 .. B_14 of the corrections.
_CUT = 9
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_RISING_ORDERS = 2 * _TAYLOR_TERMS + 2 * len(_BERNOULLI) - 2  # (s)_0 .. (s)_59
_LOG_2PI_K = np.log(2.0 * np.pi * np.arange(1, _CUT + 1))
# s + _SHIFTS, with the first entry set to 1, has cumprod (s)_0 .. (s)_59.
_SHIFTS = np.arange(-1.0, _RISING_ORDERS - 1)


def _chebyshev_matrix() -> np.ndarray:
    """M[k, i], the coefficient of T_k(u) in x^i = ((1 + u) / 8)^i, for
    k < ALIAS_TERMS and i < _TAYLOR_TERMS.  Column i is column i - 1 times
    (1 + u) / 8, by u T_0 = T_1 and u T_k = (T_(k+1) + T_(k-1)) / 2, so
    every entry is >= 0."""
    full = np.zeros((_TAYLOR_TERMS, _TAYLOR_TERMS))
    full[0, 0] = 1.0
    for i in range(1, _TAYLOR_TERMS):
        prev = full[:, i - 1] / 8.0
        column = full[:, i]
        column += prev
        column[1:] += 0.5 * prev[:-1]
        column[1] += 0.5 * prev[0]
        column[:-1] += 0.5 * prev[1:]
    return full[:ALIAS_TERMS]


def _zeta_table() -> np.ndarray:
    """T[k, c - 1, m] with Chebyshev coefficient_k(s) = sum_c,m T (2 pi c)^-s (s)_m,
    except the k = 0 tail n^(1-s)/(s-1), which has no (s)_m; rows (k, c)
    are flattened for one matrix-vector product.  Built as the Taylor
    table of coefficient_i over i < _TAYLOR_TERMS, mapped through
    _chebyshev_matrix."""
    taylor = np.zeros((_TAYLOR_TERMS, _CUT, _RISING_ORDERS))
    n = float(_CUT)
    for i in range(_TAYLOR_TERMS):
        weight = 2.0 / math.factorial(2 * i)
        for k in range(1, _CUT):
            taylor[i, k - 1, 2 * i] = weight * float(k) ** (-2 * i)
        if i:
            taylor[i, -1, 2 * i - 1] = weight * n ** (1 - 2 * i)
        taylor[i, -1, 2 * i] = weight * n ** (-2 * i) / 2.0
        for j, bernoulli in enumerate(_BERNOULLI, start=1):
            taylor[i, -1, 2 * i + 2 * j - 1] = weight * bernoulli / math.factorial(2 * j) * n ** (1 - 2 * i - 2 * j)
    return np.tensordot(_chebyshev_matrix(), taylor, axes=1).reshape(-1, _RISING_ORDERS)


_ZETA_TABLE = _zeta_table()


def _series_coefficients(s: float) -> np.ndarray:
    """Chebyshev coefficients d_0 .. d_(ALIAS_TERMS - 1) of the series part
    of the alias sum: sum_i M[k, i] * 2 (2 pi)^-s (s)_2i / (2i)! * zeta(s + 2i)."""
    factors = s + _SHIFTS
    factors[0] = 1.0
    scaled = np.exp(_LOG_2PI_K * -s)
    coeffs = _ZETA_TABLE.dot(factors.cumprod()).reshape(ALIAS_TERMS, _CUT).dot(scaled)
    coeffs[0] += 2.0 * _CUT * scaled[-1] / (s - 1.0)
    return coeffs


def _series_basis(lam: np.ndarray) -> np.ndarray:
    """Rows T_0(u) .. T_(ALIAS_TERMS - 1)(u) of u = 8 (lambda / 2pi)^2 - 1, one
    column per frequency, by T_k = 2u T_(k-1) - T_(k-2)."""
    basis = np.empty((ALIAS_TERMS, lam.size))
    basis[0] = 1.0
    basis[1] = 8.0 * (lam / (2.0 * np.pi)) ** 2 - 1.0
    two_u = 2.0 * basis[1]
    for k in range(2, ALIAS_TERMS):
        np.multiply(two_u, basis[k - 1], out=basis[k])
        basis[k] -= basis[k - 2]
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


def minimize_whittle(objective, bounds: tuple[float, float] = _H_BOUNDS) -> Minimum:
    """Bounded Brent minimization of the Whittle objective over bounds,
    (0.01, 0.99) unless a convergence sweep narrows it (_checkpoint_fit).

    Step for step scipy's bounded method (xatol = TOLERANCE, at most 500
    evaluations): xf is the best point, nfc the second best, fulc the
    third; each step is the parabola through them when it falls well
    inside [a, b], else a golden section.  Raises NoConvergence where scipy
    reports failure (500 evaluations, or NaN at the last point or at the
    minimum) or the minimum is not finite.
    """
    a, b = bounds
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


def _objective(series):
    """The Whittle contrast of a series of at least 64 samples."""
    from .periodogram import periodogram_of

    x = as_values(series)
    if x.size < 64:
        raise ValueError("whittle estimation requires at least 64 samples")
    return whittle_objective(*periodogram_of(x))


def _fit(series):
    """Minimize the Whittle contrast of a series; returns (objective, result)."""
    objective = _objective(series)
    return objective, minimize_whittle(objective)


def whittle_point_value(series) -> float:
    """Whittle point estimate only: the same minimization as estimate_whittle
    without the CI curvature stencil.  Intended for bulk benchmarking."""
    _, result = _fit(series)
    return float(result.x)


def _checkpoint_fit(series, previous: Optional[float]) -> float:
    """H of one convergence checkpoint, warm-started from the previous one's.

    With no previous H this is whittle_point_value.  Otherwise, where
    [previous - WARM_STENCIL, previous + WARM_STENCIL] lies inside the
    global bounds, Q is evaluated at its two ends and its middle, and the
    vertex of the parabola through them is returned when that parabola
    opens upward and its vertex lies inside the stencil (the parabolic step
    of Brent 1973).  Otherwise Brent runs on
    [previous - WARM_BRACKET, previous + WARM_BRACKET], clipped to the global
    bounds, and falls back to the full range when that fit fails or stops
    within 3 * TOLERANCE of a bracket edge that is not a global bound, where
    the minimum may lie outside the bracket.
    """
    objective = _objective(series)
    if previous is not None:
        below, above = previous - WARM_STENCIL, previous + WARM_STENCIL
        if _H_BOUNDS[0] < below and above < _H_BOUNDS[1]:
            q_below, q_mid, q_above = objective(below), objective(previous), objective(above)
            curvature = q_above - 2.0 * q_mid + q_below
            # A NaN at any of the three points fails this test.
            if curvature > 0.0:
                vertex = previous - WARM_STENCIL * (q_above - q_below) / (2.0 * curvature)
                if abs(vertex - previous) <= WARM_STENCIL:
                    return float(vertex)
        low, high = max(previous - WARM_BRACKET, _H_BOUNDS[0]), min(previous + WARM_BRACKET, _H_BOUNDS[1])
        try:
            result = minimize_whittle(objective, (low, high))
        except NoConvergence:
            pass
        else:
            inner = [edge for edge in (low, high) if edge not in _H_BOUNDS]
            if all(abs(result.x - edge) > 3.0 * TOLERANCE for edge in inner):
                return float(result.x)
    return float(minimize_whittle(objective).x)


def whittle_prefix_estimates(series, checkpoints: Sequence[int]) -> list[Optional[float]]:
    """Whittle H of series[:t] for each checkpoint t, or None where the fit
    fails; the sibling of rs.rs_prefix_estimates.

    Successive prefixes share most of their samples, so each fit starts
    from the previous checkpoint's H (_checkpoint_fit): a three-point
    parabola where it can, else a bracketed Brent fit.  The first
    checkpoint, and any after a failed one, is the full-range fit and so
    equals whittle_point_value(series[:t]); the others agree with it to
    within Brent's tolerance (~3e-5 measured against TOLERANCE = 1e-4).
    """
    x = as_values(series)
    ts = np.asarray(checkpoints, dtype=np.int64)
    if ts.size and (ts.min() < 1 or ts.max() > x.size):
        raise ValueError("checkpoints must lie in [1, series length]")
    values: list[Optional[float]] = []
    previous = None
    for t in ts.tolist():
        try:
            previous = _checkpoint_fit(x[:t], previous)
        except FIT_FAILURES:
            previous = None
        values.append(previous)
    return values


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
