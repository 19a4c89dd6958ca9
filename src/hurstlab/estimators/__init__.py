"""Hurst-exponent estimators: R/S, Periodogram, Whittle, Abry-Veitch.

All estimators are pure functions of the series and return the same
value for a*x + b as for x (a > 0).  Diagnostics carry a stable key set:

    slope, intercept, corr_coef, points_used, clamped   (regression methods)
    objective, evaluations, curvature, at_bound         (whittle)
    scale_min, scale_max, scale_range_reduced           (abry_veitch extras)

Flags are encoded as 0.0 / 1.0.
"""

from .base import FIT_FAILURES, DegenerateSeries, HurstEstimate, Method, NoConvergence, too_many_failures
from .periodogram import estimate_periodogram, periodogram_of
from .rs import estimate_rs
from .wavelet import dwt, dwt_detail_variances, estimate_abry_veitch, quadrature_mirror
from .whittle import estimate_whittle, fgn_spectral_density, minimize_whittle, whittle_objective

_DISPATCH = {
    Method.RS: estimate_rs,
    Method.PERIODOGRAM: estimate_periodogram,
    Method.WHITTLE: estimate_whittle,
    Method.ABRY_VEITCH: estimate_abry_veitch,
}


def estimate(series, method) -> HurstEstimate:
    """Run one named estimator on a series."""
    return _DISPATCH[Method(method)](series)


__all__ = [
    "DegenerateSeries",
    "FIT_FAILURES",
    "HurstEstimate",
    "Method",
    "NoConvergence",
    "dwt",
    "dwt_detail_variances",
    "estimate",
    "estimate_abry_veitch",
    "estimate_periodogram",
    "estimate_rs",
    "estimate_whittle",
    "fgn_spectral_density",
    "minimize_whittle",
    "periodogram_of",
    "quadrature_mirror",
    "too_many_failures",
    "whittle_objective",
]
