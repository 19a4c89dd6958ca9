"""Shared estimator types: results, failure modes, regression helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

import numpy as np


class Method(str, Enum):
    RS = "rs"
    PERIODOGRAM = "periodogram"
    WHITTLE = "whittle"
    ABRY_VEITCH = "abry_veitch"


class DegenerateSeries(ValueError):
    """The input carries no usable variability for this estimator."""


class NoConvergence(RuntimeError):
    """The Whittle objective minimization did not isolate a minimum."""


# What one failed fit raises: batch runs record these per fit and go on.
FIT_FAILURES = (DegenerateSeries, NoConvergence, ValueError)

# Share of failed fits above which a grid cell, checkpoint or scan is flagged.
FAILURE_FLAG_FRACTION = 0.10


def too_many_failures(failures: int, total: int) -> bool:
    """Whether failures out of total fits flag their cell, checkpoint or scan."""
    return failures > FAILURE_FLAG_FRACTION * total


# Out-of-range regression slopes are mapped into this open interval and
# flagged rather than raised, so benchmark grids can record wild
# short-series estimates instead of aborting.
H_CLAMP_LOW = 0.001
H_CLAMP_HIGH = 0.999


@dataclass(frozen=True)
class HurstEstimate:
    """An estimator's output: point value, method tag, optional CI, diagnostics."""

    value: float
    method: Method
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ValueError("estimate must lie in (0,1)")
        if (self.ci_low is None) != (self.ci_high is None):
            raise ValueError("confidence bounds must come as a pair")
        if self.ci_low is not None and not self.ci_low <= self.value <= self.ci_high:
            raise ValueError("confidence interval must bracket the estimate")


def clamp_hurst(raw: float) -> tuple[float, bool]:
    """Map a raw slope-derived H into (0.001, 0.999); report whether it moved."""
    clamped = min(max(raw, H_CLAMP_LOW), H_CLAMP_HIGH)
    return clamped, clamped != raw


def loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least-squares line fit; returns (slope, intercept, corr_coef)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("regression abscissae are all identical")
    sxy = float(xc @ yc)
    syy = float(yc @ yc)
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    corr = sxy / np.sqrt(sxx * syy) if syy > 0.0 else 1.0
    return slope, intercept, float(corr)
