"""Decay-model fits (algebraic and exponential) by closed-form OLS in log space."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ALGEBRAIC = "algebraic"
EXPONENTIAL = "exponential"
NONE = "none"


class FitError(ValueError):
    pass


@dataclass
class FitResult:
    """Fitted decay model: value(n) = prefactor * n^-rate (algebraic) or
    prefactor * exp(-rate * n) (exponential).  ``r_squared`` is None when the
    fit is degenerate (zero variance of the log values)."""

    model: str
    rate: float
    prefactor: float
    r_squared: float | None
    n_min: int
    points_used: int

    @property
    def degenerate(self) -> bool:
        return self.r_squared is None


def _prepare(points, n_min):
    pts = [(float(n), float(v)) for n, v in points]
    usable = [(n, v) for n, v in pts if n >= n_min and v > 0.0]
    dropped = len([1 for n, v in pts if n >= n_min and v <= 0.0])
    if dropped:
        warnings.warn(f"dropping {dropped} non-positive values before log fit", stacklevel=3)
    if len(usable) < 2:
        raise FitError(f"need at least 2 usable points with n >= {n_min}, got {len(usable)}")
    n = np.array([p[0] for p in usable])
    v = np.array([p[1] for p in usable])
    return n, v


def _ols(x, y):
    """Closed-form simple regression; returns (slope, intercept, r2 or None).

    The fit is degenerate (r2 None, zero slope) when the response has no
    variance beyond round-off; the threshold is scale-free because y is
    already in log space.
    """
    xm = x.mean()
    ym = y.mean()
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm) * (y - ym)).sum()
    syy = ((y - ym) ** 2).sum()
    if np.sqrt(syy / y.size) <= 1e-12 * max(1.0, abs(ym)):
        return 0.0, ym, None
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = ((y - (intercept + slope * x)) ** 2).sum()
    return slope, intercept, 1.0 - ss_res / syy


def fit_algebraic(points, n_min: int) -> FitResult:
    """OLS of log(value) on log(n); rate is minus the slope."""
    n, v = _prepare(points, n_min)
    slope, intercept, r2 = _ols(np.log(n), np.log(v))
    return FitResult(model=ALGEBRAIC, rate=-slope, prefactor=float(np.exp(intercept)),
                     r_squared=r2, n_min=n_min, points_used=n.size)


def fit_exponential(points, n_min: int) -> FitResult:
    """OLS of log(value) on n; rate is minus the slope."""
    n, v = _prepare(points, n_min)
    slope, intercept, r2 = _ols(n, np.log(v))
    return FitResult(model=EXPONENTIAL, rate=-slope, prefactor=float(np.exp(intercept)),
                     r_squared=r2, n_min=n_min, points_used=n.size)


def select_model(alg: FitResult, exp: FitResult) -> str:
    """Higher R-squared wins; exact ties go to the algebraic model."""
    if alg.degenerate and exp.degenerate:
        return NONE
    if alg.degenerate:
        return EXPONENTIAL
    if exp.degenerate:
        return ALGEBRAIC
    return ALGEBRAIC if alg.r_squared >= exp.r_squared else EXPONENTIAL
