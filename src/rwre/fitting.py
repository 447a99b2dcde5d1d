"""Log-log exponent fits shared by the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ExponentFit:
    """OLS fit of log y against log n, with the slope standard error."""

    slope: float
    intercept: float
    slope_se: float


def fit_exponent(n_grid, y) -> ExponentFit:
    """Unweighted least squares on logs; nonpositive y values are dropped
    since they carry no log-log information."""
    n_grid = np.asarray(n_grid, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > 0
    xs = np.log(n_grid[keep])
    ys = np.log(y[keep])
    m = len(xs)
    if m < 2:
        raise ValueError("need at least two positive points for a log-log fit")
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ys.mean())).sum() / sxx)
    intercept = float(ys.mean() - slope * xbar)
    resid = ys - (intercept + slope * xs)
    if m > 2:
        sigma2 = float((resid ** 2).sum() / (m - 2))
    else:
        sigma2 = 0.0
    slope_se = float(np.sqrt(sigma2 / sxx))
    return ExponentFit(slope=slope, intercept=intercept, slope_se=slope_se)
