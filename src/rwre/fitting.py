"""The one grid rule and the one fit rule of the exponent experiments.

Grid rule (check_grid): a grid of horizons, levels or radii is read as a
sorted list of distinct ints >= lo, at least `least` of them (2 where a
fit or trend test needs them), or raises a ValueError naming it.
Fit rule (fit_exponent): log y is fitted against log n by least squares
over the points with n > 0 and y > 0; below two distinct such n the fit
is None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class ExponentFit:
    """OLS fit of log y against log n, with the slope standard error."""

    slope: float
    intercept: float
    slope_se: float


def int_list(values, name: str) -> list:
    """values, Python or numpy integers, as a list of Python ints, or a
    ValueError naming `name` at the first entry that is not one."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} entries must be integers (got {v!r})")
    return [int(v) for v in values]


def check_grid(values, lo: int, name: str, least: int = 1) -> list:
    """values as a sorted list of distinct ints >= lo, at least `least` of
    them, or ValueError; a float, string or bool entry is not truncated."""
    grid = sorted(int_list(values, name))
    if len(set(grid)) < max(least, len(grid)) or grid[0] < lo:
        raise ValueError(f"{name} entries must be >= {lo} and distinct, "
                         f"{least} or more of them (got {grid})")
    return grid


def fit_exponent(n_grid, y) -> Optional[ExponentFit]:
    """Unweighted least squares on logs over the points with n > 0 and
    y > 0; None below two distinct such n."""
    n_grid = np.asarray(n_grid, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (n_grid > 0) & (y > 0)
    if np.unique(n_grid[keep]).size < 2:
        return None
    xs = np.log(n_grid[keep])
    ys = np.log(y[keep])
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ys.mean())).sum() / sxx)
    intercept = float(ys.mean() - slope * xbar)
    resid = ys - (intercept + slope * xs)
    m = len(xs)
    sigma2 = float((resid ** 2).sum() / (m - 2)) if m > 2 else 0.0
    slope_se = float(np.sqrt(sigma2 / sxx))
    return ExponentFit(slope=slope, intercept=intercept, slope_se=slope_se)
