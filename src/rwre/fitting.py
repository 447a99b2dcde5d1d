"""The value, step-law, grid and fit rules: one rule each.

Value rules (integer, real, nested): every number and nested list a
model, walk, chain or experiment takes is read by one of them, or a
ValueError names the field.  An integer is a Python or numpy int, not a
bool, in int64; a real is a finite Python or numpy int or float, not a
bool; nested lists are nonempty lists, tuples or arrays.
Step-law rules (pmf, symmetric, mixture_atoms): a pmf is nonnegative
reals whose math.fsum, the same in any order, lies within 1e-12 of 1; a
symmetric law gives -z the mass of z within 1e-12; a mixture's atoms are
a nonempty list or tuple of (probs, weight) pairs, a pmf and a real > 0.
Grid rule (check_grid): a grid of horizons, levels or radii is read as a
sorted list of distinct ints >= lo, at least `least` of them (2 where a
fit or trend test needs them), or raises a ValueError naming it.
Fit rule (fit_exponent): log y is fitted against log n by least squares
over the points with n > 0 and y > 0; below two distinct such n the fit
is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import neg
from reprlib import repr as _show
from typing import Optional

import numpy as np


@dataclass
class ExponentFit:
    """OLS fit of log y against log n, with the slope standard error."""

    slope: float
    intercept: float
    slope_se: float


def refusal(what, v, name="") -> ValueError:
    """The error of a value rule: `name` must be `what`, and what it got,
    an array with its dtype and shape."""
    got = (f"{_show(v.tolist())}, array of dtype {v.dtype} and shape "
           f"{v.shape}" if isinstance(v, np.ndarray) else _show(v))
    return ValueError(f"{name} must be {what} (got {got})".lstrip())


def integer(v, name="", lo=None) -> int:
    """v, a Python or numpy int, not a bool, in [-2**63, 2**63) (numpy
    holds the field as one or sizes by it) and >= lo, as a Python int."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise refusal("an integer", v, name)
    if not -2**63 <= v < 2**63:
        raise refusal("an integer in [-2**63, 2**63)", v, name)
    if lo is not None and v < lo:
        raise refusal(f">= {lo}", v, name)
    return int(v)


def real(v, name="", above=None) -> float:
    """v, a finite Python or numpy int or float, not a bool, and > above,
    as a float."""
    finite = not isinstance(v, bool) and isinstance(
        v, (int, float, np.integer, np.floating))
    try:
        finite = finite and math.isfinite(v)
    except OverflowError:       # an int beyond the float range
        finite = False
    if not finite:
        raise refusal("a finite number", v, name)
    if above is not None and v <= above:
        raise refusal(f"> {above}", v, name)
    return float(v)


def nested(v, item, shape, name="") -> list:
    """v as nested lists of item(entry, name): nonempty lists, tuples or
    arrays, shape[i] the length at level i (None for any).  A numeric
    array of that shape is read whole: each entry has its dtype's type,
    so item(min) and item(max) check them all (NaN reaches both).  A
    refusal shows v as given."""
    given = v
    if isinstance(v, np.ndarray):
        if v.dtype.kind in "iuf" and v.ndim == len(shape) and v.size and all(
                n in (None, m) for n, m in zip(shape, v.shape)):
            low = item(v.min(), name)
            item(v.max(), name)
            return v.astype(type(low)).tolist()
        v = v.tolist()
    if not shape:
        return item(v, name)
    if not isinstance(v, (list, tuple)) or not v \
            or shape[0] not in (None, len(v)):
        raise refusal(f"a list of {shape[0] or 'one or more'} entries",
                      given, name)
    return [nested(x, item, shape[1:], name) for x in v]


def pmf(v, k=None, name="") -> list:
    """v as k floats (any number for None) read by `real`, nonnegative,
    with a math.fsum within 1e-12 of 1."""
    p = nested(v, real, [k], name)
    if min(p) < 0 or abs(math.fsum(p) - 1.0) > 1e-12:
        raise refusal("nonnegative numbers that sum to 1", v, name)
    return p


def mixture_atoms(v, k, name) -> list:
    """v, a nonempty list or tuple of (probs, weight) pairs, as a list of
    (tuple, float) pairs: probs read by pmf with k entries, weight by
    real, > 0."""
    if not isinstance(v, (list, tuple)) or not v or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in v):
        raise refusal("a list of one or more (probs, weight) pairs", v, name)
    return [(tuple(pmf(p, k, "probs")), real(w, "weight", above=0))
            for p, w in v]


def symmetric(offsets, probs, name="") -> None:
    """ValueError naming `name` unless the law giving offsets[i] (tuples of
    ints) the mass probs[i] gives each -z the mass of z within 1e-12."""
    mass: dict = {}
    for z, q in zip(offsets, probs):
        mass[z] = mass.get(z, 0.0) + q
    for z, q in mass.items():
        mz = tuple(map(neg, z))
        if abs(q - mass.get(mz, 0.0)) > 1e-12:
            raise refusal("symmetric, giving -z the mass of z",
                          {z: q, mz: mass.get(mz, 0.0)}, name)


def check_grid(values, lo: int, name: str, least: int = 1) -> list:
    """values as a sorted list of distinct ints >= lo, at least `least` of
    them, each read by `integer`, or ValueError."""
    grid = sorted(integer(v, name) for v in values)
    if len(set(grid)) < max(least, len(grid)) or grid[0] < lo:
        raise ValueError(f"{name} entries must be >= {lo} and distinct, "
                         f"{least} or more of them (got {grid})".lstrip())
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
