"""The KS p-value port equals scipy.stats bit for bit, on every branch."""

import numpy as np
import pytest
from scipy import stats

from rwre.ks import ks_norm_pvalue, kstwo_sf

# n * d^2 cut-offs of the survival path (18 is a CDF-only cut-off: the
# survival path for n > 140 never reaches it, so both sides must agree)
_NX2_CUTS = (0.754693, 2.2, 4.0, 18.0, 370.0)


def _same(a, b) -> bool:
    """Equal bits: equal values with equal signs of zero."""
    return a == b and np.signbit(a) == np.signbit(b)


def _around(d):
    """d, its two neighbouring doubles on each side and d * (1 -+ 1e-3)."""
    out = [d * 0.999, d * 1.001]
    for direction in (-np.inf, np.inf):
        e = d
        for _ in range(2):
            e = np.nextafter(e, direction)
            out.append(e)
    return out + [d]


def _grid(n):
    """Points on both sides of every branch boundary of the SF at n."""
    ds = [0.0, 0.5 / n, 1.0 / n, (n - 1) / n, 1.0, 0.5]
    ds += [np.sqrt(c / n) for c in _NX2_CUTS]
    ds.append((1.4 / n) ** (2 / 3))           # n d^1.5 = 1.4
    ds.append(0.041743441416853426 / np.sqrt(n))  # Pelz-Good q underflow
    pts = [e for d in ds for e in _around(d)]
    pts += list(np.linspace(0.0, 1.0, 21))
    return [float(d) for d in pts if 0.0 <= d <= 1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 139, 140, 141, 1000, 100000,
                               100001])
def test_sf_matches_kstwo_bitwise(n):
    for d in _grid(n):
        assert _same(kstwo_sf(d, n), float(stats.kstwo.sf(d, n))), (n, d)


@pytest.mark.parametrize("n", [1, 2, 16, 140, 141, 1500, 100001])
@pytest.mark.parametrize("shift", [0.0, 0.1, 1.0])
def test_pvalue_matches_kstest_bitwise(n, shift):
    rng = np.random.default_rng(n)
    for scale in (1.0, 1.2):
        x = scale * rng.standard_normal(n) + shift
        want = stats.kstest(x, "norm").pvalue
        assert _same(ks_norm_pvalue(x), float(want)), (n, shift, scale)
