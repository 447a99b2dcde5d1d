"""Exact two-sided one-sample Kolmogorov-Smirnov p-value against N(0, 1).

`ks_norm_pvalue(x)` equals `scipy.stats.kstest(x, "norm").pvalue` bit for
bit (scipy 1.17) while loading only numpy and `scipy.special`.  The
statistic is computed as `scipy.stats.ks_1samp` computes it: sort, the
normal CDF `special.ndtr`, then D = max(D+, D-).  Its survival function
P(D_n >= d), `kstwo_sf`, is a port of the survival path of
`scipy/stats/_ksstats._kolmogn` with the same floating-point operations,
in the same order and with the same numpy types (the 0-d float64
argument, the long-double 2^+-128 rescaling), so each branch rounds as
scipy's does.  Simard and L'Ecuyer [5] choose the method by (n, n d^2):

- Ruben-Gambino closed forms for n d <= 1 and n d >= n - 1;
- 2 * `special.smirnov(n, d)` (the one-sided exact tail) for d >= 0.5,
  and as Miller's approximation in the far tail;
- n <= 140: the Durbin matrix [1] computed as Marsaglia, Tsang and Wang
  [3] do for n d^2 <= 0.754693, the Pomeranz recursion [2] up to 4;
- n > 140: 0 from n d^2 >= 370, Miller from 2.2, below that 1 - CDF
  with the CDF from Durbin/MTW while n <= 100000 and n d^1.5 <= 1.4,
  else from the Pelz-Good expansion [4].

The pdf, the quantile functions and the CDF branches that the survival
path never reaches are left out.

Ported from SciPy (scipy/stats/_ksstats.py, BSD-3-Clause license,
Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers).

[1] Durbin J (1968). "The Probability that the Sample Distribution
    Function Lies Between Two Parallel Straight Lines." Ann. Math.
    Statist. 39, 398-411.
[2] Pomeranz J (1974). "Exact Cumulative Distribution of the
    Kolmogorov-Smirnov Statistic for Small Samples (Algorithm 487)."
    Comm. ACM 17(12), 703-704.
[3] Marsaglia G, Tsang WW, Wang J (2003). "Evaluating Kolmogorov's
    Distribution." J. Stat. Softw. 8(18), 1-4.
[4] Pelz W, Good IJ (1976). "Approximating the Lower Tail-areas of the
    Kolmogorov-Smirnov One-sample Statistic." J. R. Stat. Soc. B 38(2),
    152-156.
[5] Simard R, L'Ecuyer P (2011). "Computing the Two-Sided
    Kolmogorov-Smirnov Distribution." J. Stat. Softw. 39(11), 1-18.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1, with B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_norm_pvalue(x) -> float:
    """Exact two-sided KS p-value of the sample x against N(0, 1)."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    cdfvals = special.ndtr(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    # kstwo_sf is in [0, 1] already, so kstest's last clip is a no-op
    return kstwo_sf(d, n)


def kstwo_sf(d, n: int) -> float:
    """P(D_n >= d) for the two-sided KS statistic D_n of n points, equal
    bit for bit to scipy.stats.kstwo.sf(d, n)."""
    x = np.asarray(d, dtype=np.float64)
    if np.isnan(x):
        return np.nan
    if x <= 0.5 / n:  # at or below the support, 1/(2n)
        return 1.0
    if x >= 1.0:
        return 0.0
    return float(np.float64(_kolmogn_sf(n, x)))


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogn_sf(n: int, x):
    """The survival path of scipy's _kolmogn for 1/(2n) < x < 1."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n)
                          + n * np.log(2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip(2 * special.smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _kolmogn_dmtw(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _kolmogn_pomeranz(n, x))
        # Miller approximation of 2 * smirnov
        return _clip(2 * special.smirnov(n, x))

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * special.smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        return _clip(1.0 - _kolmogn_dmtw(n, x))
    return _clip(1.0 - _kolmogn_pelz_good(n, x))


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series with n*log(n) removed up front,
    # which avoids subtractive cancellation:
    #    = log(n)/2 - n + log(sqrt(2pi)) + sum B_{2j}/(2j)/(2j-1)/n**(2j-1)
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_dmtw(n, d):
    """Pr(D_n <= d) for 1/n < d < 1/2 by the MTW form of Durbin's matrix
    algorithm [1], [3]."""
    # Write d = (k-h)/n with k a positive integer and 0 <= h < 1.  H is
    # m*m with m = 2k-1; the answer is entry (k, k) of (n!/n^n) * H^n,
    # with intermediate results rescaled.  O(m^2) memory, O(m^3 log n) time.
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed last row) of H:
    #  v[j] = (1-h^(j+1))/(j+1)!  (except for v[-1]);  w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, which is harmless
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the non-zero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz recursion [2]."""
    # Rows of an n*(2n+2) matrix V, each the convolution of the previous
    # row with Poisson-like weights; the CDF is n! times the last entry of
    # the last row.  Only two rows are kept (V0, V1), each with the start
    # index of its few non-zero entries (V0s, V1s), rescaled as needed.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)  # most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # keep j1, V1, V1s, V0s from the last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first index to use from conv
            conv_len = j2 - j1 + 1  # number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # rescale against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _kolmogn_pelz_good(n, x):
    """Pelz-Good approximation [4] to Pr(D_n <= x) for 1/n < x < 1/2.

    The Li-Chien/Korolyuk expansion
        Pr(D_n <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5,
    z = x*sqrt(n), with each K_i rewritten through Jacobi theta functions
    into a form suited to small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The sums over all integers k of the remaining terms,
    # K_2: (pi^2 k^2) q^(k^2) and K_3: (3pi^2 k^2 z^2 - pi^4 k^4) q^(k^2),
    # taken directly: little subtractive cancellation is expected.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
