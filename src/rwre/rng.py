"""Keyed, counter-based pseudo-randomness.

Every random quantity in the laboratory is a pure function of a 64-bit key
and a counter.  Keys are derived by folding integer parts (seeds, lattice
coordinates, replica indices, purpose tags) through the splitmix64
finalizer; streams are splitmix64 sequences anchored at the key.  This
gives reproducibility that is independent of query order, worker count and
scheduling: two consumers asking for the same (key, counter) always see the
same value, and no draw ever has to be stored.

Scalar helpers operate on Python ints (masked to 64 bits); the `*_array`
variants operate on numpy uint64 arrays and produce bit-identical values.
The array variants keep every intermediate an array of at least one
dimension: uint64 array arithmetic wraps silently, whereas numpy uint64
*scalars* (what a 0-d array turns into after one operation) warn on
overflow.
"""

from __future__ import annotations

import functools
import multiprocessing

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
# shift counts as numpy scalars made once: building them per call costs
# more than the shifts themselves on small arrays
_U_30, _U_27, _U_31, _U_11 = (np.uint64(c) for c in (30, 27, 31, 11))

# fixed purpose tags so that unrelated streams never share a key
TAG_SITE = 0x51BE5EED
TAG_WALK = 0x57A1C5EED
TAG_ENV = 0xE27F5EED

# The largest uniform the helpers return, the largest double below 1.  The
# top 53 bits of a draw plus one half would round to 1.0 when they are all
# ones, and gammaincinv(a, 1.0) is inf
U01_MAX = 1.0 - 2.0**-53

# Cells (walkers x counters) of one block of counter_u01_array draws.  Blocks
# are exact: a draw is a pure function of (key, counter), so a block draws
# ahead what a one-counter loop would, and a stop rule cuts it where it stops
_BLOCK_CELLS = 1 << 14

# Step tables of at most this many entries count thresholds in step_index.
# On a block of 2**14 uniforms that beats searchsorted 10x at 2 entries,
# 2.6x at 16 and 1.3x at 48, and loses at 64 (0.9x; 2-vCPU VM)
_SHORT_TABLE = 48


def mix64(h: int) -> int:
    """splitmix64 finalizer on a Python int, result in [0, 2^64)."""
    h &= MASK64
    h = ((h ^ (h >> 30)) * _M1) & MASK64
    h = ((h ^ (h >> 27)) * _M2) & MASK64
    return h ^ (h >> 31)


def _u64_1d(x) -> np.ndarray:
    """x as a uint64 array of at least one dimension, copied only if needed."""
    return np.array(x, dtype=np.uint64, copy=None, ndmin=1)


def mix64_array(h: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer on uint64 arrays (ndim >= 1)."""
    x = h >> _U_30                # a new array; the rest works in place
    x ^= h
    del h                         # so at most two arrays of its size live
    x *= _U_M1
    x ^= x >> _U_27
    x *= _U_M2
    x ^= x >> _U_31
    return x


def _u01(v: np.ndarray) -> np.ndarray:
    """Uniforms in [2**-54, U01_MAX] from the top 53 bits of fresh uint64
    draws."""
    v >>= _U_11
    u = v.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, U01_MAX, out=u)
    return u


def derive_key(seed: int, *parts: int) -> int:
    """Fold integer parts (may be negative) into a well-mixed 64-bit key."""
    h = mix64(seed + GAMMA)
    for p in parts:
        h = mix64((h + GAMMA) ^ (p & MASK64))
    return h


def fold_key_array(keys, parts) -> np.ndarray:
    """derive_key(..., p) given its prefix key k = derive_key(...), for
    uint64 keys k and nonnegative parts p broadcast against each other
    (bit-identical).  keys[:, None] against an index range folds a
    (len(keys), n) grid of keys in one call."""
    return mix64_array((_u64_1d(keys) + _U_GAMMA) ^ _u64_1d(parts))


def derive_key_array(seeds: np.ndarray, *parts: int) -> np.ndarray:
    """derive_key(seed, *parts) for each of an array of uint64 seeds
    (bit-identical)."""
    h = mix64_array(_u64_1d(seeds) + _U_GAMMA)
    for p in parts:
        h = fold_key_array(h, p & MASK64)
    return h


def derive_key_range(seed: int, *parts: int, n: int) -> np.ndarray:
    """[derive_key(seed, *parts, i) for i in range(n)] as a uint64 array
    (bit-identical): the shared prefix is folded once, the index last."""
    return fold_key_array(derive_key(seed, *parts),
                          np.arange(n, dtype=np.uint64))


def _fold_sites(h: np.ndarray, sites) -> np.ndarray:
    """Fresh keys h (n,) folded, in place, with the columns of sites (n, d)
    as derive_key folds parts.  The site-key functions share it, and
    neither calls the other: perfbench/tracer.py would count a nested
    call's keys twice."""
    for j in range(sites.shape[1]):
        h += _U_GAMMA
        h ^= sites[:, j].astype(np.int64, copy=False).view(np.uint64)
        h = mix64_array(h)
    return h


def site_keys(env_key: int, sites: np.ndarray) -> np.ndarray:
    """Keys for lattice sites, one per row of `sites` (n, d) int array.

    Matches derive_key(env_key, *site) coordinate by coordinate.
    """
    sites = np.atleast_2d(sites)      # one site (d,) as one row
    return _fold_sites(np.full(sites.shape[0], mix64(env_key + GAMMA),
                               dtype=np.uint64), sites)


def site_keys_mixed(prefix_keys, sites: np.ndarray) -> np.ndarray:
    """Keys derive_key(env_key, *site), one per row of `sites` (n, d) int
    array, given the prefix key derive_key(env_key) of each row's
    environment (n,), or one prefix key for every row (bit-identical).

    The array twin of site_u01's prefix_key: a caller folds its prefixes
    once, with derive_key_array(env_keys), and each call folds only the
    site coordinates.
    """
    sites = np.asarray(sites)
    h = np.empty(sites.shape[0], dtype=np.uint64)
    h[:] = _u64_1d(prefix_keys)
    return _fold_sites(h, sites)


def stream_u01(key: int, ctr: int) -> float:
    """Uniform in [2**-54, U01_MAX], scalar: the top 53 bits of draw `ctr`
    of the splitmix64 sequence anchored at `key`."""
    u = ((mix64(key + ctr * GAMMA) >> 11) + 0.5) * 2.0**-53
    return u if u < 1.0 else U01_MAX


def site_u01(prefix_key: int, site, k: int, ctr: int = 0) -> list:
    """[stream_u01(derive_key(seed, *prefix, *site), ctr + i) for i in
    range(k)], given prefix_key = derive_key(seed, *prefix) and a site of
    Python ints (bit-identical).

    One call per site for the sequential walks: the coordinates are folded
    and each draw mixed inline, with no Python call per coordinate or draw.
    """
    h = prefix_key
    for c in site:
        h = ((h + GAMMA) ^ c) & MASK64      # masking c first changes nothing
        h = ((h ^ (h >> 30)) * _M1) & MASK64
        h = ((h ^ (h >> 27)) * _M2) & MASK64
        h ^= h >> 31
    out = []
    for i in range(ctr, ctr + k):
        x = (h + i * GAMMA) & MASK64
        x = ((x ^ (x >> 30)) * _M1) & MASK64
        x = ((x ^ (x >> 27)) * _M2) & MASK64
        u = (((x ^ (x >> 31)) >> 11) + 0.5) * 2.0**-53
        out.append(u if u < 1.0 else U01_MAX)
    return out


def counter_u64_array(keys, ctrs) -> np.ndarray:
    """The raw uint64 draws at (key, counter) pairs, `keys` broadcast
    against `ctrs`: one key across counters, or keys[:, None] across a
    (m, B) counter block.  counter_u01_array returns their _u01 images."""
    return mix64_array(_u64_1d(keys) + _u64_1d(ctrs) * _U_GAMMA)


def counter_u01_array(keys, ctrs) -> np.ndarray:
    """Uniforms in [2**-54, U01_MAX] at (key, counter) pairs, `keys`
    broadcast against `ctrs`.  Entry-wise equal to stream_u01(key, ctr)."""
    return _u01(counter_u64_array(keys, ctrs))


def _block_len(m: int, left: int | None = None) -> int:
    """Counters per block of _BLOCK_CELLS cells for m walkers, at most left."""
    b = max(1, _BLOCK_CELLS // max(m, 1))
    return b if left is None else min(b, left)


def stream_u01_array(keys: np.ndarray, ctr: int) -> np.ndarray:
    """counter_u01_array(keys, ctr); perfbench/tracer.py counts its calls."""
    return counter_u01_array(keys, ctr)


@functools.lru_cache(maxsize=64)
def _draw_thresholds(cum: bytes) -> np.ndarray:
    """For each entry c of the float64 table cum[:-1] (given as bytes), the
    least uint64 draw v with _u01(v) > c.  Entries that no draw exceeds
    (c >= U01_MAX) are left out; they end a nondecreasing table.

    _u01(v) depends on the top 53 bits w = v >> 11 alone, through a rounded
    float w + 0.5 (to even from 2**52 on), and never decreases in w, so w is
    bisected on the formula itself: exact at every entry."""
    c = np.frombuffer(cum)[:-1]
    lo = np.zeros(len(c), dtype=np.uint64)         # the least w is in
    hi = np.full(len(c), 1 << 53, dtype=np.uint64)  # [lo, hi]; 2**53: none
    while (lo < hi).any():
        mid = (lo + hi) >> np.uint64(1)
        above = _u01(mid << _U_11) > c
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid + np.uint64(1))
    cut = lo[lo < 1 << 53] << _U_11
    cut.flags.writeable = False                     # shared by the cache
    return cut


def step_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(searchsorted(cum, u, side="left"), len(cum) - 1): the inverse CDF
    of one cumulative table at an array of uniforms, clipped to the last
    entry for a u above a last component rounded below 1.  Short tables
    count the thresholds cum[:-1] below u instead of searching.

    `u` may instead hold raw uint64 draws (counter_u64_array), which then
    stand for their _u01 images: a draw passes entry c exactly when it is
    at least _draw_thresholds' integer threshold of c, computed once per
    table, so the uniforms are never formed."""
    if u.dtype == np.uint64:
        cut = _draw_thresholds(np.asarray(cum, dtype=np.float64).tobytes())
        passes, side = np.greater_equal, "right"
    else:
        cut, passes, side = cum[:-1], np.greater, "left"
    if len(cum) > _SHORT_TABLE:
        return np.searchsorted(cut, u, side=side)
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cut:
        idx += passes(u, c)
    return idx


def _pmap(fn, items, workers: int) -> list:
    """[fn(it) for it in items], through one fork pool of min(workers,
    len(items)) processes when both exceed 1.  fn must pickle; a pure fn
    gives the same list for any `workers`."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with multiprocessing.get_context("fork").Pool(
            min(workers, len(items))) as pool:
        return pool.map(fn, items)
