"""Quenched walk simulation and diffusive scaling.

A walk is driven by two independent sources of randomness: the environment
stream (per-site probability vectors) and the walk's own uniform stream,
one draw per time step.  Steps are selected by inverse CDF over the fixed
ordering of J, so a path is a pure function of (env_seed, walk_seed, start)
and simulating n' < n steps yields the prefix of the n-step path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add

import numpy as np

from .environment import Environment, EnvironmentModel, cum_vectors_from_keys
from .rng import (MASK64, TAG_WALK, counter_u01_array, derive_key,
                  derive_key_array, site_keys, site_keys_mixed, step_index,
                  stream_u01_array)


@dataclass
class WalkPath:
    """A finite trajectory with cached level data."""

    sites: np.ndarray        # (n+1, d) int64
    u_hat: np.ndarray        # (d,) int64

    def __post_init__(self):
        self.sites = np.asarray(self.sites, dtype=np.int64)
        self.u_hat = np.asarray(self.u_hat, dtype=np.int64)
        self.levels = self.sites @ self.u_hat
        self.running_max = np.maximum.accumulate(self.levels)

    @property
    def start(self) -> np.ndarray:
        return self.sites[0]

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def n_steps(self) -> int:
        return len(self.sites) - 1

    def to_csv_rows(self):
        """Rows (k, x_1..x_d, level) for debugging dumps."""
        for k in range(len(self.sites)):
            yield (k, *self.sites[k].tolist(), int(self.levels[k]))


def walk_key(walk_seed: int) -> int:
    return derive_key(walk_seed, TAG_WALK)


def walk_seed_array(walk_seeds) -> np.ndarray:
    """Walk seeds as the many-walk engines read them, as uint64 (mod 2**64,
    which leaves walk_key unchanged).

    The engines read a seed list through np.asarray, which turns a list
    mixing seeds below and above 2**63 into float64 and so rounds them to
    53 bits; realized walks depend on this rule.  A caller that batches
    several seed lists into one engine call converts each list here and
    concatenates the arrays, which the engines then read exactly.
    """
    return np.array([int(s) & MASK64 for s in np.asarray(walk_seeds)],
                    dtype=np.uint64)


def simulate(env: Environment, start, n: int, walk_seed: int) -> WalkPath:
    """Sample an n-step path under P^omega_start."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = env.model.support.dimension
    start = np.asarray(start, dtype=np.int64)
    u_hat = np.asarray(env.model.support.u_hat, dtype=np.int64)
    if n == 0:
        return WalkPath(start[None, :].copy(), u_hat)
    # the walk's uniforms at counters 0..n-1 in one call; the step indices
    # become sites in one cumsum
    u = counter_u01_array(walk_key(walk_seed), np.arange(n, dtype=np.uint64))
    steps = env.model.support.steps
    last = len(steps) - 1
    if env.model.kind == "deterministic":
        idx = step_index(np.cumsum(env.model.probs), u)
    else:
        cum_at = env.cum_at
        pos = tuple(start.tolist())
        idx = []
        for ui in u.tolist():
            i = bisect_left(cum_at(pos), ui, 0, last)
            idx.append(i)
            pos = tuple(map(add, pos, steps[i]))
    sites = np.empty((n + 1, d), dtype=np.int64)
    sites[0] = start
    np.cumsum(env.model.support.steps_array[idx], axis=0, out=sites[1:])
    sites[1:] += start
    return WalkPath(sites, u_hat)


def first_passage(path: WalkPath, level: int):
    """Minimal k with levels[k] >= level, or None if not reached."""
    hits = np.nonzero(path.levels >= level)[0]
    if hits.size == 0:
        return None
    return int(hits[0])


def diffusive_scale(path: WalkPath, v, n: int, t_grid) -> np.ndarray:
    """B_n(t) = (X_[nt] - [nt] v) / sqrt(n) on the given t grid."""
    v = np.asarray(v, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((t_grid >= 0) & (t_grid < np.inf)):    # also rejects NaN
        raise ValueError("t_grid entries must be finite nonnegative numbers")
    # checked as floats: a time past the path may not fit an index, and
    # n * t may overflow to inf, which the check below rejects
    with np.errstate(over="ignore"):
        nt = np.floor(n * t_grid)
    if nt.max(initial=0) > path.n_steps:
        raise ValueError("path too short for requested scale/grid")
    idx = nt.astype(int)
    return (path.sites[idx] - idx[:, None] * v) / np.sqrt(n)


# ---------------------------------------------------------------------------
# vectorized many-walk engines


# Site-vector cache size: sixteen slots per walker, a power of two, at most
# _CACHE_MAX_BYTES of keys, occupancy flags and cumulative vectors.
_CACHE_SLOTS_PER_WALKER = 16
_CACHE_MIN_SLOTS = 64
_CACHE_MAX_BYTES = 4 << 20


class _SiteCache:
    """Direct-mapped cache of cumulative site vectors, keyed by site key.

    A site vector is a pure function of its site key, so an entry may be
    evicted at any time and recomputed exactly: colliding keys simply
    overwrite each other.  The table size is fixed when the engine starts,
    so memory stays bounded however long the walk, and a lookup is
    O(walkers) vectorized work with no sort over the hits.
    """

    def __init__(self, model: EnvironmentModel, walkers: int):
        k = len(model.support.steps)
        cap = _CACHE_MAX_BYTES // (8 * k + 9)
        size = _CACHE_MIN_SLOTS
        while size < _CACHE_SLOTS_PER_WALKER * walkers and 2 * size <= cap:
            size *= 2
        self.model = model
        self.size = size
        self._mask = np.uint64(size - 1)
        self._keys = np.zeros(size, dtype=np.uint64)
        self._full = np.zeros(size, dtype=bool)
        self._cums = np.zeros((size, k))
        # numpy scatters a (n, k) float array several times faster when each
        # row is one opaque record, so rows are also moved through this dtype
        self._row = np.dtype((np.void, 8 * k))

    def _records(self, a: np.ndarray) -> np.ndarray:
        """C-contiguous (n, k) float array a as a view of n row records."""
        return a.view(self._row)[:, 0]

    def cums(self, keys: np.ndarray) -> np.ndarray:
        """Cumulative vectors (m, k) for site keys (m,)."""
        slot = (keys & self._mask).astype(np.intp)
        # the occupancy flag keeps a key of 0 from matching an empty slot
        hit = self._full.take(slot) & (self._keys.take(slot) == keys)
        out = self._cums.take(slot, axis=0)
        if hit.all():
            return out
        miss = np.flatnonzero(~hit)
        uniq, inv = np.unique(keys[miss], return_inverse=True)
        vals = self._records(np.ascontiguousarray(
            cum_vectors_from_keys(self.model, uniq)))
        self._records(out)[miss] = vals.take(inv)
        # distinct keys may share a slot; store each slot's vector under the
        # key that won it, whichever order the assignment took
        uslot = (uniq & self._mask).astype(np.intp)
        self._keys[uslot] = uniq
        won = self._keys.take(uslot) == uniq
        self._records(self._cums).put(uslot[won], vals[won])
        self._full[uslot] = True
        return out


def _iter_positions(model: EnvironmentModel, env_keys, starts: np.ndarray,
                    n: int, walk_seeds) -> "iterator":
    """Advance m walkers in lockstep, yielding positions after each step.

    env_keys may be a scalar (shared environment) or one key per walker.
    Site vectors come from a _SiteCache local to the call.
    """
    starts = np.asarray(starts, dtype=np.int64)
    pos = starts.copy()
    m = pos.shape[0]
    wkeys = derive_key_array(walk_seed_array(walk_seeds), TAG_WALK)
    steps_arr = model.support.steps_array
    shared = np.isscalar(env_keys)
    if not shared:
        env_keys = np.asarray(env_keys, dtype=np.uint64)
    if model.kind == "deterministic":
        cum = np.cumsum(np.array(model.probs))
        for t in range(n):
            pos += steps_arr[step_index(cum, stream_u01_array(wkeys, t))]
            yield t, pos
        return
    cache = _SiteCache(model, m)
    for t in range(n):
        if shared:
            keys = site_keys(env_keys, pos)
        else:
            keys = site_keys_mixed(env_keys, pos)
        u = stream_u01_array(wkeys, t)
        cums = cache.cums(keys)
        # inverse CDF: the number of cumulative components below u, clipped
        # to the last step for a u above a last component rounded below 1
        idx = (cums[:, 0] < u).astype(np.intp)
        for j in range(1, cums.shape[1]):
            idx += cums[:, j] < u
        pos += steps_arr.take(idx, axis=0, mode="clip")
        yield t, pos


def _paths(model: EnvironmentModel, env_keys, starts, n: int,
           walk_seeds) -> np.ndarray:
    """Site arrays (n+1, m, d) of the walks of _iter_positions."""
    starts = np.asarray(starts, dtype=np.int64)
    out = np.empty((n + 1,) + starts.shape, dtype=np.int64)
    out[0] = starts
    for t, pos in _iter_positions(model, env_keys, starts, n, walk_seeds):
        out[t + 1] = pos
    return out


def _finals(model: EnvironmentModel, env_keys, starts, n: int,
            walk_seeds) -> np.ndarray:
    """Final positions (m, d) of the walks of _iter_positions."""
    pos = np.asarray(starts, dtype=np.int64)
    for _, pos in _iter_positions(model, env_keys, pos, n, walk_seeds):
        pass
    return pos.copy()


# The public engines are one-line entries: none calls another, so a traced
# engine call counts its walker-steps once.


def simulate_paths_many(env: Environment, starts, n: int, walk_seeds) -> np.ndarray:
    """Full site arrays (n+1, m, d) for m walks sharing one environment."""
    return _paths(env.model, env.env_key, starts, n, walk_seeds)


def simulate_finals_many(env: Environment, starts, n: int, walk_seeds) -> np.ndarray:
    """Final positions (m, d) of m walks sharing one environment."""
    return _finals(env.model, env.env_key, starts, n, walk_seeds)


def simulate_finals_many_envs(model: EnvironmentModel, env_keys, starts, n: int,
                              walk_seeds) -> np.ndarray:
    """Final positions for m walks, each in its own environment."""
    return _finals(model, env_keys, starts, n, walk_seeds)


def simulate_paths_many_envs(model: EnvironmentModel, env_keys, starts, n: int,
                             walk_seeds) -> np.ndarray:
    """Full site arrays (n+1, m, d); walkers may share or own environments
    through the per-walker env_keys."""
    return _paths(model, env_keys, starts, n, walk_seeds)


def simulate_level_stats_many_envs(model: EnvironmentModel, env_keys, starts,
                                   n: int, walk_seeds) -> dict:
    """Final level and running maximum of the level (m,) for m walks, each
    in its own environment."""
    starts = np.asarray(starts, dtype=np.int64)
    u_hat = np.asarray(model.support.u_hat, dtype=np.int64)
    lev = starts @ u_hat
    max_lev = lev.copy()
    for _, pos in _iter_positions(model, env_keys, starts, n, walk_seeds):
        lev = pos @ u_hat
        np.maximum(max_lev, lev, out=max_lev)
    return {"final_level": lev, "max_level": max_lev}
