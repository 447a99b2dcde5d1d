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

from .environment import (Environment, EnvironmentModel, cum_bounds_from_keys,
                          cum_vectors_from_keys, exact_cum_rule)
from .rng import (MASK64, TAG_WALK, counter_u01_array, derive_key,
                  derive_key_array, site_keys, site_keys_mixed, step_index)


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

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def n_steps(self) -> int:
        return len(self.sites) - 1


def walk_key(walk_seed: int) -> int:
    return derive_key(walk_seed, TAG_WALK)


def walk_seed_array(walk_seeds) -> np.ndarray:
    """Walk seeds as the many-walk engines read them, as uint64 (mod 2**64,
    which leaves walk_key unchanged).

    The engines read a seed sequence through np.asarray; list_seed_array
    gives what that makes of a Python list, and a caller that batches
    several seed lists into one engine call converts each list there.  An
    integer array is read exactly, and an object array (a list holding
    ints outside 64 bits) one seed at a time.  A float array holds integral
    values in [-2**63, 2**64]: those from 2**63 up are read as the value
    minus 2**64, which is exact, so a rounded 2**64 wraps to 0.
    """
    a = np.asarray(walk_seeds)
    if a.dtype.kind == "f":
        a = np.where(a >= 2.0**63, a - 2.0**64, a).astype(np.int64)
    elif a.dtype == object:
        a = np.array([int(s) & MASK64 for s in a.flat],
                     dtype=np.uint64).reshape(a.shape)
    return a.astype(np.uint64)


def list_seed_array(seeds) -> np.ndarray:
    """walk_seed_array(row.tolist()) for each row (last axis) of an
    integer array of seeds in [-2**63, 2**64), as uint64 of the same shape.

    This is the engines' rule for a seed list, the one that shapes the
    realized walks: np.asarray types a list of Python ints by its values,
    int64 if all lie below 2**63, uint64 if none does, and float64 if both
    occur, which rounds every seed of the list to 53 bits, ties to even
    (a seed that rounds to 2**64 is then read as 0).  So a row with seeds
    on both sides of 2**63, as a row of derive_key outputs longer than a
    few is, comes back rounded, and any other row exactly.
    """
    a = np.asarray(seeds)
    hi = a >= 2**63
    mixed = hi.any(axis=-1) & ~hi.all(axis=-1)
    exact = walk_seed_array(a)
    if not mixed.any():
        return exact
    return np.where(mixed[..., None], walk_seed_array(a.astype(np.float64)),
                    exact)


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


def diffusive_scale(path: WalkPath, v, n: int, t_grid) -> np.ndarray:
    """B_n(t) = (X_[nt] - [nt] v) / sqrt(n) on the given t grid."""
    if not n > 0:
        raise ValueError(f"n must be > 0 for a diffusive scale (got {n})")
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


# From this many walkers per distinct environment on, the engine keeps a
# _SiteCache; below it, each step's bounds come straight from
# cum_bounds_from_keys.  Break-even at 3,072 walkers, 128 steps, median of 9
# alternating calls per side, 2-vCPU VM: time with the cache over time
# without, at 1, 2, 4, 8, 16, 32, 64 and 128 walkers per environment,
#   dirichlet_drift_model         1.43 1.81 1.42 1.33 1.14 1.08 0.97 0.87
#   dirichlet_backtracking_model  1.39 1.29 1.24 1.19 1.09 0.96 1.00 1.00
# (two more runs put 32 at 1.01-1.17 and 64 at 0.91-1.10)
_CACHE_WALKERS_PER_ENV = 64
# Site cache size: sixteen slots per walker, a power of two, at most
# _CACHE_MAX_BYTES of keys, occupancy flags and float32 bound rows.
_CACHE_SLOTS_PER_WALKER = 16
_CACHE_MIN_SLOTS = 64
_CACHE_MAX_BYTES = 4 << 20
# Up to this many sites the exact fallback evaluates one at a time, about
# 13 us each inside the step loop, against about 55 us for one array call
# (dirichlet_drift_model, 2-vCPU VM).  The exact rows are not written back:
# a revisit falls inside a bracket about as rarely as the first visit, and
# the write-back cost more than it saved at 120-10000 walkers.
_SETTLE_ONE_BY_ONE = 4
# moves of a (lower, upper) bound pair before rounding to float32
_WIDEN32 = np.array([-2.0**-23, 2.0**-23])
# The walk uniforms are drawn in blocks of about this many (step, walker)
# cells, as green._killed_walk draws its counters
_UNIFORM_CELLS = 1 << 14


class _SiteBounds:
    """Bounds on cumulative site vectors, keyed by site key, read straight
    from cum_bounds_from_keys at every lookup, and the exact values of the
    sites the bounds cannot decide.

    A row holds a lower and an upper bound on each of the first
    c = max(k - 1, 1) cumulative components, the only ones a step's index
    depends on (environment.cum_bounds_from_keys): Dirichlet rows are
    brackets, mixture rows the exact values.  The engine uses this class
    when walkers do not share environments, where a memo would rarely be
    hit, and _SiteCache otherwise.
    """

    def __init__(self, model: EnvironmentModel):
        self.model = model
        self.cols = max(len(model.support.steps) - 1, 1)
        self._exact = exact_cum_rule(model)

    def bounds(self, keys: np.ndarray) -> np.ndarray:
        """Bound rows (m, 2c) for site keys (m,): column 2j holds a lower
        bound of cum_j, column 2j + 1 an upper bound."""
        return cum_bounds_from_keys(self.model, keys)

    def settle(self, keys: np.ndarray) -> np.ndarray:
        """Exact cumulative components (m, c) for site keys (m,), one site
        at a time for a few sites, else in one array call; both equal bit
        for bit."""
        c = self.cols
        if len(keys) > _SETTLE_ONE_BY_ONE:
            return cum_vectors_from_keys(self.model, keys)[:, :c]
        cum = self._exact
        return np.array([cum(h)[:c] for h in keys.tolist()])


class _SiteCache(_SiteBounds):
    """_SiteBounds with a direct-mapped cache of the bound rows, used when
    walkers share environments (_CACHE_WALKERS_PER_ENV).

    Rows are stored as float32 moved outward (_outward32), so a bound stays
    a bound, in half the memory, and an exact row keeps a width of about
    2**-22.  A row is a pure function of its site key, so an entry may be
    evicted at any time and recomputed: colliding keys simply overwrite
    each other.  The table size is fixed when the engine starts, so memory
    stays bounded however long the walk, and a lookup is O(walkers)
    vectorized work with no sort over the hits.
    """

    def __init__(self, model: EnvironmentModel, walkers: int):
        super().__init__(model)
        c = self.cols
        cap = _CACHE_MAX_BYTES // (8 * c + 9)
        size = _CACHE_MIN_SLOTS
        while size < _CACHE_SLOTS_PER_WALKER * walkers and 2 * size <= cap:
            size *= 2
        self.size = size
        self._mask = np.uint64(size - 1)
        self._keys = np.zeros(size, dtype=np.uint64)
        self._full = np.zeros(size, dtype=bool)
        self._rows = np.zeros((size, 2 * c), dtype=np.float32)
        # numpy scatters a (n, 2c) float array several times faster when
        # each row is one opaque record, so rows are moved through this dtype
        self._row = np.dtype((np.void, 8 * c))

    def _records(self, a: np.ndarray) -> np.ndarray:
        """C-contiguous (n, 2c) float32 array a as a view of n records."""
        return a.view(self._row)[:, 0]

    def bounds(self, keys: np.ndarray) -> np.ndarray:
        slot = (keys & self._mask).astype(np.intp)
        # the occupancy flag keeps a key of 0 from matching an empty slot
        hit = self._full.take(slot) & (self._keys.take(slot) == keys)
        out = self._rows.take(slot, axis=0)
        if hit.all():
            return out
        miss = np.flatnonzero(~hit)
        rows = _outward32(cum_bounds_from_keys(self.model, keys[miss]))
        self._records(out)[miss] = self._records(rows)
        # distinct keys may share a slot; store each slot's row under the
        # key that won it, whichever order the assignment took
        keys = keys[miss]
        slot = slot[miss]
        self._keys[slot] = keys
        won = self._keys.take(slot) == keys
        self._records(self._rows).put(slot[won], self._records(rows)[won])
        self._full[slot] = True
        return out


def _outward32(rows: np.ndarray) -> np.ndarray:
    """Bound rows (n, 2c) as float32, the lower bounds (even columns)
    moved down and the upper bounds (odd columns) up; rows may be widened
    in place.

    Bounds on cumulative components lie in (-1, 2), where rounding to
    float32 moves a value by at most 2**-24, so a bound widened by 2**-23
    first stays a bound.
    """
    pairs = rows.reshape(len(rows), -1, 2)
    pairs += _WIDEN32
    return pairs.astype(np.float32).reshape(rows.shape)


def _uniform_rows(wkeys: np.ndarray, n: int) -> "iterator":
    """(t, u) for t < n, u the walk uniforms (m,) of the walkers with walk
    keys wkeys (m,) at counter t.  They are drawn in one counter_u01_array
    call per block of steps, laid out (steps, walkers) so that each row is
    contiguous; a uniform is a pure function of (key, t), so the values
    are those of one stream_u01_array call per step."""
    b = max(1, _UNIFORM_CELLS // max(len(wkeys), 1))
    for t0 in range(0, n, b):
        ctrs = np.arange(t0, min(t0 + b, n), dtype=np.uint64)
        yield from enumerate(counter_u01_array(wkeys, ctrs[:, None]), t0)


def _iter_positions(model: EnvironmentModel, env_keys, starts: np.ndarray,
                    n: int, walk_seeds) -> "iterator":
    """Advance m walkers in lockstep, yielding positions after each step.

    env_keys may be a scalar (shared environment) or one key per walker,
    and walk_seeds holds one seed per walker.  A step's index is the number
    of cumulative components below the walker's uniform, clipped to the
    last step for a u above a last component rounded below 1, so it
    depends only on cum_0..cum_{k-2}.  It is read from bounds on them
    wherever every one is surely below u (upper bound < u) or surely not
    (lower bound >= u); the few other walkers get their site's exact
    vector (settle), and the result is the exact one either way.  The
    bounds come from a _SiteCache local to the call when there are at
    least _CACHE_WALKERS_PER_ENV walkers per distinct environment, and
    straight from cum_bounds_from_keys otherwise.
    """
    starts = np.asarray(starts, dtype=np.int64)
    pos = starts.copy()
    m = pos.shape[0]
    seeds = walk_seed_array(walk_seeds)
    if seeds.shape != (m,):
        raise ValueError(f"walk_seeds must hold one seed per start: shape "
                         f"{seeds.shape} for {m} starts")
    wkeys = derive_key_array(seeds, TAG_WALK)
    steps_arr = model.support.steps_array
    shared = np.isscalar(env_keys)
    if not shared:
        env_keys = np.asarray(env_keys, dtype=np.uint64)
        if env_keys.shape != (m,):
            raise ValueError(f"env_keys must be a scalar or hold one key per "
                             f"start: shape {env_keys.shape} for {m} starts")
    if model.kind == "deterministic":
        cum = np.cumsum(np.array(model.probs))
        for t, u in _uniform_rows(wkeys, n):
            pos += steps_arr[step_index(cum, u)]
            yield t, pos
        return
    envs = 1 if shared else len(np.unique(env_keys))
    if m >= _CACHE_WALKERS_PER_ENV * max(envs, 1):
        sites = _SiteCache(model, m)
    else:
        sites = _SiteBounds(model)
    c = sites.cols
    for t, u in _uniform_rows(wkeys, n):
        if shared:
            keys = site_keys(env_keys, pos)
        else:
            keys = site_keys_mixed(env_keys, pos)
        b = sites.bounds(keys)
        # idx counts the components surely below u, sure adds those surely
        # not; a NaN bound is neither
        idx = (b[:, 1] < u).astype(np.intp)
        sure = idx + (b[:, 0] >= u)
        for j in range(1, c):
            below = b[:, 2 * j + 1] < u
            idx += below
            sure += below
            sure += b[:, 2 * j] >= u
        open_ = np.flatnonzero(sure != c)
        if open_.size:
            cums = sites.settle(keys[open_])
            idx[open_] = (cums < u[open_, None]).sum(axis=1)
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
