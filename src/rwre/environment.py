"""Environment laws and lazy seed-deterministic realizations.

An environment assigns to every lattice site a probability vector over the
finite step set J.  Realizations are never precomputed: the vector at site
x is a pure function of (env_seed, x) computed through keyed counter
streams, so any number of walkers can share one environment over an
unbounded region.  Dirichlet components use inverse-CDF gamma sampling
(one uniform per component, fixed counters), which keeps values
independent of query order.

There is one exact evaluation, _vectors_from_keys, for arrays of site
keys; exact_cum_rule repeats its float operations for one site at a time
in the same order, bit for bit.  Environment.cum_at memoizes what that
rule gives for every site it has been asked for, so an Environment grows
by one entry per distinct site it serves.  The vectorized walk engine
(walk._iter_positions) needs only each step's index, so it first asks
cum_bounds_from_keys for cheap bounds on a site's cumulative vector: a
Dirichlet component's uniform lies between two knots of a per-alpha table
of gammaincinv, and gammaincinv is monotone, so the knots bracket the
gamma draw.  Only a walker whose uniform falls inside a bracket needs the
exact vector, which the engine gets from exact_cum_rule, or from
_vectors_from_keys for more than a few sites.  Nothing here keeps the
bounds: the engine caches them in its own bounded table when walkers share
environments, and recomputes them at every step otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add
from typing import Optional

import numpy as np
from scipy import special as _sps

from .rng import (TAG_ENV, TAG_SITE, U01_MAX, counter_u01_array, derive_key,
                  derive_key_array, derive_key_range, site_u01, step_index,
                  stream_u01_array)


@dataclass(frozen=True)
class StepSupport:
    """The step set J, its dimension and the transience direction."""

    dimension: int
    steps: tuple  # tuple of d-tuples of ints
    u_hat: tuple  # integer direction, nonzero

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        steps = tuple(tuple(int(c) for c in z) for z in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "u_hat", tuple(int(c) for c in self.u_hat))
        if len(steps) == 0:
            raise ValueError("step set J must be nonempty")
        for z in steps:
            if len(z) != self.dimension:
                raise ValueError(f"step {z} has wrong dimension")
        if len(set(steps)) != len(steps):
            raise ValueError("duplicate steps in J")
        if len(self.u_hat) != self.dimension:
            raise ValueError("u_hat has wrong dimension")
        if all(c == 0 for c in self.u_hat):
            raise ValueError("u_hat must be nonzero")
        if not any(self.dot_u(z) > 0 for z in steps):
            raise ValueError("no step with z.u_hat > 0: transience in "
                             "direction u_hat is impossible")

    def dot_u(self, z) -> int:
        return sum(int(a) * int(b) for a, b in zip(z, self.u_hat))

    @property
    def steps_array(self) -> np.ndarray:
        return np.array(self.steps, dtype=np.int64)

    @property
    def level_increments(self) -> np.ndarray:
        return np.array([self.dot_u(z) for z in self.steps], dtype=np.int64)


def compute_h(support: StepSupport) -> int:
    """gcd of the nonzero per-step level increments |z.u_hat|.

    Equals the gcd of the set of accessible levels: under an i.i.d. product
    law every finite step word has positive probability, so the accessible
    levels are exactly the nonnegative integer combinations of the
    increments.
    """
    incs = [abs(support.dot_u(z)) for z in support.steps if support.dot_u(z) != 0]
    if not incs:
        raise ValueError("all steps have z.u_hat = 0: direction degenerate "
                         "for this support")
    return math.gcd(*incs)


@dataclass(frozen=True)
class EnvironmentModel:
    """Law of the i.i.d. site vectors.

    kind:
      - "deterministic": probs (one fixed vector, site-independent)
      - "dirichlet": alpha weights, optional ellipticity floor kappa
        (vector = kappa * uniform + (1 - kappa) * Dirichlet(alpha))
      - "mixture": finite list of (probs, weight) atoms
    """

    support: StepSupport
    kind: str
    probs: Optional[tuple] = None
    alpha: Optional[tuple] = None
    floor: float = 0.0
    atoms: Optional[tuple] = None  # tuple of (probs tuple, weight)

    def __post_init__(self):
        k = len(self.support.steps)
        if self.kind == "deterministic":
            p = _check_prob_vector(self.probs, k, "probs")
            object.__setattr__(self, "probs", p)
            if any(x <= 0 for x in p):
                raise ValueError("deterministic model must give positive "
                                 "probability to every step in J")
        elif self.kind == "dirichlet":
            if self.alpha is None or len(self.alpha) != k:
                raise ValueError("alpha must have one weight per step")
            a = tuple(float(x) for x in self.alpha)
            if not all(0 < x < math.inf for x in a):
                raise ValueError("alpha weights must be positive and finite")
            object.__setattr__(self, "alpha", a)
            if not (0.0 <= self.floor < 1.0):
                raise ValueError("floor must lie in [0, 1)")
        elif self.kind == "mixture":
            if not self.atoms:
                raise ValueError("mixture needs at least one atom")
            atoms = []
            wsum = 0.0
            for probs, w in self.atoms:
                p = _check_prob_vector(probs, k, "atom probs")
                w = float(w)
                if not 0 < w < math.inf:
                    raise ValueError("atom weights must be positive and "
                                     "finite")
                atoms.append((p, w))
                wsum += w
            atoms = tuple((p, w / wsum) for p, w in atoms)
            object.__setattr__(self, "atoms", atoms)
            mean = np.sum([np.array(p) * w for p, w in atoms], axis=0)
            if np.any(mean <= 0):
                raise ValueError("every step in J must have positive mean "
                                 "probability")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")


def _check_prob_vector(probs, k: int, name: str) -> tuple:
    if probs is None or len(probs) != k:
        raise ValueError(f"{name} must have one entry per step in J")
    p = tuple(float(x) for x in probs)
    if not all(x >= 0 for x in p):   # also rejects NaN
        raise ValueError(f"{name} entries must be nonnegative")
    if abs(sum(p) - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1 (got {sum(p)})")
    return p


class Environment:
    """A realization omega, determined by (model, env_seed).

    The vector at site x is a pure function of (env_seed, x); an internal
    memo cache only accelerates revisits.  Instances are immutable apart from
    the cache and safe to share between readers.
    """

    def __init__(self, model: EnvironmentModel, env_seed: int):
        self.model = model
        self.env_key = derive_key(int(env_seed), TAG_SITE)
        self._cum_cache: dict = {}
        # the environment's part of every site key, derive_key(env_key)
        self._site_h = derive_key(self.env_key)
        self._new_cum = exact_cum_rule(model)

    # -- vectorized core ---------------------------------------------------

    def vectors_from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Probability vectors (n, k) for an array of site keys."""
        return _vectors_from_keys(self.model, keys)

    # -- scalar path (cached cumulative vectors, used by sequential code) --

    def cum_at(self, site: tuple) -> tuple:
        """Cumulative probability vector at `site` (a tuple of Python ints)
        as a tuple of floats.

        Equal to the running sum of site's row of _vectors_from_keys, as
        a tuple, bit for bit (exact_cum_rule).
        """
        cum = self._cum_cache.get(site)
        if cum is None:
            cum = self._cum_cache[site] = self._new_cum(self._site_h, site)
        return cum


def exact_cum_rule(model: EnvironmentModel):
    """The function cum(prefix_key, site=()) giving, as a tuple of floats,
    the exact cumulative vector of the site whose key is prefix_key with
    the coordinates of `site` (Python ints) folded in, as rng.site_u01
    folds them: Environment.cum_at passes derive_key(env_key) and a site,
    the walk engine's exact fallback a site key and no site.

    Equal to the running sum of the key's row of _vectors_from_keys, bit
    for bit.  A call costs one rng call and at most one scipy call, and its
    float operations are _vectors_from_keys's in the same order: the gamma
    draws totalled left to right, then one division, floor and running sum
    per component.
    """
    k = len(model.support.steps)
    if model.kind == "dirichlet":
        alpha = np.array(model.alpha)
        scale, lift = 1.0 - model.floor, model.floor / k

        def cum(h: int, site=()) -> tuple:
            g = _sps.gammaincinv(alpha, site_u01(h, site, k)).tolist()
            total = reduce(add, g)
            if total == 0.0:
                raise _underflow(model)
            if lift:
                return tuple(accumulate([x / total * scale + lift
                                         for x in g]))
            return tuple(accumulate([x / total for x in g]))
    elif model.kind == "mixture":
        atom_w = np.cumsum([w for _, w in model.atoms]).tolist()
        atom_cums = [tuple(np.cumsum(p).tolist()) for p, _ in model.atoms]
        last = len(atom_cums) - 1

        def cum(h: int, site=()) -> tuple:
            i = bisect_left(atom_w, site_u01(h, site, 1)[0])
            return atom_cums[min(i, last)]
    else:
        const = tuple(np.cumsum(model.probs).tolist())

        def cum(h: int, site=()) -> tuple:
            return const
    return cum


def _underflow(model: EnvironmentModel) -> ValueError:
    return ValueError(f"dirichlet law with alpha={model.alpha}: every gamma "
                      "component of a site vector underflows to 0, so the "
                      "vector is undefined")


def _vectors_from_keys(model: EnvironmentModel, keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    k = len(model.support.steps)
    if model.kind == "deterministic":
        return np.broadcast_to(np.array(model.probs), (n, k)).copy()
    if model.kind == "dirichlet":
        return _dirichlet_vectors(model, _site_uniforms(keys, k))
    # mixture: one uniform picks the atom
    idx = step_index(np.cumsum([w for _, w in model.atoms]),
                     stream_u01_array(keys, 0))
    return np.array([p for p, _ in model.atoms])[idx]


def _site_uniforms(keys: np.ndarray, k: int) -> np.ndarray:
    """The uniforms (n, k) of site keys (n,) at counters 0..k-1."""
    return counter_u01_array(keys[:, None], np.arange(k, dtype=np.uint64))


def _dirichlet_vectors(model: EnvironmentModel, u: np.ndarray) -> np.ndarray:
    """Dirichlet site vectors (n, k) from their uniforms (n, k), computed
    in the array u."""
    g = _sps.gammaincinv(np.array(model.alpha), u, out=u)
    # the total adds the components left to right, as cum_at does
    k = g.shape[1]
    total = g[:, 0].copy()
    for i in range(1, k):
        total += g[:, i]
    if not total.all():
        raise _underflow(model)
    g /= total[:, None]
    if model.floor:
        g *= 1.0 - model.floor
        g += model.floor / k
    return g


def cum_vectors_from_keys(model: EnvironmentModel, keys: np.ndarray) -> np.ndarray:
    """Cumulative probability vectors (n, k) for site keys."""
    return np.cumsum(_vectors_from_keys(model, keys), axis=1)


# Dirichlet brackets.  A uniform u lies in [i, i + 1) / _KNOTS for
# i = floor(u * _KNOTS), exactly, since _KNOTS is a power of two; the gamma
# draw gammaincinv(a, u) then lies between the knots gammaincinv(a, i /
# _KNOTS) and gammaincinv(a, (i + 1) / _KNOTS), the last knot taken at
# U01_MAX, the largest uniform, so that it is finite.
_KNOTS = 4096
# scipy's gammaincinv is not exactly monotone: one ulp beside a knot its
# value crosses the knot by up to about 3e-14 relative (alpha 0.05;
# tests/test_environment.py sweeps alphas 0.05-100 and checks this margin
# keeps 10x headroom).  A relative error e on every gamma draw moves a
# cumulative component by at most e / 2, and the float rounding of either
# side adds a few ulps, so the bounds are widened by this absolute margin.
_CUM_MARGIN = 1e-12
# Sites whose lower gamma total is below this are left unbounded (NaN):
# their components may be subnormal, where gammaincinv's relative error is
# not bounded, and a total of 0 must reach _vectors_from_keys to raise
_MIN_TOTAL = 2.0**-900


@lru_cache(maxsize=64)
def _knot_pairs(alpha: tuple, knots: int) -> tuple:
    """Knot pairs of the components' cells, one table per distinct alpha
    value, and the offset of each component's table.  Record
    offsets[j] + i of the (distinct values * knots,) records of two floats
    holds gammaincinv(alpha[j], i / knots) and gammaincinv(alpha[j],
    (i + 1) / knots), the last knot at U01_MAX.  Both are read-only."""
    grid = np.arange(knots + 1) / knots
    grid[-1] = U01_MAX
    values, which = np.unique(alpha, return_inverse=True)
    q = _sps.gammaincinv(values[:, None], grid)
    pairs = np.stack([q[:, :-1], q[:, 1:]], axis=-1).reshape(-1, 2)
    return _read_only(pairs.view(np.dtype((np.void, 16)))[:, 0],
                      which * knots)


@lru_cache(maxsize=64)
def _bound_weights(k: int, floor: float) -> tuple:
    """Read-only (num, den, total, shift) for a row of knots (lo_0, hi_0,
    .., lo_{k-1}, hi_{k-1}): column 2j of row @ num / (row @ den) is
    P_lo / (P_lo + R_hi), the lower bound of cum_j before the floor,
    column 2j + 1 is P_hi / (P_hi + R_lo), its upper bound; row @ total
    sums the lower knots; shift adds the floor's (j + 1) * floor / k and
    the margin after the floor's scale."""
    c = k - 1
    num = np.zeros((2 * k, 2 * c))
    den = np.zeros((2 * k, 2 * c))
    for j in range(c):
        for i in range(k):
            if i <= j:      # P: lower knots in the lower bound
                num[2 * i, 2 * j] = num[2 * i + 1, 2 * j + 1] = 1.0
                den[2 * i, 2 * j] = den[2 * i + 1, 2 * j + 1] = 1.0
            else:           # R: upper knots in the lower bound
                den[2 * i + 1, 2 * j] = den[2 * i, 2 * j + 1] = 1.0
    total = np.zeros(2 * k)
    total[0::2] = 1.0
    shift = np.repeat(floor / k * np.arange(1, k), 2)
    shift += np.tile([-_CUM_MARGIN, _CUM_MARGIN], c)
    return _read_only(num, den, total, shift)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _dirichlet_cum_bounds(model: EnvironmentModel, u: np.ndarray) -> np.ndarray:
    """Bounds (n, 2(k - 1)) on the cumulative components cum_0..cum_{k-2}
    of the Dirichlet site vectors with uniforms (n, k), k >= 2: column 2j
    holds a lower bound of cum_j, column 2j + 1 an upper bound.

    cum_j = P / (P + R), with P the gamma draws through j and R the rest,
    increases in P and decreases in R, so the lower bound takes the lower
    knots in P and the upper ones in R.  R is summed on its own, not taken
    as the total minus P, which could cancel to nothing.  Each bound holds
    for the exact vector's cumulative sum as _vectors_from_keys computes
    it.  A NaN bound bounds nothing.
    """
    n, k = u.shape
    pairs, offsets = _knot_pairs(model.alpha, _KNOTS)
    num, den, total, shift = _bound_weights(k, model.floor)
    cell = (u * _KNOTS).astype(np.intp)
    cell += offsets
    g = pairs.take(cell).view(np.float64).reshape(n, 2 * k)
    out = g @ den
    ok = g @ total >= _MIN_TOTAL
    if not ok.all():
        out[~ok] = np.nan       # and not 0 / 0, which would warn
    np.divide(g @ num, out, out=out)
    if model.floor:
        out *= 1.0 - model.floor
    out += shift
    return out


def cum_bounds_from_keys(model: EnvironmentModel, keys: np.ndarray) -> np.ndarray:
    """Bounds (n, 2c) on the first c = max(k - 1, 1) cumulative components
    of the site vectors of site keys (n,): column 2j holds a lower bound of
    cum_j, column 2j + 1 an upper bound.  Dirichlet bounds bracket the
    exact values (_dirichlet_cum_bounds); the other laws, and a Dirichlet
    law on one step, give the exact values in both columns."""
    keys = np.asarray(keys, dtype=np.uint64)
    k = len(model.support.steps)
    if model.kind == "dirichlet" and k > 1:
        return _dirichlet_cum_bounds(model, _site_uniforms(keys, k))
    return np.repeat(cum_vectors_from_keys(model, keys)[:, :max(k - 1, 1)],
                     2, axis=1)


@dataclass
class HypothesisReport:
    """Static checks of the standing hypotheses for a model."""

    bounded_steps: bool
    gcd_h: int
    non_nestling: Optional[tuple] = None          # (bool, delta)
    uniform_ellipticity: Optional[tuple] = None   # (bool, kappa)
    R_span: bool = False
    R_restricted_path: bool = False
    notes: str = ""


def check_hypotheses(model: EnvironmentModel) -> HypothesisReport:
    """Decide the statically checkable hypotheses.

    Bounded steps hold by construction.  Non-nestling minimizes the drift
    projection over the model's parameter polytope (simplex vertices for
    dirichlet, atoms for mixtures).  The regeneration-time moment
    hypothesis is not statically decidable and must be probed empirically
    through the renewal diagnostics.
    """
    sup = model.support
    incs = sup.level_increments.astype(float)
    k = len(sup.steps)

    if model.kind == "deterministic":
        deltas = [float(np.dot(model.probs, incs))]
        kappa = min(model.probs)
    elif model.kind == "dirichlet":
        mean_inc = incs.mean()
        deltas = [model.floor * mean_inc + (1.0 - model.floor) * float(z)
                  for z in incs]
        kappa = model.floor / k
    else:
        deltas = [float(np.dot(p, incs)) for p, _ in model.atoms]
        kappa = min(min(p) for p, _ in model.atoms)

    delta = min(deltas)
    non_nestling = (delta > 0, delta)
    uniform_ellipticity = (kappa > 0, float(kappa))

    rank = np.linalg.matrix_rank(sup.steps_array)
    r_span = bool(rank >= 2)

    r_restricted = not _is_restricted_path(model)

    notes = ("regeneration-time moments are not statically decidable; "
             "probe empirically via regen.renewal_diagnostics")
    return HypothesisReport(
        bounded_steps=True,
        gcd_h=compute_h(sup),
        non_nestling=non_nestling,
        uniform_ellipticity=uniform_ellipticity,
        R_span=r_span,
        R_restricted_path=r_restricted,
        notes=notes,
    )


def _is_restricted_path(model: EnvironmentModel) -> bool:
    """True when almost every realizable vector is supported on {0, z} for
    a single (realization-dependent) nonzero step z."""
    zero = tuple(0 for _ in range(model.support.dimension))

    def restricted(p) -> bool:
        nonzero = [z for z, q in zip(model.support.steps, p)
                   if q > 0 and z != zero]
        return len(nonzero) <= 1

    if model.kind == "deterministic":
        return restricted(model.probs)
    if model.kind == "dirichlet":
        # all components are a.s. positive (plus any floor)
        interior = tuple(1.0 / len(model.support.steps)
                         for _ in model.support.steps)
        return restricted(interior)
    return all(restricted(p) for p, _ in model.atoms)


def make_environment(model: EnvironmentModel, env_seed: int) -> Environment:
    return Environment(model, env_seed)


def derive_env_seed(master_seed: int, *indices: int) -> int:
    """Documented seed-splitting rule for environment replicas."""
    return derive_key(master_seed, TAG_ENV, *indices)


def env_key_range(seed: int, *parts: int, n: int) -> np.ndarray:
    """Environment keys of n replicas as a uint64 array: entry i is
    make_environment(model, derive_key(seed, *parts, i)).env_key, bit for
    bit, with no Environment built.  Replicas seeded by derive_env_seed
    pass TAG_ENV as the first part."""
    return derive_key_array(derive_key_range(seed, *parts, n=n), TAG_SITE)
