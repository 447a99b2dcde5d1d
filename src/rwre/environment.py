"""Environment laws and lazy seed-deterministic realizations.

An environment assigns to every lattice site a probability vector over the
finite step set J.  Realizations are never precomputed: the vector at site
x is a pure function of (env_seed, x) computed through keyed counter
streams, so any number of walkers can share one environment over an
unbounded region.  The scalar path (Environment.cum_at) memoizes the
cumulative vector of every site it has been asked for, so an Environment
grows by one entry per distinct site it serves; the vectorized path stores
nothing.  Dirichlet components use inverse-CDF gamma sampling (one uniform
per component, fixed counters), which keeps values independent of query
order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Optional

import numpy as np
from scipy import special as _sps

from .rng import (TAG_ENV, TAG_SITE, derive_key, derive_key_array,
                  derive_key_range, site_keys, site_u01, step_index,
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

    @property
    def mean_probs(self) -> np.ndarray:
        """E pi_{0,z} per step z (in the order of support.steps)."""
        if self.kind == "deterministic":
            return np.array(self.probs)
        if self.kind == "dirichlet":
            a = np.array(self.alpha)
            base = a / a.sum()
            k = len(a)
            return self.floor / k + (1.0 - self.floor) * base
        mean = np.zeros(len(self.support.steps))
        for p, w in self.atoms:
            mean += w * np.array(p)
        return mean


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

    site_vector(x) is a pure function of (env_seed, x); an internal memo
    cache only accelerates revisits.  Instances are immutable apart from
    the cache and safe to share between readers.
    """

    def __init__(self, model: EnvironmentModel, env_seed: int):
        self.model = model
        self.env_seed = int(env_seed)
        self.env_key = derive_key(self.env_seed, TAG_SITE)
        self._cum_cache: dict = {}
        self._k = len(model.support.steps)
        # the environment's part of every site key, derive_key(env_key)
        self._site_h = derive_key(self.env_key)
        if model.kind == "deterministic":
            self._const_cum = tuple(np.cumsum(model.probs).tolist())
        elif model.kind == "dirichlet":
            self._alpha = np.array(model.alpha)
            self._scale = 1.0 - model.floor
            self._lift = model.floor / self._k
        else:
            self._atom_w = np.cumsum([w for _, w in model.atoms]).tolist()
            self._atom_cums = [tuple(np.cumsum(p).tolist())
                               for p, _ in model.atoms]

    # -- vectorized core ---------------------------------------------------

    def vectors_from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Probability vectors (n, k) for an array of site keys."""
        return _vectors_from_keys(self.model, keys)

    def site_vectors(self, sites: np.ndarray) -> np.ndarray:
        """Probability vectors for rows of `sites` (n, d)."""
        return self.vectors_from_keys(site_keys(self.env_key, sites))

    def site_vector(self, x) -> np.ndarray:
        """Probability vector at a single site."""
        return self.site_vectors(np.asarray(x, dtype=np.int64)[None, :])[0]

    # -- scalar path (cached cumulative vectors, used by sequential code) --

    def cum_at(self, site: tuple) -> tuple:
        """Cumulative probability vector at `site` (a tuple of Python ints)
        as a tuple of floats.

        Equal to tuple(np.cumsum(site_vector(site)).tolist()) bit for bit.
        A new site costs one rng call and at most one scipy call, and its
        float operations are _vectors_from_keys's in the same order: the
        gamma draws totalled left to right, then one division, floor and
        running sum per component.
        """
        cum = self._cum_cache.get(site)
        if cum is not None:
            return cum
        kind = self.model.kind
        if kind == "dirichlet":
            g = _sps.gammaincinv(self._alpha,
                                 site_u01(self._site_h, site, self._k)).tolist()
            total = reduce(add, g)
            if total == 0.0:
                raise _underflow(self.model)
            if self._lift:
                scale, lift = self._scale, self._lift
                cum = tuple(accumulate([x / total * scale + lift for x in g]))
            else:
                cum = tuple(accumulate([x / total for x in g]))
        elif kind == "mixture":
            i = bisect_left(self._atom_w, site_u01(self._site_h, site, 1)[0])
            cum = self._atom_cums[min(i, len(self._atom_cums) - 1)]
        else:
            cum = self._const_cum
        self._cum_cache[site] = cum
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
        g = np.empty((n, k))
        for i, a in enumerate(model.alpha):
            u = stream_u01_array(keys, i)
            g[:, i] = _sps.gammaincinv(a, u)
        # the total adds the components left to right, as cum_at does
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
    # mixture: one uniform picks the atom
    idx = step_index(np.cumsum([w for _, w in model.atoms]),
                     stream_u01_array(keys, 0))
    return np.array([p for p, _ in model.atoms])[idx]


def cum_vectors_from_keys(model: EnvironmentModel, keys: np.ndarray) -> np.ndarray:
    """Cumulative probability vectors (n, k) for site keys."""
    return np.cumsum(_vectors_from_keys(model, keys), axis=1)


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
