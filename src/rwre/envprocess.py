"""The environment seen from the particle.

The invariant measure of the environment chain is never represented as an
object; it is accessed only through Cesaro averages along the walk, and
through the variation-distance proxy P{max level overshoots the final
level}, whose decay controls how far the invariant law can drift from the
product law on forward sigma-fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .environment import (EnvironmentModel, derive_env_seed, env_key_range,
                          make_environment)
from .rng import TAG_ENV, derive_key, site_keys
from .walk import simulate, simulate_level_stats_many_envs

_TAG_ERG = 0xE401
_TAG_VAR = 0xE402


@dataclass(frozen=True)
class LocalFunction:
    """A bounded function of finitely many environment vectors.

    `window` lists the relative sites read; `level_floor` a asserts that
    every window site w satisfies w.u_hat >= -a (measurability with
    respect to the forward sigma-field S_{-a}).  The evaluator receives
    the (len(window), k) array of probability vectors in window order.
    When the function is linear in those vectors, `linear_weights`
    ((len(window), k) array) enables vectorized evaluation along a path.
    """

    window: tuple
    level_floor: int
    evaluator: Callable[[np.ndarray], float]
    name: str = "psi"
    linear_weights: Optional[tuple] = None

    def validate(self, support) -> None:
        for w in self.window:
            if len(w) != support.dimension:
                raise ValueError("window site has wrong dimension")
            if support.dot_u(w) < -self.level_floor:
                raise ValueError(
                    f"window site {w} lies below level -{self.level_floor}")


# evaluators of the CLI's psi functions are partials of module-level
# functions, so that a LocalFunction pickles into worker processes


def _constant(c: float, vecs: np.ndarray) -> float:
    return c


def _origin_dot(incs: np.ndarray, vecs: np.ndarray) -> float:
    return float(vecs[0] @ incs)


def constant_function(c: float, dimension: int) -> LocalFunction:
    origin = (tuple(0 for _ in range(dimension)),)
    return LocalFunction(window=origin, level_floor=0,
                         evaluator=partial(_constant, c), name=f"const_{c}")


def drift_projection(model: EnvironmentModel, direction) -> LocalFunction:
    """Psi(omega) = (local drift) . direction, read from the origin vector."""
    direction = np.asarray(direction, dtype=float)
    incs = model.support.steps_array.astype(float) @ direction
    origin = (tuple(0 for _ in range(model.support.dimension)),)
    return LocalFunction(window=origin, level_floor=0,
                         evaluator=partial(_origin_dot, incs),
                         name="drift_projection",
                         linear_weights=(tuple(incs.tolist()),))


def _psi_along_path(env, psi: LocalFunction, sites: np.ndarray) -> np.ndarray:
    """Values Psi(T_{X_j} omega) for the rows of `sites`."""
    n = sites.shape[0]
    window = [np.asarray(w, dtype=np.int64) for w in psi.window]
    vecs = []
    for w in window:
        keys = site_keys(env.env_key, sites + w)
        uniq, inv = np.unique(keys, return_inverse=True)
        vecs.append(env.vectors_from_keys(uniq)[inv])
    if psi.linear_weights is not None:
        out = np.zeros(n)
        for wv, weights in zip(vecs, psi.linear_weights):
            out += wv @ np.asarray(weights, dtype=float)
        return out
    stacked = np.stack(vecs, axis=1)  # (n, |window|, k)
    return np.array([psi.evaluator(stacked[j]) for j in range(n)])


def ergodic_average(model: EnvironmentModel, psi: LocalFunction, n: int,
                    seed: int = 0, checkpoints=None) -> dict:
    """Running Cesaro means of Psi along one quenched trajectory."""
    psi.validate(model.support)
    if checkpoints is None:
        checkpoints = [n]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints[-1] > n or checkpoints[0] < 1:
        raise ValueError("checkpoints must lie in [1, n]")
    env = make_environment(model, derive_env_seed(seed, _TAG_ERG))
    path = simulate(env, np.zeros(model.support.dimension, dtype=np.int64),
                    n - 1, derive_key(seed, _TAG_ERG, 1))
    vals = _psi_along_path(env, psi, path.sites)
    csum = np.cumsum(vals)
    means = {c: float(csum[c - 1] / c) for c in checkpoints}
    return {"checkpoints": checkpoints, "means": means,
            "final": means[checkpoints[-1]]}


def variation_proxy(model: EnvironmentModel, n: int, ell_grid, reps: int,
                    seed: int = 0) -> dict:
    """I_hat(n, ell) = P_0{max level by n exceeds final level + ell/2}.

    Common random numbers across the ell grid: the indicator events are
    nested, so monotonicity in ell holds exactly sample by sample.
    """
    if reps < 1000:
        raise ValueError("reps must be at least 1000")
    ell_grid = sorted(int(l) for l in ell_grid)
    d = model.support.dimension
    env_keys = env_key_range(seed, TAG_ENV, _TAG_VAR, n=reps)
    wseeds = [derive_key(seed, _TAG_VAR, i) for i in range(reps)]
    stats = simulate_level_stats_many_envs(
        model, env_keys, np.zeros((reps, d), dtype=np.int64), n, wseeds)
    overshoot = stats["max_level"] - stats["final_level"]
    rows = []
    for ell in ell_grid:
        hits = int((overshoot > ell / 2.0).sum())
        p = hits / reps
        half = 1.959963984540054 * np.sqrt(p * (1 - p) / reps)
        rows.append((ell, p, max(0.0, p - half), min(1.0, p + half)))
    return {"n": n, "reps": reps, "rows": rows,
            "ell_grid": ell_grid,
            "i_hat": np.array([r[1] for r in rows])}
