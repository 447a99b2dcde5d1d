"""The environment seen from the particle.

The invariant measure of the environment chain is never represented as an
object; it is accessed only through the Cesaro averages, along the walk,
of the local drift along u_hat (whose limit is v.u_hat), and through the
variation-distance proxy P{max level overshoots the final level}, whose
decay controls how far the invariant law can drift from the product law
on forward sigma-fields.
"""

from __future__ import annotations

import numpy as np

from .environment import (EnvironmentModel, derive_env_seed, env_key_range,
                          make_environment)
from .rng import TAG_ENV, derive_key, derive_key_range, site_keys
from .walk import list_seed_array, simulate, simulate_level_stats_many_envs

_TAG_ERG = 0xE401
_TAG_VAR = 0xE402


def ergodic_average(model: EnvironmentModel, n: int, seed: int = 0,
                    checkpoints=None) -> dict:
    """Running Cesaro means of Psi(T_{X_j} omega) along one quenched
    trajectory, where Psi(omega) = sum_z omega(0, z) z.u_hat is the local
    drift along u_hat."""
    if checkpoints is None:
        checkpoints = [n]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints[-1] > n or checkpoints[0] < 1:
        raise ValueError("checkpoints must lie in [1, n]")
    env = make_environment(model, derive_env_seed(seed, _TAG_ERG))
    path = simulate(env, np.zeros(model.support.dimension, dtype=np.int64),
                    n - 1, derive_key(seed, _TAG_ERG, 1))
    keys, inverse = np.unique(site_keys(env.env_key, path.sites),
                              return_inverse=True)
    vals = env.vectors_from_keys(keys)[inverse] @ \
        model.support.level_increments.astype(float)
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
    wseeds = list_seed_array(derive_key_range(seed, _TAG_VAR, n=reps))
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
