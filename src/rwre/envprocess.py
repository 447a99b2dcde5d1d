"""The environment seen from the particle.

The invariant measure of the environment chain is never represented as an
object; it is accessed only through the Cesaro averages, along the walk,
of the local drift along u_hat (whose limit is v.u_hat), and through the
variation-distance proxy P{max level overshoots the final level}, whose
decay controls how far the invariant law can drift from the product law
on forward sigma-fields.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .environment import (EnvironmentModel, derive_env_seed, env_key_range,
                          make_environment)
from .fitting import check_grid, fit_exponent
from .rng import (TAG_ENV, _pmap, derive_key, derive_key_range,
                  fold_key_array, site_keys)
from .walk import list_seed_array, simulate, simulate_level_stats_many_envs

_TAG_ERG = 0xE401
_TAG_VAR = 0xE402


def ergodic_average(model: EnvironmentModel, n: int, seed: int,
                    checkpoints=None) -> dict:
    """Running Cesaro means of Psi(T_{X_j} omega) along one quenched
    trajectory, where Psi(omega) = sum_z omega(0, z) z.u_hat is the local
    drift along u_hat."""
    if checkpoints is None:
        checkpoints = [n]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[-1] > n or checkpoints[0] < 1:
        raise ValueError("checkpoints must be one or more times in [1, n] "
                         f"(got {checkpoints} for n = {n})")
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


def ergodic_runs(model: EnvironmentModel, n: int, n_runs: int, seed: int,
                 checkpoints, workers: int = 1) -> dict:
    """n_runs ergodic_average runs, run r seeded derive_key(..., r) for the
    prefix key seed = derive_key(...), run through rng._pmap's one pool:
    per-run means {checkpoint: [run 0, ...]}, the across-run sd at each
    checkpoint (0.0 for one run), and the terminal mean with its se."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1 (got {n_runs})")
    seeds = fold_key_array(seed, np.arange(n_runs, dtype=np.uint64))
    runs = _pmap(partial(ergodic_average, model, n, checkpoints=checkpoints),
                 seeds.tolist(), workers)
    cps = runs[0]["checkpoints"]
    means = {c: [res["means"][c] for res in runs] for c in cps}
    sds = {c: float(np.std(v, ddof=1)) if n_runs > 1 else 0.0
           for c, v in means.items()}
    return {"checkpoints": cps, "means": means, "across_run_sd": sds,
            "terminal_mean": float(np.mean(means[cps[-1]])),
            "terminal_se": sds[cps[-1]] / np.sqrt(n_runs)}


def variation_proxy(model: EnvironmentModel, n: int, ell_grid, reps: int,
                    seed: int = 0) -> dict:
    """I_hat(n, ell) = P_0{max level by n exceeds final level + ell/2}.

    Common random numbers across the ell grid: the indicator events are
    nested, so monotonicity in ell holds exactly sample by sample, and
    `monotone` is the exact test diff(i_hat) <= 0.  `fit` is the log-log fit
    of i_hat against ell (fitting.fit_exponent).
    """
    if reps < 1000:
        raise ValueError("reps must be at least 1000")
    ell_grid = check_grid(ell_grid, 1, "ell_grid")
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
        half = 1.959963984540054 * float(np.sqrt(p * (1 - p) / reps))
        rows.append((ell, p, max(0.0, p - half), min(1.0, p + half)))
    i_hat = np.array([r[1] for r in rows])
    return {"n": n, "reps": reps, "rows": rows, "ell_grid": ell_grid,
            "i_hat": i_hat, "fit": fit_exponent(ell_grid, i_hat),
            "monotone": bool(np.all(np.diff(i_hat) <= 0))}
