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

from .environment import (EnvironmentModel, _vectors_from_keys,
                          derive_env_seed, env_key_range, make_environment)
from .fitting import check_grid, fit_exponent, integer
from .rng import (TAG_ENV, _pmap, derive_key, derive_key_range,
                  fold_key_array, site_keys)
from .walk import _from_origin, simulate, simulate_level_stats_many_envs

_TAG_ERG = 0xE401
_TAG_VAR = 0xE402


def ergodic_checkpoints(checkpoints, n: int) -> list:
    """The checkpoint rule of the ergodic runs: integer times in [1, n],
    one or more, read as a sorted list of distinct ints; None stands for
    [max(1, n // 100), n].  Else ValueError."""
    n = integer(n, "n", 1)
    cps = sorted({integer(c, "checkpoints") for c in (
        [max(1, n // 100), n] if checkpoints is None else checkpoints)})
    if not cps or cps[0] < 1 or cps[-1] > n:
        raise ValueError("checkpoints must be one or more times in [1, n] "
                         f"(got {cps} for n = {n})")
    return cps


def ergodic_average(model: EnvironmentModel, n: int, seed: int,
                    checkpoints=None) -> dict:
    """Running Cesaro means of Psi(T_{X_j} omega) along one quenched
    trajectory, where Psi(omega) = sum_z omega(0, z) z.u_hat is the local
    drift along u_hat, at ergodic_checkpoints(checkpoints, n)."""
    checkpoints = ergodic_checkpoints(checkpoints, n)
    env = make_environment(model, derive_env_seed(seed, _TAG_ERG))
    path = simulate(env, np.zeros(model.support.dimension, dtype=np.int64),
                    n - 1, derive_key(seed, _TAG_ERG, 1))
    keys, inverse = np.unique(site_keys(env.env_key, path.sites),
                              return_inverse=True)
    vals = _vectors_from_keys(model, keys)[inverse] @ \
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
    n_runs = integer(n_runs, "n_runs", 1)
    checkpoints = ergodic_checkpoints(checkpoints, n)
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
    n = integer(n, "n", 1)
    reps = integer(reps, "reps", 1000)
    ell_grid = check_grid(ell_grid, 1, "ell_grid")
    stats = _from_origin(simulate_level_stats_many_envs, model,
                         env_key_range(seed, TAG_ENV, _TAG_VAR, n=reps),
                         derive_key_range(seed, _TAG_VAR, n=reps), n)
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
