"""Statistical checks of the quenched invariance principle.

Covers the per-environment Gaussianity of the scaled walk, agreement of
quenched covariances with the slab diffusion matrix, degenerate
directions, subdiffusivity of the quenched mean, and the bounded
centering of the annealed mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special as _sps

from .environment import EnvironmentModel, env_key_range
from .fitting import check_grid, fit_exponent
from .ks import ks_norm_pvalue
from .rng import (TAG_ENV, _pmap, derive_key_array, derive_key_range,
                  fold_key_array)
from .walk import list_seed_array, simulate_finals_many_envs

_TAG_QS = 0x9D01
_TAG_QMV = 0x9D02
_TAG_CMB = 0x9D03


def _env_blocks(n_env: int, blocks: int) -> list:
    """Environment indices 0..n_env-1 in min(blocks, n_env) contiguous,
    nonempty blocks (one empty block for n_env = 0)."""
    return [r.tolist() for r in
            np.array_split(np.arange(n_env), max(1, min(blocks, n_env)))]


def _finals_block(item, model=None, m_walks=0):
    """Final positions (len(envs), m_walks, d) of the walks of a contiguous
    block `envs` of environment indices, all walked n steps in one engine
    call, for an item (envs, env_keys, prefixes, n).  Walk i of environment
    j has the seed derive_key(prefixes[j], i), each environment's seed list
    read as one list (walk.list_seed_array)."""
    envs, env_keys, prefixes, n = item
    d = model.support.dimension
    wkeys = fold_key_array(prefixes[envs][:, None],
                           np.arange(m_walks, dtype=np.uint64))
    finals = simulate_finals_many_envs(
        model, np.repeat(env_keys[envs], m_walks),
        np.zeros((len(envs) * m_walks, d), dtype=np.int64), n,
        list_seed_array(wkeys).ravel())
    return finals.reshape(len(envs), m_walks, d)


def quenched_samples(model: EnvironmentModel, env_keys, n: int, m_walks: int,
                     v, seeds, workers: int = 1) -> np.ndarray:
    """Samples (n_env, m_walks, d) of B_n(1) = (X_n - n v)/sqrt(n), m_walks
    in each fixed omega.

    Environment j has the key env_keys[j] (Environment.env_key; see
    environment.env_key_range) and its walk i the seed
    derive_key(seeds[j], _TAG_QS, i).  The environments are split into
    `workers` blocks, one engine call each, run through rng._pmap's one
    pool; the result does not depend on `workers`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 to scale by sqrt(n) (got {n})")
    env_keys = np.asarray(env_keys, dtype=np.uint64)
    prefixes = derive_key_array(np.asarray(seeds, dtype=np.uint64), _TAG_QS)
    items = [(envs, env_keys, prefixes, n)
             for envs in _env_blocks(len(env_keys), workers)]
    finals = np.concatenate(_pmap(
        partial(_finals_block, model=model, m_walks=m_walks), items, workers))
    return (finals - n * np.asarray(v, dtype=float)) / np.sqrt(n)


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of the matrix `a`, as
    scipy.linalg.null_space finds it: the SVD's right singular vectors past
    the rank, counting s > max(s) * eps * max(M, N)."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.) * (np.finfo(s.dtype).eps * max(a.shape))
    return vh[np.sum(s > tol, dtype=int):, :].T.conj()


def projection_directions(support) -> np.ndarray:
    """Coordinate directions plus an orthonormal basis of u_hat^perp."""
    d = support.dimension
    dirs = [np.eye(d)[i] for i in range(d)]
    u = np.asarray(support.u_hat, dtype=float)
    perp = _null_space(u[None, :])
    for j in range(perp.shape[1]):
        v = perp[:, j]
        if not any(np.allclose(np.abs(v), np.abs(w)) for w in dirs):
            dirs.append(v)
    return np.array(dirs)


@dataclass
class QuenchedCLTReport:
    directions: np.ndarray
    per_env_cov: list
    ks_pvalues: np.ndarray        # (n_env, n_dir); nan = degenerate direction
    degenerate_ok: np.ndarray     # (n_env, n_dir) exact-zero checks
    frob_to_ref: np.ndarray       # (n_env,)
    frob_pairwise_max: float
    flagged: list                 # environments failing at clt_check's level

    @property
    def n_passed(self) -> int:
        return len(self.per_env_cov) - len(self.flagged)


def clt_check(samples_per_env, D_hat, support, level: float = 0.01) -> QuenchedCLTReport:
    """Per-environment KS tests of centered projections vs N(0, u^t D u).

    Projections are centered at their per-environment empirical mean
    before testing: at finite n the quenched mean of the scaled walk
    carries the subdiffusive offset quantified by quenched_mean_variance,
    so the Gaussianity/variance content of the invariance principle is
    tested on the centered samples.  An environment is flagged when its
    family of projection tests rejects at `level` with a Bonferroni
    correction across the tested directions.  Projections with reference
    variance below 1e-12 are instead required to vanish identically.
    Also reports Frobenius distances between the per-environment
    covariance matrices and the reference D_hat.
    """
    if len(samples_per_env) < 2:
        raise ValueError("need samples from at least 2 environments")
    if min(len(samples) for samples in samples_per_env) < 2:
        raise ValueError("need at least 2 samples in every environment for "
                         "its covariance")
    D_hat = np.asarray(D_hat, dtype=float)
    dirs = projection_directions(support)
    n_env = len(samples_per_env)
    pvals = np.full((n_env, len(dirs)), np.nan)
    degen_ok = np.ones((n_env, len(dirs)), dtype=bool)
    covs = []
    flagged = []
    n_tested = sum(float(u @ D_hat @ u) >= 1e-12 for u in dirs)
    thresh = level / max(n_tested, 1)
    for e, samples in enumerate(samples_per_env):
        samples = np.asarray(samples, dtype=float)
        covs.append(np.cov(samples.T, ddof=1))
        bad = False
        for j, u in enumerate(dirs):
            var = float(u @ D_hat @ u)
            proj = samples @ u
            proj = proj - proj.mean()
            if var < 1e-12:
                degen_ok[e, j] = bool(np.max(np.abs(proj)) < 1e-9)
                bad = bad or not degen_ok[e, j]
                continue
            p = ks_norm_pvalue(proj / np.sqrt(var))
            pvals[e, j] = p
            bad = bad or p < thresh
        if bad:
            flagged.append(e)
    frob_ref = np.array([np.linalg.norm(C - D_hat) for C in covs])
    pairwise = 0.0
    for a in range(n_env):
        for b in range(a + 1, n_env):
            pairwise = max(pairwise, float(np.linalg.norm(covs[a] - covs[b])))
    return QuenchedCLTReport(directions=dirs, per_env_cov=covs,
                             ks_pvalues=pvals, degenerate_ok=degen_ok,
                             frob_to_ref=frob_ref, frob_pairwise_max=pairwise,
                             flagged=flagged)


def degeneracy_directions(model: EnvironmentModel) -> np.ndarray:
    """Orthonormal basis (rows) of the orthocomplement of
    span{x - y : E pi_x E pi_y > 0}; empty when the differences span R^d."""
    steps = model.support.steps_array.astype(float)
    diffs = steps[:, None, :] - steps[None, :, :]
    diffs = diffs.reshape(-1, steps.shape[1])
    basis = _null_space(diffs)
    return basis.T


def quenched_mean_variance(model: EnvironmentModel, n_grid, n_env: int,
                           m_walks: int, seed: int = 0,
                           workers: int = 1) -> dict:
    """Bias-corrected between-environment variance of the quenched mean.

    For each n the environments are sampled independently; within each,
    E^omega[X_n] is estimated from m_walks walks.  The within-environment
    sampling noise inflates the raw between-environment variance by
    (within variance)/m_walks, which is subtracted; negative corrected
    values at small n are floored at zero and flagged.

    The environments of each n are split into `workers` contiguous
    blocks, and one map (rng._pmap, at most one fork pool) walks every
    (n, block) pair, one engine call each.  Every value is a pure function
    of (seed, n index, environment, walk), so the result does not depend
    on `workers`.
    """
    if n_env < 30:
        raise ValueError("need n_env >= 30 environments")
    if m_walks < 2:
        raise ValueError("need m_walks >= 2")
    n_grid = check_grid(n_grid, 1, "n_grid")
    env_blocks = _env_blocks(n_env, workers)
    d = model.support.dimension
    keys = [(env_key_range(seed, TAG_ENV, _TAG_QMV, ni, n=n_env),
             derive_key_range(seed, _TAG_QMV, ni, n=n_env))
            for ni in range(len(n_grid))]
    items = [(envs, *keys[ni], n) for ni, n in enumerate(n_grid)
             for envs in env_blocks]
    parts = _pmap(partial(_finals_block, model=model, m_walks=m_walks), items,
                  workers)
    nb = len(env_blocks)
    rows = []
    floored = []
    for ni, n in enumerate(n_grid):
        finals = np.concatenate(parts[ni * nb:(ni + 1) * nb]).astype(float)
        env_means = np.empty((n_env, d))
        within = np.empty((n_env, d))
        for e, f in enumerate(finals):
            env_means[e] = f.mean(axis=0)
            within[e] = f.var(axis=0, ddof=1)
        between = env_means.var(axis=0, ddof=1)
        corrected = between - within.mean(axis=0) / m_walks
        flag = bool((corrected < 0).any())
        if flag:
            floored.append(n)
        corrected = np.maximum(corrected, 0.0)
        trace = float(corrected.sum())
        # delete-one-environment jackknife for the trace
        jk = np.empty(n_env)
        for e in range(n_env):
            mask = np.arange(n_env) != e
            b = env_means[mask].var(axis=0, ddof=1)
            c = np.maximum(b - within[mask].mean(axis=0) / m_walks, 0.0)
            jk[e] = c.sum()
        se = float(np.sqrt((n_env - 1) / n_env * ((jk - jk.mean()) ** 2).sum()))
        rows.append((n, corrected, trace, se))
    trace_curve = np.array([r[2] for r in rows])
    return {"n_grid": n_grid, "rows": rows, "trace": trace_curve,
            "fit": fit_exponent(n_grid, trace_curve), "floored": floored}


def _two_sided_pvalue(z: float) -> float:
    """2 P(N(0,1) > |z|), equal bit for bit to 2 * scipy.stats.norm.sf(|z|)
    without loading scipy.stats."""
    return 2.0 * float(_sps.ndtr(-abs(z)))


def centered_mean_bound(model: EnvironmentModel, n_grid, v_hat, reps: int = 4000,
                        seed: int = 0) -> dict:
    """Deviation of the annealed mean from n v_hat, with a linear trend test.

    Each grid point uses an independent batch of walks in independent
    environments; the trend test is weighted least squares with the known
    per-point standard errors, reporting a two-sided normal p-value for
    slope = 0.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error "
                         f"(got {reps})")
    n_grid = check_grid(n_grid, 1, "n_grid", least=2)
    v_hat = np.asarray(v_hat, dtype=float)
    u_hat = np.asarray(model.support.u_hat, dtype=float)
    d = model.support.dimension
    ys, ses = [], []
    for ni, n in enumerate(n_grid):
        env_keys = env_key_range(seed, TAG_ENV, _TAG_CMB, ni, n=reps)
        wseeds = list_seed_array(derive_key_range(seed, _TAG_CMB, ni, n=reps))
        finals = simulate_finals_many_envs(
            model, env_keys, np.zeros((reps, d), dtype=np.int64), n, wseeds)
        lev = finals.astype(float) @ u_hat
        y = float(lev.mean() - n * float(v_hat @ u_hat))
        ys.append(y)
        ses.append(float(lev.std(ddof=1) / np.sqrt(reps)))
    ys = np.array(ys)
    ses = np.array(ses)
    w = 1.0 / np.maximum(ses, 1e-12) ** 2
    x = np.array(n_grid, dtype=float)
    xw = (w * x).sum() / w.sum()
    sxx = (w * (x - xw) ** 2).sum()
    slope = float((w * (x - xw) * ys).sum() / sxx)
    slope_se = float(np.sqrt(1.0 / sxx))
    z = slope / slope_se if slope_se > 0 else 0.0
    pvalue = _two_sided_pvalue(z)
    max_dev = float(np.max(np.abs(ys)))
    max_dev_ci = float(np.max(np.abs(ys) + 3 * ses))
    return {"n_grid": n_grid, "deviation": ys, "se": ses,
            "trend_slope": slope, "trend_slope_se": slope_se,
            "trend_z": z, "trend_pvalue": pvalue,
            "max_abs_deviation": max_dev, "max_abs_deviation_hi": max_dev_ci}
