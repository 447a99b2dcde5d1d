"""Two walks in a common environment: intersections, joint regenerations,
the difference chain and its symmetric twin, and the three-walk coupling.

Joint regeneration levels are found by the fresh-level iteration: starting
from a common level, locate the first level that both walks enter exactly
at first passage; test there for joint no-backtracking (approximated by a
confirmation margin); on failure restart the search above everything seen
so far.  Levels live on the h-lattice of the accessible level set.

Every walk is a walk._SeqWalk reading a walk._TimeSource, one uniform per
time step, except the coupled Xtilde and Xbar, which read a _SiteSource.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .environment import (Environment, EnvironmentModel, compute_h,
                          env_key_range, make_environment)
from .fitting import check_grid, fit_exponent, integer, refusal
from .rng import (_block_len, _pmap, derive_key, derive_key_range,
                  fold_key_array, site_keys, site_u01)
from .walk import (_from_origin, _SeqWalk, _TimeSource,
                   simulate_paths_many_envs, walk_key)

_TAG_PAIR = 0xAA01
_TAG_YCHAIN = 0xAA02
_TAG_YBAR = 0xAA03
_TAG_TRIPLE = 0xAA04
_TAG_INTER = 0xAA05
_TAG_STEPS = 0xAA06

# Replicas per engine call in intersection_curve.  Each call's 2 x
# _INTER_CHUNK walk seeds are one seed list (walk._from_origin), so this
# size is part of the realized walks.  One call for all replicas would also
# hold all their paths at once.
_INTER_CHUNK = 250
# The coupling extends X to _LOOKAHEAD times Xbar's length plus a pad of
# 4 margin steps, and gives up after _MAX_TRIPLES triples.
_LOOKAHEAD = 2
_MAX_TRIPLES = 200
# A difference-chain step simulates each slab's walks for at most
# _CHAIN_HORIZON steps and gives up after _MAX_REJECTIONS rejected slabs
_CHAIN_HORIZON = 20_000
_MAX_REJECTIONS = 1000
# support_inheritance_check flags atoms seen under q above this many counts
_FLAG_COUNT = 10.0


@dataclass
class JointRegenRecord:
    lambda_levels: list
    Lambda: Optional[int]
    mu1: Optional[int]
    mu1_tilde: Optional[int]
    confirmed: bool
    x_mu: Optional[tuple] = None
    x_tilde_mu: Optional[tuple] = None


@dataclass
class YChainSample:
    y: np.ndarray            # (K, d) states, all in V_d
    rejections: int


@dataclass
class CouplingOutcome:
    Y1: np.ndarray
    Ybar1: np.ndarray
    equal: bool
    hit_X_path: bool
    n_triples: int


def _distinct_per_row(rows: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row of a row-sorted array."""
    return (rows[:, 1:] != rows[:, :-1]).sum(axis=1) + 1


def _pair_common_sites(paths: np.ndarray) -> np.ndarray:
    """Common sites of walkers 2i and 2i + 1 of paths (T, 2m, d), as
    |A| + |B| - |A u B| over each walker's sorted site keys.

    Besides paths, memory is one uint64 key per site in a (2m, T) buffer,
    filled one slice of rng._block_len(2m) steps at a time and then sorted
    and merged in place, plus one slice's hash temporaries and one boolean
    per site.  intersection_curve(dirichlet_drift_model(), [64, 256], 500)
    peaks at 3.6 MB under tracemalloc, 2 MB of it the paths."""
    t, w, d = paths.shape
    keys = np.empty((w, t), dtype=np.uint64)
    step = _block_len(w)
    for s0 in range(0, t, step):
        s1 = min(s0 + step, t)
        keys[:, s0:s1] = site_keys(
            0, paths[s0:s1].reshape(-1, d)).reshape(s1 - s0, w).T
    keys.sort(axis=1)
    per_walker = _distinct_per_row(keys)
    # rows 2i and 2i + 1 are adjacent, so this view joins each pair's two
    # sorted runs, which the stable sort merges
    union = keys.reshape(w // 2, 2 * t)
    union.sort(axis=1, kind="stable")
    return per_walker[0::2] + per_walker[1::2] - _distinct_per_row(union)


def intersection_curve(model: EnvironmentModel, n_grid, reps: int,
                       seed: int = 0) -> dict:
    """Mean number of common points of two walks in a common environment,
    over a grid of horizons >= 2 (n = 1 has no randomness), with independent
    replicas (at least 2, for a standard error) per grid point.

    Memory is bounded by one engine call's paths, of _INTER_CHUNK pairs,
    plus one uint64 key per site of them (_pair_common_sites): 3.6 MB
    under tracemalloc for dirichlet_drift_model() at n_grid [64, 256]
    and 500 replicas, 2 MB of it the paths."""
    reps = integer(reps, "reps", 2)
    n_grid = check_grid(n_grid, 2, "n_grid", least=2)
    means, ses = [], []
    for ni, n in enumerate(n_grid):
        counts = np.empty(reps)
        # walkers 2i and 2i + 1 are replica i's pair
        pair_keys = np.repeat(env_key_range(seed, _TAG_INTER, ni, n=reps), 2)
        # walk w of replica i has the seed derive_key(seed, _TAG_INTER, ni,
        # i, w), at row i, column w - 1
        wkeys = fold_key_array(
            derive_key_range(seed, _TAG_INTER, ni, n=reps)[:, None], (1, 2))
        for c0 in range(0, reps, _INTER_CHUNK):
            c1 = min(c0 + _INTER_CHUNK, reps)
            counts[c0:c1] = _pair_common_sites(_from_origin(
                simulate_paths_many_envs, model, pair_keys[2 * c0:2 * c1],
                wkeys[c0:c1].ravel(), n - 1))
        means.append(float(counts.mean()))
        ses.append(float(counts.std(ddof=1) / np.sqrt(reps)))
    return {"n_grid": n_grid, "mean": np.array(means), "se": np.array(ses),
            "fit": fit_exponent(n_grid, means)}


# ---------------------------------------------------------------------------
# joint regenerations of two walk._SeqWalk walks


class _SiteSource:
    """Per-site uniform streams; each visit consumes the next index.

    Two walks sharing the same base key read identical uniforms as long as
    their visit histories agree, which is what couples them.  Site j's
    stream is keyed derive_key(base, _TAG_STEPS, *site).
    """

    __slots__ = ("prefix", "counts")

    def __init__(self, base: int):
        self.prefix = derive_key(base, _TAG_STEPS)
        self.counts: dict = {}

    def draw(self, site: tuple, t: int) -> float:
        k = self.counts.get(site, 0)
        self.counts[site] = k + 1
        return site_u01(self.prefix, site, 1, k)[0]


def _joint_regen(wa: _SeqWalk, wb: _SeqWalk, h: int, margin: int,
                 horizon: int) -> JointRegenRecord:
    """Run the fresh-level iteration on two walks sharing a start level."""
    lambdas = []
    target = wa.levels[0] + h
    while True:
        # locate the next common fresh level at or above `target`
        ell = target
        while True:
            if not (wa.advance_until_max(ell, horizon)
                    and wb.advance_until_max(ell, horizon)):
                return JointRegenRecord(lambdas, None, None, None, False)
            ta = wa.fresh.get(ell)
            tb = wb.fresh.get(ell)
            if ta is not None and tb is not None:
                break
            ell += h
        lam = ell
        lambdas.append(lam)
        # joint no-backtracking test with a confirmation margin.  Every
        # level before ta (tb) is below lam, so top_a (top_b) is the
        # walk's running top at ta + off (tb + off).
        top_a = top_b = lam
        off = 0
        while True:
            off += 1
            if not (wa.extend_to(ta + off, horizon)
                    and wb.extend_to(tb + off, horizon)):
                return JointRegenRecord(lambdas, None, None, None, False)
            la = wa.levels[ta + off]
            lb = wb.levels[tb + off]
            top_a = max(top_a, la)
            top_b = max(top_b, lb)
            if la < lam or lb < lam:
                target = max(top_a, top_b) + h
                break
            if min(top_a, top_b) >= lam + margin:
                return JointRegenRecord(lambdas, lam, ta, tb, True,
                                        x_mu=wa.positions[ta],
                                        x_tilde_mu=wb.positions[tb])


def _time_pair_regen(env_a: Environment, env_b: Environment, x, y, key_a: int,
                     key_b: int, margin: int, horizon: int) -> tuple:
    """(record, walk a, walk b) of the first joint regeneration of a walk
    from x in env_a and one from y in env_b on time sources key_a, key_b."""
    sup = env_a.model.support
    wa = _SeqWalk(env_a.cum_at, x, _TimeSource(key_a), sup)
    wb = _SeqWalk(env_b.cum_at, y, _TimeSource(key_b), sup)
    return _joint_regen(wa, wb, compute_h(sup), margin, horizon), wa, wb


def first_joint_regeneration(env: Environment, x, y, margin: int = 20,
                             horizon: int = 20_000,
                             seed: int = 0) -> JointRegenRecord:
    """First joint regeneration record of two fresh walks from x and y."""
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    sup = env.model.support
    x, y = sup.point(x, "x"), sup.point(y, "y")
    lev = sup.dot_u(x)
    if sup.dot_u(y) != lev:
        raise ValueError("joint regeneration requires equal start levels")
    if lev % compute_h(sup) != 0:
        raise ValueError("start level must lie on the h-lattice")
    return _time_pair_regen(env, env, x, y,
                            walk_key(derive_key(seed, _TAG_PAIR, 10)),
                            walk_key(derive_key(seed, _TAG_PAIR, 11)),
                            margin, horizon)[0]


# ---------------------------------------------------------------------------
# canonical difference chains


def _in_V(support, x0, name="x0", many=False):
    """x0 (with many, a list of points) read by support.point and in V_d."""
    x0 = support.point(x0, name, many)
    for x in x0 if many else [x0]:
        if support.dot_u(x) != 0:
            raise refusal("in the hyperplane V_d (x0 . u_hat = 0)", x, name)
    return x0


def _slab_difference(rec: JointRegenRecord, wa: _SeqWalk,
                     wb: _SeqWalk) -> Optional[tuple]:
    """The difference of the regeneration sites of wb and wa when the slab
    is accepted: the joint regeneration confirmed and neither walk dipped
    below its start level anywhere in its simulated range; else None."""
    if rec.confirmed and wa.min_level >= 0 and wb.min_level >= 0:
        return tuple(b - a for a, b in zip(rec.x_mu, rec.x_tilde_mu))
    return None


def _one_q_step(model: EnvironmentModel, y: tuple, seed: int, margin: int,
                independent_envs: bool) -> Optional[tuple]:
    """One attempt at a conditioned slab from states (0, y): the new
    difference, or None when the slab is rejected (_slab_difference)."""
    origin = (0,) * model.support.dimension
    env_a = make_environment(model, derive_key(seed, 1))
    env_b = env_a
    if independent_envs:
        env_b = make_environment(model, derive_key(seed, 2))
    return _slab_difference(*_time_pair_regen(
        env_a, env_b, origin, y, derive_key(seed, 3), derive_key(seed, 4),
        margin, _CHAIN_HORIZON))


def _sample_chain(model: EnvironmentModel, x0, K: int, seed: int, margin: int,
                  independent_envs: bool, tag: int) -> YChainSample:
    y = _in_V(model.support, x0)
    K = integer(K, "K", 1)
    margin = integer(margin, "margin", 1)
    out = []
    rejections = 0
    for k in range(K):
        for attempt in range(_MAX_REJECTIONS):
            new_y = _one_q_step(model, y, derive_key(seed, tag, k, attempt),
                                margin, independent_envs)
            if new_y is not None:
                y = new_y
                break
            rejections += 1
        else:
            raise RuntimeError(
                f"rejection cap {_MAX_REJECTIONS} hit at chain step {k + 1}")
        out.append(y)
    return YChainSample(y=np.array(out, dtype=np.int64),
                        rejections=rejections)


def sample_Y_chain(model: EnvironmentModel, x0, K: int, seed: int = 0,
                   margin: int = 20) -> YChainSample:
    """K steps of the canonical difference chain (common environment).

    Each transition runs a fresh conditioned slab: a pair of walks from
    (0, y) in a fresh environment strip, rejected until neither backtracks
    below the start level (margin-approximated), per the conditioning in
    the transition law.
    """
    return _sample_chain(model, x0, K, seed, margin,
                         independent_envs=False, tag=_TAG_YCHAIN)


def sample_Ybar_chain(model: EnvironmentModel, x0, K: int, seed: int = 0,
                      margin: int = 20) -> YChainSample:
    """Same construction with the two walks in independent environments:
    the symmetric random walk used as the coupling target."""
    return _sample_chain(model, x0, K, seed, margin,
                         independent_envs=True, tag=_TAG_YBAR)


def support_inheritance_check(model: EnvironmentModel, x0, n_samples: int,
                              seed: int = 0, margin: int = 12) -> dict:
    """Compare the empirical supports of one-step q(x0,.) and qbar(x0,.).

    Flags atoms seen under q with frequency above _FLAG_COUNT / n but
    never under qbar at matched sample size.  With many atoms this is a
    multiple comparison, so isolated borderline flags are expected at rate
    ~ exp(-_FLAG_COUNT).
    """
    from collections import Counter
    n_samples = integer(n_samples, "n_samples", 1)
    cq: Counter = Counter()
    cqb: Counter = Counter()
    for i in range(n_samples):
        s = sample_Y_chain(model, x0, 1, seed=derive_key(seed, 5, i),
                           margin=margin)
        cq[tuple(s.y[0])] += 1
        sb = sample_Ybar_chain(model, x0, 1, seed=derive_key(seed, 6, i),
                               margin=margin)
        cqb[tuple(sb.y[0])] += 1
    thresh = _FLAG_COUNT / n_samples
    flagged = [z for z, c in cq.items()
               if c / n_samples > thresh and cqb[z] == 0]
    return {"q_support": dict(cq), "qbar_support": dict(cqb),
            "flagged": flagged, "threshold": thresh,
            "note": "flags are subject to multiple testing across atoms"}


# ---------------------------------------------------------------------------
# the three-walk coupling


class _RangeEnvChooser:
    """Cumulative vectors for the Xbar walk: the independent environment on
    X's (lazily extended) range, the common environment elsewhere."""

    __slots__ = ("env", "env_bar", "x_walk", "x_set", "pad", "horizon",
                 "owner", "hit")

    def __init__(self, env, env_bar, x_walk, pad, horizon):
        self.env = env
        self.env_bar = env_bar
        self.x_walk = x_walk
        self.x_set = set(x_walk.positions)
        self.pad = pad
        self.horizon = horizon
        self.owner: Optional[_SeqWalk] = None
        self.hit = False

    def _sync_range(self):
        need = _LOOKAHEAD * len(self.owner.positions) + self.pad
        prev = len(self.x_walk.positions)
        if need > prev:
            self.x_walk.extend_to(min(need, self.horizon), self.horizon)
            self.x_set.update(self.x_walk.positions[prev:])

    def __call__(self, site: tuple) -> tuple:
        self._sync_range()
        if site in self.x_set:
            self.hit = True
            return self.env_bar.cum_at(site)
        return self.env.cum_at(site)


def coupled_triple(model: EnvironmentModel, x0, seed: int,
                   margin: int = 20, horizon: int = 20_000) -> CouplingOutcome:
    """One coupled sample (Y_1, Ybar_1) from a common start x0 in V_d.

    Generates i.i.d. triples (X, Xtilde, Xbar): X from the origin in omega;
    Xtilde from x0 in omega; Xbar from x0 reading an independent
    environment on X's range and omega elsewhere, step-coupled to Xtilde
    through shared per-site visit streams.  Y_1 comes from the first
    triple whose (X, Xtilde) pair never backtracks, Ybar_1 from the first
    triple whose (X, Xbar) pair never backtracks.
    """
    x0 = _in_V(model.support, x0)
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    sup = model.support
    h = compute_h(sup)
    origin = tuple(0 for _ in range(sup.dimension))
    Y1 = Ybar1 = None
    hit = False
    m = 0
    while (Y1 is None or Ybar1 is None) and m < _MAX_TRIPLES:
        m += 1
        tseed = derive_key(seed, _TAG_TRIPLE, m)
        env = make_environment(model, derive_key(tseed, 1))
        env_bar = make_environment(model, derive_key(tseed, 2))
        wx = _SeqWalk(env.cum_at, origin, _TimeSource(derive_key(tseed, 3)),
                      sup)
        shared = derive_key(tseed, 4)
        wt = _SeqWalk(env.cum_at, x0, _SiteSource(shared), sup)
        chooser = _RangeEnvChooser(env, env_bar, wx, pad=4 * margin,
                                   horizon=horizon)
        wbar = _SeqWalk(chooser, x0, _SiteSource(shared), sup)
        chooser.owner = wbar
        # both searches run before either slab is judged: the second one
        # extends wx, and wx's minimum level over its whole simulated
        # range enters both judgements
        rec_t = _joint_regen(wx, wt, h, margin, horizon)
        rec_b = _joint_regen(wx, wbar, h, margin, horizon)
        hit = hit or chooser.hit
        if Y1 is None:
            Y1 = _slab_difference(rec_t, wx, wt)
        if Ybar1 is None:
            Ybar1 = _slab_difference(rec_b, wx, wbar)
    if Y1 is None or Ybar1 is None:
        raise RuntimeError(f"coupling cap {_MAX_TRIPLES} triples exhausted")
    return CouplingOutcome(Y1=np.array(Y1, dtype=np.int64),
                           Ybar1=np.array(Ybar1, dtype=np.int64),
                           equal=bool(Y1 == Ybar1),
                           hit_X_path=hit, n_triples=m)


def _coupled_triple_task(item, model=None, margin=0, horizon=0):
    x0, seed = item
    return coupled_triple(model, x0, seed, margin=margin, horizon=horizon)


def coupling_decay(model: EnvironmentModel, x0_list, reps: int, seed: int,
                   margin: int, horizon: int, workers: int = 1) -> dict:
    """P(Y_1 != Ybar_1) from `reps` coupled_triple replicas at each start
    of x0_list, its se, and whether it is non-increasing along the list
    within three se of each successive difference.  Replica i of start j
    has the seed derive_key(..., j, i) for the prefix key seed =
    derive_key(...); one map (rng._pmap, at most one fork pool of
    `workers` processes) runs the replicas of every start."""
    reps = integer(reps, "reps", 1)
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    seeds = fold_key_array(fold_key_array(
        seed, np.arange(len(x0_list), dtype=np.uint64))[:, None],
        np.arange(reps, dtype=np.uint64)).tolist()
    task = partial(_coupled_triple_task, model=model, margin=margin,
                   horizon=horizon)
    flat = _pmap(task, [(x0, s) for x0, row in zip(x0_list, seeds)
                        for s in row], workers)
    outcomes = [flat[j * reps:(j + 1) * reps] for j in range(len(x0_list))]
    ps = [float(np.mean([not o.equal for o in outs])) for outs in outcomes]
    ses = [float(np.sqrt(max(p * (1 - p), 1e-12) / reps)) for p in ps]
    mono = all(ps[i + 1] <= ps[i] + 3 * np.hypot(ses[i], ses[i + 1])
               for i in range(len(ps) - 1))
    return {"outcomes": outcomes, "p_neq": ps, "se": ses,
            "monotone_within_3se": mono}
