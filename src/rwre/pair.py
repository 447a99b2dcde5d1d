"""Two walks in a common environment: intersections, joint regenerations,
the difference chain and its symmetric twin, and the three-walk coupling.

Joint regeneration levels are found by the fresh-level iteration: starting
from a common level, locate the first level that both walks enter exactly
at first passage; test there for joint no-backtracking (approximated by a
confirmation margin); on failure restart the search above everything seen
so far.  Levels live on the h-lattice of the accessible level set.

Every walk is a walk._SeqWalk reading a walk._TimeSource, one uniform per
time step, except the coupled Xtilde and Xbar, which read a _SiteSource.
A time-source walk is a pure function of (env key, time key, time), so
first_joint_regenerations grows the first steps of every replica's two
walks, and coupling_decay those of every replica's first X, together in
one engine call per block of replicas (walk._time_walk_block).  Each
_SeqWalk reveals those steps only where it would have stepped, so every
reader, _RangeEnvChooser included, sees the values it saw step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .environment import (Environment, EnvironmentModel, compute_h,
                          env_key_range, make_environment)
from .fitting import check_grid, fit_exponent, integer, refusal, whole
from .rng import (MASK64, TAG_ENV, TAG_SITE, TAG_WALK, _block_len, _pmap,
                  derive_key, derive_key_array, derive_key_range,
                  fold_key_array, site_keys, site_u01)
from .walk import (_from_origin, _SeqWalk, _time_walk_block, _TimeSource,
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
# first_joint_regenerations: replica i's environment seed is
# derive_env_seed(seed, _OP_JOINT_ENV, i) and its walks' seed
# derive_key(seed, _OP_JOINT_WALKS, i); the tail P{Lambda > m} is read at
# the levels m of _TAIL_LEVELS
_OP_JOINT_ENV = 401
_OP_JOINT_WALKS = 402
_TAIL_LEVELS = (4, 8, 16, 32, 64)
# Steps of the time-source walks of every replica of a block grown in one
# engine call (walk._time_walk_block), capped at the horizon: both walks of
# a joint regeneration, the first triple's X of a coupling.  Seconds at
# prefix 0 (one call per replica), 32, 64, 96, 128, 160, 192 and 256
# steps, one block per pass, passes interleaved in one process, 2-vCPU VM:
#   joint, 150 replicas of dirichlet_backtracking_model from (0, 0) and
#   (0, 2), margin 10, median of 12 passes
#           0.111 0.074 0.048 0.035 0.033 0.034 0.036 0.058
#   coupling, 2 x 100 replicas of dirichlet_drift_model from (0, 1) and
#   (0, 4), margin 10, median of 8 passes
#           0.168 0.145 0.107 0.084 0.088 0.091 0.100 0.102
_PREFIX = 128
# Blocks of fewer replicas run one replica at a time, with no engine call:
# the engine's 128 steps cost about 6 ms at any block size.  Time of a
# block through the engine over time one replica at a time, same models
# and starts as above, mean of 10-480 interleaved blocks, at 1, 2, 4, 6,
# 8, 12, 16, 24 and 32 replicas:
#   joint, margin 10     7.77 4.24 2.22 1.61 1.25 0.89 0.73 0.65 0.52
#   joint, margin 5     11.23 5.98 3.23 2.24 1.76 1.22 1.00 0.78 0.67
#   coupling, margin 10  7.75 3.66 2.10 1.65 1.35 1.04 0.90 0.77 0.69
#   coupling, margin 5  13.23 6.03 3.33 2.48 2.01 1.51 1.28 1.05 0.90
_BLOCK_MIN = 16
# A block's engine paths, (prefix + 1, walkers, d) int64, take at most this
# many bytes
_BLOCK_BYTES = 1 << 20
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
    seed = whole(seed, "seed")
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
        # walk's running top at ta + off (tb + off).  Both tops have
        # reached lam, so growing to level lam binds only the time, as
        # extend_to does, one frame fewer per step.
        top_a = top_b = lam
        off = 0
        while True:
            off += 1
            if not (wa._grow(ta + off, lam, horizon)
                    and wb._grow(tb + off, lam, horizon)):
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


def _pair_starts(support, x, y) -> tuple:
    """x and y read by support.point, on one level of the h-lattice."""
    x, y = support.point(x, "x"), support.point(y, "y")
    lev = support.dot_u(x)
    if support.dot_u(y) != lev:
        raise ValueError("joint regeneration requires equal start levels")
    if lev % compute_h(support) != 0:
        raise ValueError("start level must lie on the h-lattice")
    return x, y


def first_joint_regeneration(env: Environment, x, y, margin: int = 20,
                             horizon: int = 20_000,
                             seed: int = 0) -> JointRegenRecord:
    """First joint regeneration record of two fresh walks from x and y."""
    seed = whole(seed, "seed")
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    x, y = _pair_starts(env.model.support, x, y)
    return _time_pair_regen(env, env, x, y,
                            walk_key(derive_key(seed, _TAG_PAIR, 10)),
                            walk_key(derive_key(seed, _TAG_PAIR, 11)),
                            margin, horizon)[0]


def _blocks(reps: int, walkers: int, d: int, horizon: int,
            workers: int) -> list:
    """Blocks (i0, i1) of `reps` replicas of `walkers` time-source walks
    each in d dimensions, for one map (rng._pmap): at least one block per
    worker, each holding at most _BLOCK_BYTES of engine paths."""
    path_bytes = 8 * (min(_PREFIX, horizon) + 1) * walkers * d
    n_blocks = max(-(-reps // max(_BLOCK_BYTES // path_bytes, 1)),
                   min(workers, reps))
    edges = [reps * b // n_blocks for b in range(n_blocks + 1)]
    return list(zip(edges, edges[1:]))


def _joint_regen_block(block: tuple, model=None, x=(), y=(), seed=0,
                       margin=0, horizon=0) -> list:
    """The records of replicas i0 <= i < i1 of first_joint_regenerations,
    block = (i0, i1): with fewer than _BLOCK_MIN replicas one
    first_joint_regeneration call each, else both walks of every replica
    grown _PREFIX steps (at most horizon) in one engine call and searched
    replica by replica."""
    idx = np.arange(*block, dtype=np.uint64)
    env_seeds = fold_key_array(derive_key(seed, TAG_ENV, _OP_JOINT_ENV), idx)
    seeds = fold_key_array(derive_key(seed, _OP_JOINT_WALKS), idx)
    if len(idx) < _BLOCK_MIN:
        return [first_joint_regeneration(
            make_environment(model, e), x, y, margin=margin, horizon=horizon,
            seed=s) for e, s in zip(env_seeds.tolist(), seeds.tolist())]
    # walkers 2i and 2i + 1 are replica i's walks from x and y, on the
    # time keys first_joint_regeneration derives from its seed
    walker = _time_walk_block(
        model, np.repeat(derive_key_array(env_seeds, TAG_SITE), 2),
        np.array([x, y] * len(idx), dtype=np.int64), min(_PREFIX, horizon),
        derive_key_array(fold_key_array(derive_key_array(
            seeds, _TAG_PAIR)[:, None], (10, 11)).ravel(), TAG_WALK))
    h = compute_h(model.support)
    out = []
    for i, env_seed in enumerate(env_seeds.tolist()):
        cum_at = make_environment(model, env_seed).cum_at
        out.append(_joint_regen(walker(2 * i, cum_at),
                                walker(2 * i + 1, cum_at), h, margin,
                                horizon))
    return out


def first_joint_regenerations(model: EnvironmentModel, x, y, reps: int,
                              seed: int, margin: int, horizon: int,
                              workers: int = 1) -> dict:
    """`reps` first joint regeneration records from x and y and their
    statistics: the confirmed fraction, the mean Lambda of the confirmed
    records and the tail P{Lambda > m} over _TAIL_LEVELS (None without a
    confirmed record).

    Record i is first_joint_regeneration(make_environment(model,
    derive_env_seed(seed, 401, i)), x, y, margin, horizon,
    seed=derive_key(seed, 402, i)), bit for bit.  One map (rng._pmap, at
    most one fork pool of `workers` processes) runs blocks of replicas
    (_blocks, _joint_regen_block)."""
    seed = whole(seed, "seed")
    reps = integer(reps, "reps", 1)
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    x, y = _pair_starts(model.support, x, y)
    task = partial(_joint_regen_block, model=model, x=x, y=y, seed=seed,
                   margin=margin, horizon=horizon)
    recs = [r for block in _pmap(task, _blocks(reps, 2, len(x), horizon,
                                               workers), workers)
            for r in block]
    lam = np.array([r.Lambda for r in recs if r.confirmed], dtype=float)
    return {"records": recs,
            "confirmed_fraction": sum(r.confirmed for r in recs) / reps,
            "mean_Lambda": float(lam.mean()) if lam.size else None,
            "tail_P_Lambda_gt": {m: float((lam > m).mean()) if lam.size
                                 else None for m in _TAIL_LEVELS}}


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
    seed = whole(seed, "seed")
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
    seed = whole(seed, "seed")
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
                   margin: int = 20, horizon: int = 20_000,
                   _first_x=None) -> CouplingOutcome:
    """One coupled sample (Y_1, Ybar_1) from a common start x0 in V_d.

    Generates i.i.d. triples (X, Xtilde, Xbar): X from the origin in omega;
    Xtilde from x0 in omega; Xbar from x0 reading an independent
    environment on X's range and omega elsewhere, step-coupled to Xtilde
    through shared per-site visit streams.  Y_1 comes from the first
    triple whose (X, Xtilde) pair never backtracks, Ybar_1 from the first
    triple whose (X, Xbar) pair never backtracks.

    _first_x, private (coupling_decay's blocks), maps X's cum_fn to the
    first triple's X holding steps grown ahead (walk._time_walk_block).
    """
    x0 = _in_V(model.support, x0)
    seed = whole(seed, "seed")
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
        if m == 1 and _first_x is not None:
            wx = _first_x(env.cum_at)
        else:
            wx = _SeqWalk(env.cum_at, origin,
                          _TimeSource(derive_key(tseed, 3)), sup)
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


def _coupling_block(items: list, model=None, margin=0, horizon=0) -> list:
    """The outcomes of coupling_decay's replicas items, (x0, seed) pairs,
    each one coupled_triple call, looked up when called so that a traced
    one counts every replica.  From _BLOCK_MIN replicas on, the first
    triple's X of every replica is grown _PREFIX steps (at most horizon)
    in one engine call: the walk of time key derive_key(tseed, 3) from the
    origin in the environment of seed derive_key(tseed, 1), for tseed =
    derive_key(seed, _TAG_TRIPLE, 1)."""
    first_x = [None] * len(items)
    if len(items) >= _BLOCK_MIN:
        tseeds = derive_key_array(np.array([s for _, s in items],
                                           dtype=np.uint64), _TAG_TRIPLE, 1)
        walker = _time_walk_block(
            model, derive_key_array(derive_key_array(tseeds, 1), TAG_SITE),
            np.zeros((len(items), model.support.dimension), dtype=np.int64),
            min(_PREFIX, horizon), derive_key_array(tseeds, 3))
        first_x = [partial(walker, j) for j in range(len(items))]
    return [coupled_triple(model, x0, s, margin=margin, horizon=horizon,
                           _first_x=f) for (x0, s), f in zip(items, first_x)]


def coupling_decay(model: EnvironmentModel, x0_list, reps: int, seed: int,
                   margin: int, horizon: int, workers: int = 1) -> dict:
    """P(Y_1 != Ybar_1) from `reps` coupled_triple replicas at each start
    of x0_list, its se, and whether it is non-increasing along the list
    within three se of each successive difference.  Replica i of start j
    has the seed derive_key(..., j, i) for the prefix key seed =
    derive_key(...); one map (rng._pmap, at most one fork pool of
    `workers` processes) runs blocks of the replicas of every start
    (_blocks, _coupling_block)."""
    x0_list = list(map(tuple, _in_V(model.support, x0_list, "x0_list",
                                    many=True)))
    reps = integer(reps, "reps", 1)
    seed = whole(seed, "seed") & MASK64     # a key, as derive_key reads it
    margin = integer(margin, "margin", 1)
    horizon = integer(horizon, "horizon", 1)
    seeds = fold_key_array(fold_key_array(
        seed, np.arange(len(x0_list), dtype=np.uint64))[:, None],
        np.arange(reps, dtype=np.uint64)).tolist()
    items = [(x0, s) for x0, row in zip(x0_list, seeds) for s in row]
    task = partial(_coupling_block, model=model, margin=margin,
                   horizon=horizon)
    blocks = _blocks(len(items), 1, model.support.dimension, horizon,
                     workers)
    flat = [o for block in _pmap(task, [items[i0:i1] for i0, i1 in blocks],
                                 workers) for o in block]
    outcomes = [flat[j * reps:(j + 1) * reps] for j in range(len(x0_list))]
    ps = [float(np.mean([not o.equal for o in outs])) for outs in outcomes]
    ses = [float(np.sqrt(max(p * (1 - p), 1e-12) / reps)) for p in ps]
    mono = all(ps[i + 1] <= ps[i] + 3 * np.hypot(ses[i], ses[i + 1])
               for i in range(len(ps) - 1))
    return {"outcomes": outcomes, "p_neq": ps, "se": ses,
            "monotone_within_3se": mono}
