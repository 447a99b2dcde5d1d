"""Two walks in a common environment: intersections, joint regenerations,
the difference chain and its symmetric twin, and the three-walk coupling.

Joint regeneration levels are found by the fresh-level iteration: starting
from a common level, locate the first level that both walks enter exactly
at first passage; test there for joint no-backtracking (approximated by a
confirmation margin); on failure restart the search above everything seen
so far.  Levels live on the h-lattice of the accessible level set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import add, mul
from typing import Optional

import numpy as np

from .environment import (Environment, EnvironmentModel, compute_h,
                          env_key_range, make_environment)
from .rng import (counter_u01_array, derive_key, derive_key_range,
                  fold_key_array, site_keys, site_u01)
from .walk import list_seed_array, simulate_paths_many_envs, walk_key

_TAG_PAIR = 0xAA01
_TAG_YCHAIN = 0xAA02
_TAG_YBAR = 0xAA03
_TAG_TRIPLE = 0xAA04
_TAG_INTER = 0xAA05
_TAG_STEPS = 0xAA06

# Replicas per engine call in intersection_curve.  Each call's 2 x
# _INTER_CHUNK walk seeds are read as one list (walk.list_seed_array), so
# this size is part of the realized walks.  One call for all replicas would
# also hold all their paths at once.
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
    |A| + |B| - |A u B| over each walker's sorted site keys."""
    t, w, d = paths.shape
    keys = np.sort(site_keys(0, paths.reshape(-1, d)).reshape(t, w).T, axis=1)
    # rows 2i and 2i + 1 are adjacent, so this reshape joins each pair's
    # two sorted runs, which the stable sort merges
    union = np.sort(keys.reshape(w // 2, 2 * t), axis=1, kind="stable")
    per_walker = _distinct_per_row(keys)
    return per_walker[0::2] + per_walker[1::2] - _distinct_per_row(union)


def intersection_curve(model: EnvironmentModel, n_grid, reps: int,
                       seed: int = 0) -> dict:
    """Mean number of common points of two walks in a common environment,
    over a horizon grid, with independent replicas (at least 2, for a
    standard error) per grid point."""
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a standard error "
                         f"(got {reps})")
    n_grid = sorted(int(n) for n in n_grid)
    d = model.support.dimension
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
            starts = np.zeros((2 * (c1 - c0), d), dtype=np.int64)
            paths = simulate_paths_many_envs(
                model, pair_keys[2 * c0:2 * c1], starts, n - 1,
                list_seed_array(wkeys[c0:c1].ravel()))
            counts[c0:c1] = _pair_common_sites(paths)
        means.append(float(counts.mean()))
        ses.append(float(counts.std(ddof=1) / np.sqrt(reps)))
    from .fitting import fit_exponent
    fit = fit_exponent(n_grid, means)
    return {"n_grid": n_grid, "mean": np.array(means), "se": np.array(ses),
            "fit": fit}


# ---------------------------------------------------------------------------
# sequential walks with fresh-level bookkeeping


class _TimeSource:
    """Per-walk uniform stream indexed by time.

    The stream is drawn ahead in blocks, one counter_u01_array call each:
    64 draws first, then each block at least as long as the stream drawn
    so far, so a walk of up to 64 steps makes one call.  This is exact: a
    draw is a pure function of (key, t), so drawing ahead changes no value.
    """

    __slots__ = ("key", "_u")

    def __init__(self, key: int):
        self.key = key
        self._u: list = []

    def draw(self, site: tuple, t: int) -> float:
        u = self._u
        if t >= len(u):
            u += counter_u01_array(self.key, np.arange(
                len(u), max(2 * t + 2, 64), dtype=np.uint64)).tolist()
        return u[t]


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


class _SeqWalk:
    """A lazily extended walk with level records and fresh-level map."""

    def __init__(self, cum_fn, start: tuple, source, u_hat, steps):
        self.cum_fn = cum_fn
        self.draw = source.draw
        self.steps = steps
        self.last = len(steps) - 1
        # level increment of each step, z . u_hat
        self.incs = [sum(map(mul, z, u_hat)) for z in steps]
        lev = sum(map(mul, start, u_hat))
        self.positions = [tuple(start)]
        self.levels = [lev]
        self.runmax = [lev]
        self.min_level = lev
        self.fresh = {lev: 0}

    def extend_to(self, t: int, horizon: int) -> bool:
        """Grow the path to time index t; False when the horizon blocks."""
        while len(self.positions) - 1 < t:
            if len(self.positions) - 1 >= horizon:
                return False
            self._step()
        return True

    def advance_until_max(self, level: int, horizon: int) -> bool:
        while self.runmax[-1] < level:
            if len(self.positions) - 1 >= horizon:
                return False
            self._step()
        return True

    def _step(self):
        positions, runmax = self.positions, self.runmax
        t = len(positions) - 1
        pos = positions[-1]
        i = bisect_left(self.cum_fn(pos), self.draw(pos, t), 0, self.last)
        positions.append(tuple(map(add, pos, self.steps[i])))
        lev = self.levels[-1] + self.incs[i]
        self.levels.append(lev)
        if lev > runmax[-1]:
            runmax.append(lev)
            self.fresh[lev] = t + 1
        else:
            runmax.append(runmax[-1])
            if lev < self.min_level:
                self.min_level = lev


def _joint_regen(wa: _SeqWalk, wb: _SeqWalk, h: int, margin: int,
                 horizon: int) -> JointRegenRecord:
    """Run the fresh-level iteration on two walks sharing a start level."""
    lam0 = wa.levels[0]
    lambdas = []
    target = lam0 + h
    while True:
        # locate the next common fresh level at or above `target`
        ell = target
        lam = None
        while True:
            if not wa.advance_until_max(ell, horizon) or \
               not wb.advance_until_max(ell, horizon):
                return JointRegenRecord(lambdas, None, None, None, False)
            ta = wa.fresh.get(ell)
            tb = wb.fresh.get(ell)
            if ta is not None and tb is not None:
                lam = ell
                break
            ell += h
        lambdas.append(lam)
        # joint no-backtracking test with a confirmation margin
        ok_a = ok_b = False
        off = 0
        failed = False
        while not (ok_a and ok_b):
            off += 1
            if not wa.extend_to(ta + off, horizon) or \
               not wb.extend_to(tb + off, horizon):
                return JointRegenRecord(lambdas, None, None, None, False)
            la = wa.levels[ta + off]
            lb = wb.levels[tb + off]
            if la < lam or lb < lam:
                top = max(wa.runmax[ta + off], wb.runmax[tb + off])
                target = top + h
                failed = True
                break
            ok_a = ok_a or wa.runmax[ta + off] >= lam + margin
            ok_b = ok_b or wb.runmax[tb + off] >= lam + margin
        if failed:
            continue
        return JointRegenRecord(lambdas, lam, ta, tb, True,
                                x_mu=wa.positions[ta],
                                x_tilde_mu=wb.positions[tb])


def _check_common_start(model: EnvironmentModel, x, y) -> int:
    sup = model.support
    lx = sup.dot_u(x)
    ly = sup.dot_u(y)
    if lx != ly:
        raise ValueError("joint regeneration requires equal start levels")
    h = compute_h(sup)
    if lx % h != 0:
        raise ValueError("start level must lie on the h-lattice")
    return h


def first_joint_regeneration(env: Environment, x, y, margin: int = 20,
                             horizon: int = 20_000,
                             seed: int = 0) -> JointRegenRecord:
    """First joint regeneration record of two fresh walks from x and y."""
    model = env.model
    h = _check_common_start(model, x, y)
    sup = model.support
    wa = _SeqWalk(env.cum_at, tuple(int(c) for c in x),
                  _TimeSource(walk_key(derive_key(seed, _TAG_PAIR, 10))),
                  sup.u_hat, sup.steps)
    wb = _SeqWalk(env.cum_at, tuple(int(c) for c in y),
                  _TimeSource(walk_key(derive_key(seed, _TAG_PAIR, 11))),
                  sup.u_hat, sup.steps)
    return _joint_regen(wa, wb, h, margin, horizon)


# ---------------------------------------------------------------------------
# canonical difference chains


def _in_V(model: EnvironmentModel, x0) -> tuple:
    """x0 as a tuple of ints, checked to lie in V_d."""
    if model.support.dot_u(x0) != 0:
        raise ValueError("x0 must lie in the hyperplane V_d (x0.u_hat = 0)")
    return tuple(int(c) for c in x0)


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
    sup = model.support
    d = sup.dimension
    origin = tuple(0 for _ in range(d))
    env_a = make_environment(model, derive_key(seed, 1))
    env_b = env_a
    if independent_envs:
        env_b = make_environment(model, derive_key(seed, 2))
    wa = _SeqWalk(env_a.cum_at, origin,
                  _TimeSource(derive_key(seed, 3)), sup.u_hat, sup.steps)
    wb = _SeqWalk(env_b.cum_at, y,
                  _TimeSource(derive_key(seed, 4)), sup.u_hat, sup.steps)
    rec = _joint_regen(wa, wb, compute_h(sup), margin, _CHAIN_HORIZON)
    return _slab_difference(rec, wa, wb)


def _sample_chain(model: EnvironmentModel, x0, K: int, seed: int, margin: int,
                  independent_envs: bool, tag: int) -> YChainSample:
    y = _in_V(model, x0)
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
            for p in self.x_walk.positions[prev:]:
                self.x_set.add(p)

    def __call__(self, site: tuple) -> tuple:
        self._sync_range()
        if site in self.x_set:
            self.hit = True
            return self.env_bar.cum_at(site)
        return self.env.cum_at(site)


def coupled_triple(model: EnvironmentModel, x0, seed: int = 0,
                   margin: int = 20, horizon: int = 20_000) -> CouplingOutcome:
    """One coupled sample (Y_1, Ybar_1) from a common start x0 in V_d.

    Generates i.i.d. triples (X, Xtilde, Xbar): X from the origin in omega;
    Xtilde from x0 in omega; Xbar from x0 reading an independent
    environment on X's range and omega elsewhere, step-coupled to Xtilde
    through shared per-site visit streams.  Y_1 comes from the first
    triple whose (X, Xtilde) pair never backtracks, Ybar_1 from the first
    triple whose (X, Xbar) pair never backtracks.
    """
    x0 = _in_V(model, x0)
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
                      sup.u_hat, sup.steps)
        shared = derive_key(tseed, 4)
        wt = _SeqWalk(env.cum_at, x0, _SiteSource(shared),
                      sup.u_hat, sup.steps)
        chooser = _RangeEnvChooser(env, env_bar, wx, pad=4 * margin,
                                   horizon=horizon)
        wbar = _SeqWalk(chooser, x0, _SiteSource(shared),
                        sup.u_hat, sup.steps)
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
