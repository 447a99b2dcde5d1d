import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwre import environment, rng, walk
from rwre.environment import (EnvironmentModel, StepSupport,
                              cum_bounds_from_keys, cum_vectors_from_keys,
                              exact_cum_rule, make_environment)
from rwre.models import (backtracking_model, dirichlet_backtracking_model,
                         dirichlet_drift_model, drift_model, support_2d)
from rwre.pair import intersection_curve
from rwre.rng import MASK64, derive_key, derive_key_range
from rwre.walk import (WalkPath, _outward32, _SeqWalk, _SiteBounds,
                       _SiteCache, _TimeSource, diffusive_scale,
                       simulate, simulate_finals_many,
                       simulate_finals_many_envs, simulate_level_stats_many_envs,
                       simulate_paths_many, simulate_paths_many_envs,
                       walk_key)


def _point_mass_env(seed=0):
    m = EnvironmentModel(support=support_2d([(1, 0)]), kind="deterministic",
                         probs=(1.0,))
    return make_environment(m, seed)


def test_point_mass_path():
    path = simulate(_point_mass_env(), (0, 0), 5, 1)
    assert path.sites.tolist() == [[k, 0] for k in range(6)]
    assert path.levels.tolist() == list(range(6))


def test_zero_steps():
    path = simulate(_point_mass_env(), (2, 3), 0, 1)
    assert path.sites.tolist() == [[2, 3]]


def test_simulate_keeps_step_indices_past_one_byte():
    # 300 steps: indices from 256 on need a wider buffer than bytes
    sup = StepSupport(1, [(i,) for i in range(-100, 200)], (1,))
    flat = (1 / 300,) * 300
    tilted = tuple(np.linspace(1, 2, 300) / np.linspace(1, 2, 300).sum())
    model = EnvironmentModel(support=sup, kind="mixture",
                             atoms=((flat, 1.0), (tilted, 1.0)))
    env = make_environment(model, 2)
    fresh = partial(exact_cum_rule(model), derive_key(env.env_key))
    w = _SeqWalk(fresh, (0,), _TimeSource(walk_key(7)), sup)
    w.extend_to(2000, 2000)
    path = simulate(env, (0,), 2000, 7)
    assert path.sites.tolist() == [list(x) for x in w.positions]
    assert (np.diff(path.sites[:, 0]) >= 156).sum() > 100   # index >= 256


def test_simulate_memory_is_bounded():
    # a 100,000-step walk keeps one step index per step, one block of
    # uniforms and at most two memo generations besides its path (3.2 MB
    # of sites, levels and running maxima); a walker keeping a tuple per
    # position and every site's vector peaked at 42 MB
    env = make_environment(dirichlet_drift_model(), 5)
    tracemalloc.start()
    try:
        simulate(env, (0, 0), 100_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(env._memo) + len(env._memo_old) <= \
        2 * environment._MEMO_GENERATION


def test_intersection_curve_memory_is_bounded():
    # besides one chunk's paths (2 MB of sites at n = 256) a count keeps
    # one uint64 key per site, sorted and merged in place, and one slice's
    # hash temporaries: 3.6 MB; a full key array with a sorted and a
    # merged copy peaked at 6.2 MB
    tracemalloc.start()
    try:
        intersection_curve(dirichlet_drift_model(), [64, 256], 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("model", [drift_model(), dirichlet_drift_model()],
                         ids=["deterministic", "dirichlet"])
def test_simulate_rejects_wrong_dimension_start(model):
    env = make_environment(model, 2)
    for start in ((0, 0, 7), (1,)):
        with pytest.raises(ValueError, match="^start must be a list of 2 "
                                             "entries"):
            simulate(env, start, 5, 1)


def test_prefix_property():
    for model, seed in [(drift_model(), 5), (dirichlet_drift_model(), 6)]:
        env = make_environment(model, 99)
        long = simulate(env, (0, 0), 200, seed)
        short = simulate(env, (0, 0), 80, seed)
        assert np.array_equal(long.sites[:81], short.sites)


def test_increments_lie_in_J():
    for model in (drift_model(), dirichlet_drift_model()):
        env = make_environment(model, 4)
        path = simulate(env, (0, 0), 500, 8)
        incs = set(map(tuple, np.diff(path.sites, axis=0).tolist()))
        assert incs <= set(model.support.steps)


def test_drift_lln_binomial_oracle():
    # e1-steps are Bernoulli(1/2) per step for the homogeneous drift model
    n = 10_000
    env = make_environment(drift_model(), 31)
    path = simulate(env, (0, 0), n, 12)
    assert abs(path.levels[-1] / n - 0.5) <= 4 * np.sqrt(0.25 / n)


def _mixture_backtracking_model():
    return EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0), (0, 1), (0, -1)]), kind="mixture",
        atoms=(((0.7, 0.1, 0.1, 0.1), 0.3), ((0.4, 0.3, 0.15, 0.15), 0.7)))


def test_many_engines_match_scalar():
    env = make_environment(dirichlet_drift_model(), 77)
    seeds = [21, 22, 23, 24]
    paths = simulate_paths_many(env, np.zeros((4, 2), dtype=np.int64), 60, seeds)
    finals = simulate_finals_many(env, np.zeros((4, 2), dtype=np.int64), 60, seeds)
    for i, s in enumerate(seeds):
        ref = simulate(env, (0, 0), 60, s)
        assert np.array_equal(paths[:, i, :], ref.sites)
        assert np.array_equal(finals[i], ref.sites[-1])
    keys = np.full(4, env.env_key, dtype=np.uint64)
    paths2 = simulate_paths_many_envs(dirichlet_drift_model(), keys,
                                      np.zeros((4, 2), dtype=np.int64), 60, seeds)
    assert np.array_equal(paths, paths2)


# Each law at 1, 2 and _CACHE_WALKERS_PER_ENV walkers per environment, both
# sides of the engine's cache selection; the plain id is the cached side,
# which every engine call took before the selection
_LAWS_PER_ENV = pytest.mark.parametrize("model, per_env", [
    pytest.param(model, per_env, id=name if per_env ==
                 walk._CACHE_WALKERS_PER_ENV else f"{name}-{per_env}-per-env")
    for name, model in [("drift", dirichlet_drift_model()),
                        ("backtracking", dirichlet_backtracking_model()),
                        ("mixture", _mixture_backtracking_model())]
    for per_env in (1, 2, walk._CACHE_WALKERS_PER_ENV)])


def _interleaved_walkers(model, n_envs, per_env):
    """Environments, per-walker env keys (walker i in environment
    i % n_envs), walk seeds and starts 3 apart, one row per walker."""
    m = n_envs * per_env
    envs = [make_environment(model, s) for s in range(5, 5 + n_envs)]
    keys = np.array([envs[i % n_envs].env_key for i in range(m)],
                    dtype=np.uint64)
    seeds = list(range(300, 300 + m))
    starts = np.array([[0, 3 * i] for i in range(m)], dtype=np.int64)
    return envs, keys, seeds, starts


def _count_cache_lookups(monkeypatch) -> list:
    calls = []
    bounds = _SiteCache.bounds
    monkeypatch.setattr(_SiteCache, "bounds", lambda cache, keys:
                        calls.append(len(keys)) or bounds(cache, keys))
    return calls


@_LAWS_PER_ENV
def test_mixed_key_engines_match_scalar(model, per_env, monkeypatch):
    # per_env walkers in each of three environments, keys interleaved, and
    # more distinct sites than cache slots, so that on the cached side
    # entries collide and are evicted
    n, e = 150, 3
    envs, keys, seeds, starts = _interleaved_walkers(model, e, per_env)
    m = len(keys)
    lookups = _count_cache_lookups(monkeypatch)
    paths = simulate_paths_many_envs(model, keys, starts, n, seeds)
    finals = simulate_finals_many_envs(model, keys, starts, n, seeds)
    stats = simulate_level_stats_many_envs(model, keys, starts, n, seeds)
    cached = per_env >= walk._CACHE_WALKERS_PER_ENV
    assert bool(lookups) == cached
    distinct = {(i % e, *site) for i in range(m) for site in
                paths[:, i, :].tolist()}
    assert len(distinct) > _SiteCache(model, m).size
    for i in range(m):
        ref = simulate(envs[i % e], starts[i], n, seeds[i])
        assert np.array_equal(paths[:, i, :], ref.sites)
        assert np.array_equal(finals[i], ref.sites[-1])
        assert stats["max_level"][i] == ref.levels.max()
    lookups.clear()
    shared = simulate_paths_many(envs[0], starts[0::e], n, seeds[0::e])
    assert bool(lookups) == cached
    assert np.array_equal(shared, paths[:, 0::e, :])


@_LAWS_PER_ENV
def test_engines_match_scalar_when_brackets_decide_nothing(model, per_env,
                                                           monkeypatch):
    # two knot cells per component: the brackets are so wide that nearly
    # every Dirichlet visit takes the exact path, one site at a time or in
    # one array call, through the one settle rule of both bound sources
    monkeypatch.setattr(environment, "_KNOTS", 2)
    exact = []
    settle = _SiteBounds.settle
    monkeypatch.setattr(_SiteBounds, "settle",
                        lambda sites, keys: exact.append(len(keys)) or
                        settle(sites, keys))
    lookups = _count_cache_lookups(monkeypatch)
    n, e = 120, 6
    envs, keys, seeds, starts = _interleaved_walkers(model, e, per_env)
    m = len(keys)
    paths = simulate_paths_many_envs(model, keys, starts, n, seeds)
    shared = simulate_paths_many(envs[0], starts[0::e], n, seeds[0::e])
    assert bool(lookups) == (per_env >= walk._CACHE_WALKERS_PER_ENV)
    for i in range(m):
        assert np.array_equal(paths[:, i, :], simulate(envs[i % e], starts[i],
                                                       n, seeds[i]).sites)
    assert np.array_equal(shared, paths[:, 0::e, :])
    if model.kind == "dirichlet":
        # most visits take the exact path; no exact row is kept, so a
        # revisit takes it again
        assert sum(exact) > 0.75 * (m + per_env) * n
        # the array call in the mixed call, and in the shared call of few
        # walkers one site at a time
        assert max(exact) > walk._SETTLE_ONE_BY_ONE
        if per_env <= walk._SETTLE_ONE_BY_ONE:
            assert min(exact) <= walk._SETTLE_ONE_BY_ONE


@pytest.mark.parametrize("cells", [1, 7, rng._BLOCK_CELLS])
@pytest.mark.parametrize("model", [backtracking_model(),
                                   dirichlet_backtracking_model()],
                         ids=["deterministic", "dirichlet"])
def test_block_uniforms_match_scalar_across_blocks(model, cells,
                                                   monkeypatch):
    # blocks of one step, of 2 or 1 steps (7 cells for 3 or 12 walkers),
    # and of the default budget, which 12 walkers cut inside 150 steps
    # only for a budget below 1800 cells
    monkeypatch.setattr(rng, "_BLOCK_CELLS", cells)
    env = make_environment(model, 8)
    n = 150
    for m in (3, 12):
        starts = np.zeros((m, 2), dtype=np.int64)
        seeds = list(range(40, 40 + m))
        paths = simulate_paths_many(env, starts, n, seeds)
        for i in range(m):
            assert np.array_equal(paths[:, i, :],
                                  simulate(env, starts[i], n, seeds[i]).sites)


# steps per uniform block of the short and the long call: one step, blocks
# that end inside both lengths at different steps, and the default budget,
# which cuts 150 steps at 128 walkers but not at 2
@pytest.mark.parametrize("short_steps, long_steps",
                         [(1, 7), (7, 1), (25, 40), (None, None)])
@pytest.mark.parametrize("per_env", [1, walk._CACHE_WALKERS_PER_ENV])
@pytest.mark.parametrize("model", [backtracking_model(),
                                   dirichlet_backtracking_model()],
                         ids=["deterministic", "dirichlet"])
def test_engine_paths_have_prefix_property(model, per_env, short_steps,
                                           long_steps, monkeypatch):
    n_short, n_long = 61, 150
    envs, keys, seeds, starts = _interleaved_walkers(model, 2, per_env)
    m = len(keys)
    lookups = _count_cache_lookups(monkeypatch)
    default = rng._BLOCK_CELLS

    def paths(n, steps):
        cells = default if steps is None else steps * m
        monkeypatch.setattr(rng, "_BLOCK_CELLS", cells)
        return simulate_paths_many_envs(model, keys, starts, n, seeds)

    short, long = paths(n_short, short_steps), paths(n_long, long_steps)
    assert short.shape == (n_short + 1, m, 2)
    assert np.array_equal(long[:n_short + 1], short)
    assert bool(lookups) == (model.kind == "dirichlet" and
                             per_env >= walk._CACHE_WALKERS_PER_ENV)


@pytest.mark.parametrize("model", [backtracking_model(),
                                   dirichlet_backtracking_model()],
                         ids=["deterministic", "dirichlet"])
def test_engines_take_zero_walkers_and_zero_steps(model):
    env = make_environment(model, 3)
    none = np.zeros((0, 2), dtype=np.int64)
    no_keys = np.zeros(0, dtype=np.uint64)
    assert simulate_paths_many(env, none, 5, []).shape == (6, 0, 2)
    assert simulate_finals_many(env, none, 5, []).shape == (0, 2)
    assert simulate_finals_many_envs(model, no_keys, none, 5, []).shape == \
        (0, 2)
    stats = simulate_level_stats_many_envs(model, no_keys, none, 5, [])
    assert stats["final_level"].shape == stats["max_level"].shape == (0,)
    starts = np.array([[0, 1], [2, 3]], dtype=np.int64)
    keys = np.full(2, env.env_key, dtype=np.uint64)
    assert simulate_paths_many(env, starts, 0, [1, 2]).tolist() == \
        [starts.tolist()]
    assert np.array_equal(simulate_finals_many_envs(model, keys, starts, 0,
                                                    [1, 2]), starts)
    stats = simulate_level_stats_many_envs(model, keys, starts, 0, [1, 2])
    assert stats["final_level"].tolist() == stats["max_level"].tolist() == \
        [0, 2]


@pytest.mark.parametrize("none", [[], np.zeros((0, 2)),
                                  np.zeros((0, 2), dtype=np.int64)],
                         ids=["list", "float-array", "int64-array"])
def test_engines_read_every_spelling_of_zero_walkers(none):
    env = make_environment(dirichlet_drift_model(), 3)
    assert simulate_paths_many(env, none, 5, []).shape == (6, 0, 2)
    assert simulate_finals_many(env, none, 5, []).shape == (0, 2)
    # an empty array of another shape is refused, and shown as given
    with pytest.raises(ValueError, match=r"^starts .*got \[\], array of "
                                         r"dtype float64 and shape \(0, 3\)"):
        simulate_finals_many(env, np.zeros((0, 3)), 5, [])


def _five_engines(env, keys):
    """The five many-walk engines as functions of (starts, n, walk_seeds),
    the per-walker ones with env_keys `keys`."""
    model = env.model
    return [
        lambda s, n, w: simulate_paths_many(env, s, n, w),
        lambda s, n, w: simulate_finals_many(env, s, n, w),
        lambda s, n, w: simulate_paths_many_envs(model, keys, s, n, w),
        lambda s, n, w: simulate_finals_many_envs(model, keys, s, n, w),
        lambda s, n, w: simulate_level_stats_many_envs(model, keys, s, n, w)]


@pytest.mark.parametrize("model", [backtracking_model(),
                                   dirichlet_drift_model()],
                         ids=["deterministic", "dirichlet"])
def test_engines_reject_negative_steps(model):
    # n = -1 gave an IndexError and n <= -2 numpy's unnamed "negative
    # dimensions" in the paths engines; the others returned the starts
    env = make_environment(model, 3)
    starts = np.zeros((2, 2), dtype=np.int64)
    keys = np.full(2, env.env_key, dtype=np.uint64)
    for engine in _five_engines(env, keys):
        for n in (-1, -2):
            with pytest.raises(ValueError, match=rf"^n must be >= 0 "
                                                 rf"\(got {n}\)"):
                engine(starts, n, [1, 2])


@pytest.mark.parametrize("model", [backtracking_model(),
                                   dirichlet_drift_model()],
                         ids=["deterministic", "dirichlet"])
def test_engines_reject_seed_and_key_lists_of_another_length(model):
    # a short list used to broadcast: one seed gave three identical walks,
    # and two env keys for three starts a bare numpy broadcast error
    env = make_environment(model, 3)
    starts = np.zeros((3, 2), dtype=np.int64)
    keys = np.full(3, env.env_key, dtype=np.uint64)
    for engine in _five_engines(env, keys):
        for seeds in ([4], [4, 5], [4, 5, 6, 7], 4, [[4, 5, 6]], []):
            with pytest.raises(ValueError, match="walk_seeds"):
                engine(starts, 50, seeds)
        for n in (0, 50):
            engine(starts, n, [4, 5, 6])
    for bad in (keys[:2], np.append(keys, keys[0]), keys[None, :],
                np.array(env.env_key, dtype=np.uint64)):
        for engine in _five_engines(env, bad)[2:]:
            with pytest.raises(ValueError, match="env_keys"):
                engine(starts, 50, [4, 5, 6])
    # a scalar env key is one shared environment
    for engine in _five_engines(env, env.env_key)[2:4]:
        out = engine(starts, 50, [4, 5, 6])
        ref = simulate_paths_many(env, starts, 50, [4, 5, 6])
        assert np.array_equal(out, ref if out.ndim == 3 else ref[-1])


def _seed_list_oracle(seeds: list) -> np.ndarray:
    """The engines' seed reading as it was written for Python lists."""
    return np.array([int(s) & MASK64 for s in np.asarray(seeds)],
                    dtype=np.uint64)


def _tie(e_j):
    """A seed halfway between two neighbouring doubles of [2**(e-1), 2**e)."""
    e, j = e_j
    return 2**(e - 1) + j * 2**(e - 53) + 2**(e - 54)


_SEEDS = st.one_of(
    st.integers(-2**63, 2**64 - 1),
    st.integers(-2**11, 2**11),                       # small, negative
    st.integers(2**63 - 2**11, 2**63 + 2**11),        # beside 2**63
    st.integers(2**64 - 2**11, 2**64 - 1),            # may round to 2**64
    st.tuples(st.integers(54, 64), st.integers(0, 2**52 - 1)).map(_tie))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEEDS, min_size=1, max_size=8))
@example([5])
@example([3, 1, 2])
@example([-7, 2])
@example([2**64 - 1, 0])                  # rounds to 2**64, read as 0
@example([2**63 + 2**10, 1])              # a tie, to the even neighbour
@example([2**63 + 3 * 2**10, -1])
@example([2**63 + 1, 2**64 - 1])          # one side: exact
@example([np.int64(-1), 2**64 + 5])       # an object list, read mod 2**64
def test_list_seed_array_matches_list_reading(seeds):
    want = _seed_list_oracle(seeds)
    assert walk.walk_seed_array(seeds).tobytes() == want.tobytes()
    if max(seeds) >= 2**64:
        return
    got = walk.list_seed_array(np.array(seeds, dtype=object))
    assert got.tobytes() == want.tobytes()
    for dtype in (np.int64, np.uint64):     # the arrays callers hold
        if all(np.iinfo(dtype).min <= s <= np.iinfo(dtype).max
               for s in seeds):
            got = walk.list_seed_array(np.array(seeds, dtype=dtype))
            assert got.tobytes() == want.tobytes()


def test_list_seed_array_reads_each_row_as_a_list():
    keys = derive_key_range(5, 3, n=40).reshape(8, 5)
    keys[0] = np.arange(5)                    # all small
    keys[1, 1:] = keys[1, 0] | np.uint64(2**63)   # one side, all large
    got = walk.list_seed_array(keys)
    assert got.shape == keys.shape
    for row, g in zip(keys.tolist(), got):
        assert g.tobytes() == _seed_list_oracle(row).tobytes()
    assert np.array_equal(got[:2], keys[:2])
    assert not np.array_equal(got[2:], keys[2:])


def test_site_cache_key_zero_is_not_a_hit():
    model = dirichlet_drift_model()
    cache = _SiteCache(model, 1)
    keys = np.array([0, 0, 7], dtype=np.uint64)
    ref = cum_vectors_from_keys(model, keys)[:, :2]
    rows = _outward32(cum_bounds_from_keys(model, keys))
    assert np.array_equal(cache.bounds(keys), rows)
    assert np.array_equal(cache.bounds(keys), rows)  # now served from the table
    assert np.all(rows[:, 0::2] <= ref) and np.all(ref <= rows[:, 1::2])
    assert np.array_equal(cache.settle(keys), ref)
    assert np.array_equal(cache.bounds(keys), rows)  # settle stores nothing


def test_site_cache_colliding_keys_keep_their_own_rows():
    # keys that share a slot, in one batch and across batches: each lookup
    # returns its own key's row, and settle each key's exact values, one
    # at a time or in one array call
    model = dirichlet_backtracking_model()
    cache = _SiteCache(model, 1)
    base = np.arange(5, dtype=np.uint64)
    keys = np.concatenate([base + np.uint64(cache.size) * i
                           for i in range(3)])
    ref = cum_vectors_from_keys(model, keys)[:, :3]
    rows = _outward32(cum_bounds_from_keys(model, keys))
    for _ in range(2):
        assert np.array_equal(cache.bounds(keys), rows)
        assert np.array_equal(cache.bounds(keys[::-1]), rows[::-1])
    assert len(keys) > walk._SETTLE_ONE_BY_ONE
    assert np.array_equal(cache.settle(keys), ref)
    for i in range(len(keys)):
        assert np.array_equal(cache.settle(keys[i:i + 1]), ref[i:i + 1])
    assert np.array_equal(cache.bounds(keys), rows)


def test_settle_raises_the_underflow_error():
    # alphas so small that every gamma draw of a site underflows to 0
    model = EnvironmentModel(support=support_2d([(1, 0), (0, 1)]),
                             kind="dirichlet", alpha=(1e-300, 1e-300))
    cache = _SiteCache(model, 1)
    for n in (1, walk._SETTLE_ONE_BY_ONE + 1):
        with pytest.raises(ValueError, match="underflows to 0"):
            cache.settle(np.arange(n, dtype=np.uint64))


def test_outward32_keeps_bounds_within_three_ulps():
    rng = np.random.default_rng(4)
    rows = np.sort(rng.random((5000, 4)), axis=1)
    rows[::2, 1] = rows[::2, 0]          # zero-width pairs too
    rows[:4] = [[0.1, 0.1, 1 / 3, 1 / 3], [0.0, 1.0, 0.5, 0.5], [np.nan] * 4,
                [0.25, np.nan, np.nan, 0.75]]
    out = _outward32(rows.copy())
    assert out.dtype == np.float32
    lo, hi = out[:, 0::2].astype(float), out[:, 1::2].astype(float)
    assert np.array_equal(np.isnan(out), np.isnan(rows))
    with np.errstate(invalid="ignore"):
        assert not np.any(lo > rows[:, 0::2])
        assert not np.any(hi < rows[:, 1::2])
    ulp = np.spacing(np.float32(1.0)).astype(float)
    ok = ~np.isnan(rows)
    assert np.all(np.abs(out[ok].astype(float) - rows[ok]) <= 3 * ulp)


# SHA-256 of the int64 little-endian bytes of a tiny simulate_paths_many_envs
# run; recorded before the engine had a site-vector cache.  A change in the
# sampler, the hashing or scipy's gammaincinv shows up here.
GOLDEN_PATHS = {
    "deterministic":
        "56a1175e3323f4aac4d9374c44f2dcc1ac90a9e5a7859b4129ae053b847fd87c",
    "dirichlet":
        "e4b9f20241ef2151263d93440fa4331e7da0d9a6c5c792506ab0d6554dbda38c",
    "mixture":
        "a46c7d92de7765b670a78fd90b157abbcc8f1f9746246370ea98e0977706fc2c",
}


@pytest.mark.parametrize("law", sorted(GOLDEN_PATHS))
def test_golden_paths_digest(law):
    model = {"deterministic": backtracking_model(),
             "dirichlet": dirichlet_backtracking_model(),
             "mixture": _mixture_backtracking_model()}[law]
    keys = np.repeat([make_environment(model, s).env_key for s in (11, 12, 13)],
                     3).astype(np.uint64)
    paths = simulate_paths_many_envs(model, keys,
                                     np.zeros((9, 2), dtype=np.int64), 40,
                                     list(range(100, 109)))
    digest = hashlib.sha256(paths.astype("<i8").tobytes()).hexdigest()
    assert digest == GOLDEN_PATHS[law]


def test_conditional_independence_proxy():
    # step indicators of two walks in one environment, restricted to times
    # when neither stands on a site the other ever visits
    env = make_environment(dirichlet_drift_model(), 3)
    n = 4000
    pa = simulate(env, (0, 0), n, 100)
    pb = simulate(env, (0, 6), n, 200)
    ia = (np.diff(pa.sites, axis=0)[:, 0] == 1).astype(float)
    ib = (np.diff(pb.sites, axis=0)[:, 0] == 1).astype(float)
    ra = set(map(tuple, pa.sites.tolist()))
    rb = set(map(tuple, pb.sites.tolist()))
    fresh = np.array([tuple(pa.sites[t]) not in rb and tuple(pb.sites[t]) not in ra
                      for t in range(n)])
    x, y = ia[fresh], ib[fresh]
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))
    assert abs(r) < 4.0 / np.sqrt(fresh.sum())


def test_diffusive_scale():
    path = WalkPath(np.array([[k, 0] for k in range(5)]), (1, 0))
    out = diffusive_scale(path, (1, 0), 4, [1.0])
    assert np.allclose(out, [[0.0, 0.0]])
    out = diffusive_scale(path, (1, 0), 4, [0.0])
    assert np.allclose(out, [[0.0, 0.0]])
    sites = np.array([[k, k // 4] for k in range(9)])
    path = WalkPath(sites, (1, 0))
    out = diffusive_scale(path, (1, 0), 8, [1.0])
    assert np.allclose(out, [[0.0, 2.0 / np.sqrt(8)]])
    with pytest.raises(ValueError):
        diffusive_scale(path, (1, 0), 8, [2.0])


def test_diffusive_scale_rejects_negative_times():
    # a negative time would index the path from its end; an infinite or
    # huge one would not fit an index, so both raise before the cast
    path = WalkPath(np.array([[k, 0] for k in range(101)]), (1, 0))
    for t_grid in ([-0.5], [0.25, -0.01], [np.nan], [np.inf], [0.5, -np.inf]):
        with pytest.raises(ValueError, match="finite nonnegative"):
            diffusive_scale(path, (0.5, 0), 100, t_grid)
    for t_grid in ([1e300], [0.5, 1.01], [np.finfo(float).max]):
        with pytest.raises(ValueError, match="too short"):
            diffusive_scale(path, (0.5, 0), 100, t_grid)


def test_diffusive_scale_rejects_nonpositive_n():
    # n = 0 would divide by sqrt(0), a negative n take sqrt(n < 0)
    path = WalkPath(np.array([[k, 0] for k in range(11)]), (1, 0))
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"n must be > 0 .*got {n}"):
            diffusive_scale(path, (0.5, 0), n, [0.0, 1.0])


def test_running_max_cache():
    sites = np.array([[0, 0], [1, 0], [0, 0], [2, 0], [1, 0]])
    path = WalkPath(sites, (1, 0))
    assert path.running_max.tolist() == [0, 1, 1, 2, 2]
