import hashlib

import numpy as np
import pytest

from rwre import environment, walk
from rwre.environment import (EnvironmentModel, cum_bounds_from_keys,
                              cum_vectors_from_keys, make_environment)
from rwre.models import (backtracking_model, dirichlet_backtracking_model,
                         dirichlet_drift_model, drift_model, support_2d)
from rwre.walk import (WalkPath, _outward32, _SiteCache, diffusive_scale,
                       simulate, simulate_finals_many,
                       simulate_finals_many_envs, simulate_level_stats_many_envs,
                       simulate_paths_many, simulate_paths_many_envs)


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


@pytest.mark.parametrize("model", [dirichlet_drift_model(),
                                   dirichlet_backtracking_model(),
                                   _mixture_backtracking_model()],
                         ids=["drift", "backtracking", "mixture"])
def test_mixed_key_engines_match_scalar(model):
    # three walkers in each of three environments, keys interleaved, and
    # a few more sites than cache slots, so entries collide and are evicted
    n, m = 150, 9
    envs = [make_environment(model, s) for s in (5, 6, 7)]
    keys = np.array([envs[i % 3].env_key for i in range(m)], dtype=np.uint64)
    seeds = list(range(300, 300 + m))
    starts = np.array([[0, 3 * (i // 3)] for i in range(m)], dtype=np.int64)
    paths = simulate_paths_many_envs(model, keys, starts, n, seeds)
    finals = simulate_finals_many_envs(model, keys, starts, n, seeds)
    stats = simulate_level_stats_many_envs(model, keys, starts, n, seeds)
    distinct = {(i % 3, *site) for i in range(m) for site in
                paths[:, i, :].tolist()}
    assert len(distinct) > _SiteCache(model, m).size
    for i in range(m):
        ref = simulate(envs[i % 3], starts[i], n, seeds[i])
        assert np.array_equal(paths[:, i, :], ref.sites)
        assert np.array_equal(finals[i], ref.sites[-1])
        assert stats["max_level"][i] == ref.levels.max()
    shared = simulate_paths_many(envs[0], starts[0::3], n, seeds[0::3])
    assert np.array_equal(shared, paths[:, 0::3, :])


@pytest.mark.parametrize("model", [dirichlet_drift_model(),
                                   dirichlet_backtracking_model(),
                                   _mixture_backtracking_model()],
                         ids=["drift", "backtracking", "mixture"])
def test_engines_match_scalar_when_brackets_decide_nothing(model,
                                                           monkeypatch):
    # two knot cells per component: the brackets are so wide that nearly
    # every Dirichlet visit takes the exact path, and its write-back
    monkeypatch.setattr(environment, "_KNOTS", 2)
    exact = []
    monkeypatch.setattr(walk, "cum_vectors_from_keys",
                        lambda mod, keys: exact.append(len(keys)) or
                        cum_vectors_from_keys(mod, keys))
    n, m = 120, 9
    envs = [make_environment(model, s) for s in (5, 6, 7)]
    keys = np.array([envs[i % 3].env_key for i in range(m)], dtype=np.uint64)
    seeds = list(range(300, 300 + m))
    starts = np.array([[0, 3 * (i // 3)] for i in range(m)], dtype=np.int64)
    paths = simulate_paths_many_envs(model, keys, starts, n, seeds)
    shared = simulate_paths_many(envs[0], starts[0::3], n, seeds[0::3])
    for i in range(m):
        assert np.array_equal(paths[:, i, :], simulate(envs[i % 3], starts[i],
                                                       n, seeds[i]).sites)
    assert np.array_equal(shared, paths[:, 0::3, :])
    if model.kind == "dirichlet":
        # most sites take the exact path on their first visit
        first = len({(i % 3, *site) for i in range(m)
                     for site in paths[:-1, i].tolist()})
        first += len({tuple(site) for site in
                      shared[:-1].reshape(-1, 2).tolist()})
        assert sum(exact) > 0.75 * first


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
    assert np.array_equal(cache.bounds(keys),
                          _outward32(np.repeat(ref, 2, axis=1)))


def test_site_cache_colliding_keys_keep_their_own_rows():
    # keys that share a slot, in one batch and across batches: each lookup
    # returns its own key's row, and a settled key its exact row
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
    assert np.array_equal(cache.settle(keys[5:10]), ref[5:10])
    got = cache.bounds(keys)
    assert np.array_equal(got[5:10],
                          _outward32(np.repeat(ref[5:10], 2, axis=1)))
    assert np.array_equal(got[:5], rows[:5])


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
