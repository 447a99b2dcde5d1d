import itertools

import numpy as np
import pytest

from rwre import clt
from rwre.clt import (_TAG_QMV, _TAG_QS, _env_blocks, _finals_block,
                      _null_space, _two_sided_pvalue,
                      centered_mean_bound, clt_check,
                      degeneracy_directions, quenched_mean_variance,
                      quenched_samples)
from rwre.environment import (EnvironmentModel, derive_env_seed, env_key_range,
                              make_environment)
from rwre.fitting import fit_exponent
from rwre.models import (backtracking_model, degenerate_direction_model,
                         dirichlet_drift_model, drift_model, support_2d)
from rwre.rng import TAG_ENV, derive_key, derive_key_range
from rwre.walk import diffusive_scale, simulate, simulate_finals_many


def _point_mass_model():
    return EnvironmentModel(support=support_2d([(1, 0)]),
                            kind="deterministic", probs=(1.0,))


def _env_keys(model, env_seeds):
    return [make_environment(model, s).env_key for s in env_seeds]


def _in_process_map(monkeypatch) -> list:
    """Replace clt's fork-pool map by an in-process one; returns the list
    of (items, workers) of each map call, filled as calls come."""
    calls = []

    def pmap(fn, items, workers):
        calls.append((items, workers))
        return [fn(it) for it in items]
    monkeypatch.setattr(clt, "_pmap", pmap)
    return calls


def test_quenched_samples_point_mass():
    model = _point_mass_model()
    s = quenched_samples(model, _env_keys(model, [1]), 64, 20,
                         v=(1.0, 0.0), seeds=[2])
    assert s.shape == (1, 20, 2)
    assert np.allclose(s, 0.0)


def test_quenched_samples_single_walk_composition():
    model = dirichlet_drift_model()
    env = make_environment(model, 5)
    v = np.array([0.6, 0.0])
    s = quenched_samples(model, [env.env_key], 128, 1, v=v, seeds=[9])
    path = simulate(env, (0, 0), 128, derive_key(9, _TAG_QS, 0))
    ref = diffusive_scale(path, v, 128, [1.0])
    assert np.allclose(s[0, 0], ref[0])


def test_quenched_samples_homogeneous_covariance():
    model = drift_model()
    s = quenched_samples(model, _env_keys(model, [12]), 1024, 800,
                         v=(0.5, 0.0), seeds=[3])[0]
    C = np.cov(s.T, ddof=1)
    assert np.linalg.norm(C - np.diag([0.25, 0.5])) < 0.08


def test_quenched_samples_blocks_match_one_walk_call_per_environment(
        monkeypatch):
    # reference: one shared-environment engine call per environment, with
    # that environment's seed list; the seeds are derive_key outputs, so
    # each list mixes seeds below and above 2**63
    model = dirichlet_drift_model()
    envs = [make_environment(model, s) for s in (3, 4, 5, 6, 7)]
    seeds = derive_key_range(13, 5, n=len(envs))
    n, m_walks, v = 24, 6, np.array([0.6, 0.0])
    keys = [env.env_key for env in envs]
    s = quenched_samples(model, keys, n, m_walks, v, seeds)
    assert s.shape == (len(envs), m_walks, 2)
    # one block per worker, at most one per environment, walked in process
    calls = _in_process_map(monkeypatch)
    for workers in (2, 3, 7):
        got = quenched_samples(model, keys, n, m_walks, v, seeds,
                               workers=workers)
        assert got.tobytes() == s.tobytes()
        assert len(calls[-1][0]) == min(workers, len(envs))
        assert calls[-1][1] == workers
    for j, env in enumerate(envs):
        wseeds = [derive_key(int(seeds[j]), _TAG_QS, i)
                  for i in range(m_walks)]
        finals = simulate_finals_many(
            env, np.zeros((m_walks, 2), dtype=np.int64), n, wseeds)
        assert s[j].tobytes() == ((finals - n * v) / np.sqrt(n)).tobytes()


def test_clt_check_degenerate_consistent():
    model = _point_mass_model()
    env_samples = quenched_samples(model, _env_keys(model, [1, 2]), 64, 50,
                                   v=(1.0, 0.0), seeds=[1, 2])
    rep = clt_check(env_samples, np.zeros((2, 2)), model.support)
    assert rep.flagged == []
    assert np.all(rep.degenerate_ok)
    assert np.isnan(rep.ks_pvalues).all()


def test_clt_check_synthetic_gaussian_self_test():
    # samples drawn from the reference law must pass at high rate
    D = np.diag([0.25, 0.5])
    sup = drift_model().support
    rng = np.random.default_rng(42)
    samples = [rng.multivariate_normal([0, 0], D, size=400)
               for _ in range(100)]
    rep = clt_check(samples, D, sup, level=0.05)
    assert rep.n_passed >= 90
    assert (rep.ks_pvalues[~np.isnan(rep.ks_pvalues)] > 0.05).mean() >= 0.9


def test_clt_check_needs_two_samples_per_environment():
    # one walk per environment has no covariance: it must not count as a pass
    model = dirichlet_drift_model()
    samples = quenched_samples(model, _env_keys(model, [1, 2]), 16, 1,
                               v=(0.0, 0.0), seeds=[1, 2])
    with pytest.raises(ValueError, match="at least 2 samples in every"):
        clt_check(samples, np.eye(2), model.support)
    two = quenched_samples(model, _env_keys(model, [1, 2]), 16, 2,
                           v=(0.0, 0.0), seeds=[1, 2])
    assert np.isfinite(clt_check(two, np.eye(2), model.support)
                       .frob_to_ref).all()


def test_degeneracy_directions():
    span_model = drift_model()                     # J = {e1, e2, -e2}
    assert degeneracy_directions(span_model).shape[0] == 0
    line = _point_mass_model()                     # J = {e1}
    basis = degeneracy_directions(line)
    assert basis.shape == (2, 2)
    diag = EnvironmentModel(support=support_2d([(1, 0), (0, 1)]),
                            kind="deterministic", probs=(0.5, 0.5))
    basis = degeneracy_directions(diag)
    assert basis.shape == (1, 2)
    assert np.allclose(np.abs(basis[0]), [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_degenerate_direction_is_deterministic_in_path():
    # along u from degeneracy_directions, u.X_n has zero fluctuation
    model = EnvironmentModel(support=support_2d([(1, 0), (0, 1)]),
                             kind="deterministic", probs=(0.5, 0.5))
    u = degeneracy_directions(model)[0]
    env = make_environment(model, 3)
    path = simulate(env, (0, 0), 500, 8)
    proj = path.sites @ u
    assert np.allclose(proj, np.arange(501) * proj[1])


def test_fit_exponent_exact_power_data():
    n = np.array([4, 16, 64, 256, 1024])
    y = 3.7 * n ** 1.234
    fit = fit_exponent(n, y)
    assert abs(fit.slope - 1.234) < 1e-12
    assert fit.slope_se < 1e-12
    # no positive y: no fit
    assert fit_exponent([2, 4], [0.0, -1.0]) is None


def test_quenched_mean_variance_deterministic_kind_is_zero():
    res = quenched_mean_variance(drift_model(), [16, 64], n_env=40,
                                 m_walks=40, seed=6)
    for n, corrected, trace, se in res["rows"]:
        assert trace <= 3 * se + 1e-9


def test_quenched_mean_variance_m_doubling_consistency():
    model = dirichlet_drift_model()
    a = quenched_mean_variance(model, [64], n_env=80, m_walks=40, seed=7)
    b = quenched_mean_variance(model, [64], n_env=80, m_walks=80, seed=8)
    ta, sa = a["rows"][0][2], a["rows"][0][3]
    tb, sb = b["rows"][0][2], b["rows"][0][3]
    assert abs(ta - tb) < 2 * np.hypot(sa, sb) + 0.05 * max(ta, tb)


def test_quenched_mean_blocks_match_one_walk_call_per_environment():
    # reference: one shared-environment engine call per environment
    model = dirichlet_drift_model()
    seed, ni, n, m_walks = 11, 1, 24, 5
    # quenched_mean_variance's environments and walk seeds at grid index ni
    block = _finals_block(
        (range(3, 9), env_key_range(seed, TAG_ENV, _TAG_QMV, ni, n=9),
         derive_key_range(seed, _TAG_QMV, ni, n=9), n), model=model,
        m_walks=m_walks)
    for j, e in enumerate(range(3, 9)):
        env = make_environment(model, derive_env_seed(seed, _TAG_QMV, ni, e))
        wseeds = [derive_key(seed, _TAG_QMV, ni, e, i) for i in range(m_walks)]
        finals = simulate_finals_many(env, np.zeros((m_walks, 2), dtype=np.int64),
                                      n, wseeds)
        assert np.array_equal(block[j], finals)


def test_env_blocks_cost_no_more_than_the_environments():
    # --workers may be any int64; a block split into that many sections
    # would take time and memory linear in the worker count
    assert _env_blocks(5, 2**62) == [[0], [1], [2], [3], [4]]
    assert _env_blocks(5, 2) == [[0, 1, 2], [3, 4]]
    assert _env_blocks(0, 3) == [[]]


def test_quenched_mean_variance_independent_of_blocks(monkeypatch):
    model = dirichlet_drift_model()
    a = quenched_mean_variance(model, [8, 20], n_env=30, m_walks=3, seed=4)
    # 7 blocks per walk length, all walked in process through one map call
    calls = _in_process_map(monkeypatch)
    b = quenched_mean_variance(model, [8, 20], n_env=30, m_walks=3, seed=4,
                               workers=7)
    assert [(len(items), w) for items, w in calls] == [(14, 7)]
    assert np.array_equal(a["trace"], b["trace"])
    for ra, rb in zip(a["rows"], b["rows"]):
        assert ra[0] == rb[0] and ra[2:] == rb[2:]
        assert np.array_equal(ra[1], rb[1])


def test_quenched_mean_variance_validation():
    with pytest.raises(ValueError):
        quenched_mean_variance(drift_model(), [16], n_env=1, m_walks=10)


def test_quenched_mean_variance_rejects_repeated_or_zero_horizons():
    # [4, 4] divided by zero in the jackknife's environment split; n = 0
    # walked no step
    for grid in ([4, 4], [0, 4], []):
        with pytest.raises(ValueError, match="n_grid entries must be >= 1"):
            quenched_mean_variance(drift_model(), grid, 30, 2)


def test_quenched_samples_rejects_zero_steps():
    # n = 0 scaled by 1/sqrt(0): NaN samples
    keys = _env_keys(drift_model(), [1, 2])
    with pytest.raises(ValueError, match="n must be >= 1"):
        quenched_samples(drift_model(), keys, 0, 4, (0.5, 0.0), [1, 2])


def test_centered_mean_point_mass_exact():
    res = centered_mean_bound(_point_mass_model(), [8, 32, 128],
                              v_hat=(1.0, 0.0), reps=50, seed=1)
    assert np.allclose(res["deviation"], 0.0)
    assert np.allclose(res["se"], 0.0)


def test_centered_mean_homogeneous_within_noise():
    res = centered_mean_bound(drift_model(), [16, 64, 256],
                              v_hat=(0.5, 0.0), reps=2000, seed=2)
    assert np.all(np.abs(res["deviation"]) <= 4 * res["se"])
    assert res["trend_pvalue"] > 0.01


def test_centered_mean_needs_two_reps():
    # one replica has no standard error
    with pytest.raises(ValueError, match="reps must be >= 2"):
        centered_mean_bound(drift_model(), [8, 16], v_hat=(0.5, 0.0), reps=1)
    res = centered_mean_bound(drift_model(), [8, 16], v_hat=(0.5, 0.0),
                              reps=2)
    assert np.isfinite(res["se"]).all()


def test_centered_mean_needs_two_distinct_horizons():
    # one horizon, repeated or alone, gave a NaN trend slope
    for grid in ([4, 4], [4]):
        with pytest.raises(ValueError, match="n_grid entries must be >= 1"):
            centered_mean_bound(drift_model(), grid, v_hat=(0.5, 0.0),
                                reps=8)


def test_two_sided_pvalue_matches_scipy_stats_bitwise():
    from scipy import stats
    grid = np.concatenate([[0.0, 1e-300, 5e-324, 1e-8, 38.5, 40.0],
                           np.linspace(0.0, 40.0, 4001)])
    for z in np.concatenate([grid, -grid]):
        want = 2.0 * float(stats.norm.sf(abs(z)))
        assert _two_sided_pvalue(z) == want, z
    res = centered_mean_bound(drift_model(), [16, 64], v_hat=(0.5, 0.0),
                              reps=200, seed=3)
    assert res["trend_pvalue"] == \
        2.0 * float(stats.norm.sf(abs(res["trend_z"])))


def test_null_space_matches_scipy_linalg_bitwise():
    from scipy.linalg import null_space
    # every nonzero u_hat with d <= 4 and entries in -3..3, and the step
    # differences of model and hand-picked step sets
    mats = [np.array([u], dtype=float) for d in range(1, 5)
            for u in itertools.product(range(-3, 4), repeat=d) if any(u)]
    step_sets = [m().support.steps for m in (
        drift_model, degenerate_direction_model, backtracking_model)]
    step_sets += [[(1, 0), (-1, 0)], [(1, 1), (1, -1), (-1, 0)],
                  [(1, 0, 0), (-1, 0, 0), (0, 1, 1)], [(1,), (-1,)]]
    for steps in step_sets:
        st = np.array(steps, dtype=float)
        mats.append((st[:, None, :] - st[None, :, :]).reshape(-1, st.shape[1]))
    for m in mats:
        got, want = _null_space(m), null_space(m)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), m
