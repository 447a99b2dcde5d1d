import numpy as np
import pytest

from rwre.environment import EnvironmentModel, make_environment
from rwre.models import backtracking_model, drift_model, support_2d
from rwre.regen import (detect_regenerations, estimate_diffusion,
                        estimate_velocity, renewal_diagnostics)
from rwre.walk import WalkPath, simulate


def _levels_path(levels):
    return WalkPath(np.array([[l, 0] for l in levels]), (1, 0))


def test_detection_hand_trace():
    # levels 0,1,2,1,2,3,4,...,3+margin: tau_1 = 1 and tau_2 = 5 confirmed
    margin = 4
    levels = [0, 1, 2, 1, 2] + list(range(3, 4 + margin))
    rec = detect_regenerations(_levels_path(levels), margin=margin,
                               tail_cut=margin)
    conf = rec.tau[rec.confirmed].tolist()
    assert conf[:2] == [1, 5]
    assert 2 not in rec.tau.tolist()  # undercut later, never a candidate


def test_detection_monotone_path():
    rec = detect_regenerations(_levels_path(range(100)), margin=5, tail_cut=5)
    conf = rec.tau[rec.confirmed]
    assert conf.tolist() == list(range(1, 95))
    assert rec.n_unconfirmed == 5


def test_detection_validation():
    with pytest.raises(ValueError):
        detect_regenerations(_levels_path(range(10)), margin=0)
    with pytest.raises(ValueError):
        detect_regenerations(_levels_path(range(10)), margin=5, tail_cut=3)


def test_drift_model_mean_slab_duration():
    # oracle: regenerations sit at e1-steps, so slab durations are the gaps
    # between consecutive e1-steps (geometric, mean 2)
    env = make_environment(drift_model(), 5)
    path = simulate(env, (0, 0), 50_000, 17)
    rec = detect_regenerations(path, margin=20)
    e1_times = np.nonzero(np.diff(path.sites[:, 0]) == 1)[0] + 1
    gaps = np.diff(e1_times)
    assert abs(rec.slab_dtau.mean() - gaps.mean()) < 0.05
    assert abs(rec.slab_dtau.mean() - 2.0) < 0.05


def test_confirmed_taus_replay():
    env = make_environment(backtracking_model(), 9)
    path = simulate(env, (0, 0), 20_000, 3)
    rec = detect_regenerations(path, margin=10)
    lev = path.levels
    for t, ok in zip(rec.tau, rec.confirmed):
        assert lev[:t].max() < lev[t]
        assert lev[t:].min() == lev[t]
        if ok:
            assert lev[t:].max() >= lev[t] + rec.margin


def test_slab_telescoping():
    env = make_environment(drift_model(), 2)
    path = simulate(env, (0, 0), 5000, 4)
    rec = detect_regenerations(path, margin=8)
    conf = rec.tau[rec.confirmed]
    assert rec.slab_dtau.sum() == conf[-1] - conf[0]
    assert np.array_equal(rec.slab_dx.sum(axis=0),
                          path.sites[conf[-1]] - path.sites[conf[0]])


def test_velocity_point_mass():
    env = make_environment(
        EnvironmentModel(support=support_2d([(1, 0)]), kind="deterministic",
                         probs=(1.0,)), 0)
    rec = detect_regenerations(simulate(env, (0, 0), 200, 1), margin=5)
    ve = estimate_velocity(rec)
    assert np.allclose(ve.v_hat, [1.0, 0.0])
    assert np.allclose(ve.se, 0.0)
    de = estimate_diffusion(rec, ve.v_hat)
    assert np.allclose(de.D_hat, 0.0)


def test_velocity_double_step():
    env = make_environment(
        EnvironmentModel(support=support_2d([(2, 0)]), kind="deterministic",
                         probs=(1.0,)), 0)
    rec = detect_regenerations(simulate(env, (0, 0), 200, 1), margin=5)
    assert np.allclose(estimate_velocity(rec).v_hat, [2.0, 0.0])


def test_velocity_drift_model_lln_oracle():
    env = make_environment(drift_model(), 44)
    path = simulate(env, (0, 0), 60_000, 9)
    rec = detect_regenerations(path, margin=20)
    ve = estimate_velocity(rec)
    # direct X_n/n oracle on an independent run
    path2 = simulate(make_environment(drift_model(), 45), (0, 0), 60_000, 10)
    direct = path2.sites[-1] / path2.n_steps
    assert np.all(np.abs(ve.v_hat - [0.5, 0.0]) <= 3 * ve.se + 1e-9)
    assert np.all(np.abs(direct - ve.v_hat) < 0.02)


def test_diffusion_drift_model_covariance_oracle():
    env = make_environment(drift_model(), 46)
    path = simulate(env, (0, 0), 120_000, 11)
    rec = detect_regenerations(path, margin=20)
    de = estimate_diffusion(rec, estimate_velocity(rec).v_hat)
    # homogeneous-walk step covariance: diag(1/4, 1/2)
    assert np.linalg.norm(de.D_hat - np.diag([0.25, 0.5])) < 0.03


def test_diffusion_degenerate_direction_exact():
    m = EnvironmentModel(support=support_2d([(1, 0), (0, 1)]),
                         kind="deterministic", probs=(0.5, 0.5))
    env = make_environment(m, 8)
    path = simulate(env, (0, 0), 30_000, 5)
    rec = detect_regenerations(path, margin=10)
    de = estimate_diffusion(rec, estimate_velocity(rec).v_hat)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(u @ de.D_hat @ u) < 1e-12


def test_estimators_need_slabs():
    rec = detect_regenerations(_levels_path([0, 1, 0, 1, 0]), margin=1,
                               tail_cut=1)
    with pytest.raises(ValueError):
        estimate_velocity(rec)


def test_misclassification_decays_with_margin():
    # confirmed regenerations invalidated by a 2x horizon, per margin
    model = backtracking_model()
    fracs = {}
    for margin in (2, 10):
        bad = tot = 0
        for i in range(20):
            env = make_environment(model, 100 + i)
            full = simulate(env, (0, 0), 8000, i)
            half = WalkPath(full.sites[:4001], (1, 0))
            rec = detect_regenerations(half, margin=margin)
            conf = rec.tau[rec.confirmed]
            lev = full.levels
            for t in conf:
                tot += 1
                if lev[t:].min() < lev[t]:
                    bad += 1
        fracs[margin] = bad / max(tot, 1)
    assert fracs[10] <= fracs[2]


def test_renewal_diagnostics_point_mass():
    env = make_environment(
        EnvironmentModel(support=support_2d([(1, 0)]), kind="deterministic",
                         probs=(1.0,)), 0)
    recs = [detect_regenerations(simulate(env, (0, 0), 300, i), margin=5)
            for i in range(3)]
    rep = renewal_diagnostics(recs, p=2.0, n_grid=[4, 16, 64])
    for ell, ratio in rep["tau_moment_ratio"]:
        assert ratio == 1.0
    for m, val, _ in rep["overshoot_moment"]:
        assert val == 0.0


def test_renewal_diagnostics_rejects_repeated_or_zero_marks():
    # a repeated mark was reported twice; 0 was skipped for tau_l and used
    # for the other moments
    rec = detect_regenerations(_levels_path(range(100)), margin=5)
    for grid in ([4, 4], [0, 4], []):
        with pytest.raises(ValueError, match="n_grid entries must be >= 1"):
            renewal_diagnostics([rec], n_grid=grid)


def test_ldp_frequency_binomial_oracle():
    from scipy import stats
    # exact oracle: P(Bin(400, 1/2) <= 20) is astronomically small
    assert stats.binom.cdf(20, 400, 0.5) < 1e-60
    env_paths = []
    model = drift_model()
    for i in range(200):
        env = make_environment(model, 300 + i)
        env_paths.append(simulate(env, (0, 0), 801, i))
    recs = [detect_regenerations(p, margin=10) for p in env_paths]
    rep = renewal_diagnostics(recs, p=2.0, n_grid=[400],
                              paths=[p.levels for p in env_paths])
    for n, freq, m in rep["ldp_frequency"]:
        assert freq == 0.0
