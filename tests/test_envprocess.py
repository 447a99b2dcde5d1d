
import numpy as np
import pytest

from rwre.environment import (_vectors_from_keys, derive_env_seed,
                              make_environment)
from rwre.envprocess import (_TAG_ERG, ergodic_average, ergodic_checkpoints,
                             ergodic_runs, variation_proxy)
from rwre.fitting import fit_exponent
from rwre.models import (backtracking_model, degenerate_direction_model,
                         dirichlet_backtracking_model, dirichlet_drift_model,
                         drift_model)
from rwre.rng import derive_key, site_keys
from rwre.walk import simulate


def test_homogeneous_drift_average_exact():
    # deterministic kind: Psi = drift.e1 equals sum z1 p_z at every site
    res = ergodic_average(drift_model(), 300, seed=2, checkpoints=[10, 300])
    for v in res["means"].values():
        assert abs(v - 0.5) < 1e-12


def test_ergodic_average_dirichlet_reasonable():
    res = ergodic_average(dirichlet_drift_model(), 20_000, seed=4)
    assert 0.55 < res["final"] < 0.7


def test_ergodic_average_is_the_cesaro_mean_of_the_local_drift():
    # Psi(T_x omega) = sum_z omega(x, z) z.u_hat, read one site at a time
    model = dirichlet_backtracking_model()
    res = ergodic_average(model, 500, seed=5, checkpoints=[1, 37, 500])
    env = make_environment(model, derive_env_seed(5, _TAG_ERG))
    path = simulate(env, (0, 0), 499, derive_key(5, _TAG_ERG, 1))
    incs = [model.support.dot_u(z) for z in model.support.steps]
    total, means = 0.0, {}
    for j, x in enumerate(path.sites.tolist(), start=1):
        vec = _vectors_from_keys(model, site_keys(env.env_key,
                                                  np.array([x])))[0]
        total += sum(p * z for p, z in zip(vec.tolist(), incs))
        means[j] = total / j
    assert res["checkpoints"] == [1, 37, 500]
    for c, mean in res["means"].items():
        assert abs(mean - means[c]) < 1e-12


def test_ergodic_runs_are_ergodic_averages_under_any_map():
    # run r has the seed derive_key(S, 12, r) for the prefix
    # derive_key(S, 12)
    model = dirichlet_drift_model()
    res = ergodic_runs(model, 300, 3, derive_key(17, 12), [10, 300])
    assert res["checkpoints"] == [10, 300]
    for r in range(3):
        run = ergodic_average(model, 300, seed=derive_key(17, 12, r),
                              checkpoints=[10, 300])
        for c in (10, 300):
            assert res["means"][c][r] == run["means"][c]
    for c in (10, 300):
        assert res["across_run_sd"][c] == np.std(res["means"][c], ddof=1)
    assert res["terminal_mean"] == np.mean(res["means"][300])
    assert res["terminal_se"] == res["across_run_sd"][300] / np.sqrt(3)
    assert ergodic_runs(model, 300, 3, derive_key(17, 12), [10, 300],
                        workers=2) == res


def test_ergodic_runs_single_run_has_zero_spread():
    res = ergodic_runs(drift_model(), 50, 1, 3, None)
    assert res["checkpoints"] == [1, 50]
    assert res["across_run_sd"] == {1: 0.0, 50: 0.0}
    assert res["terminal_se"] == 0.0


def test_ergodic_checkpoints_must_be_given():
    # an empty list raised IndexError
    with pytest.raises(ValueError, match="checkpoints must be one or more"):
        ergodic_average(drift_model(), 50, seed=1, checkpoints=[])
    with pytest.raises(ValueError, match="checkpoints must be one or more"):
        ergodic_runs(drift_model(), 50, 2, 1, [])


def test_ergodic_checkpoints_one_rule_and_one_default():
    # the CLI validated nondecreasing lists and defaulted to
    # [max(1, n // 100), n], the library sorted any list and defaulted to [n]
    assert ergodic_checkpoints([40, 10, 40], 50) == [10, 40]
    assert ergodic_checkpoints(np.array([3, 1]), 3) == [1, 3]
    assert ergodic_checkpoints(None, 12_000) == [120, 12_000]
    assert ergodic_checkpoints(None, 50) == [1, 50]
    assert ergodic_checkpoints(None, 1) == [1]
    for cps in ([], [0, 10], [10, 51]):
        with pytest.raises(ValueError, match="checkpoints must be one or more"):
            ergodic_checkpoints(cps, 50)
    # a float or string was truncated or parsed by int()
    for cps in ([2.5, 10], ["10"], [True, 10]):
        with pytest.raises(ValueError, match="checkpoints must be an integer"):
            ergodic_checkpoints(cps, 50)
    res = ergodic_average(drift_model(), 300, seed=2, checkpoints=None)
    assert res["checkpoints"] == [3, 300]


def test_variation_proxy_rejects_zero_or_repeated_ell():
    # ell = 0 gave a fit with slope NaN; a repeated ell was reported twice
    for grid in ([0, 2, 4, 8], [2, 2, 4]):
        with pytest.raises(ValueError, match="ell_grid entries must be >= 1"):
            variation_proxy(backtracking_model(), 64, grid, 1000)


def test_variation_proxy_monotone_models_zero():
    for model in (degenerate_direction_model(), drift_model()):
        res = variation_proxy(model, 256, [1, 2, 4, 8], reps=1000, seed=6)
        assert np.all(res["i_hat"] == 0.0)
        assert res["monotone"] and res["fit"] is None


def test_variation_proxy_backtracking_positive_and_monotone():
    res = variation_proxy(backtracking_model(), 512, [2, 4, 8, 16, 32],
                          reps=4000, seed=7)
    ihat = res["i_hat"]
    assert ihat[0] > 0
    assert np.all(np.diff(ihat) <= 0)       # exact under common randomness
    assert res["monotone"]
    assert res["fit"] == fit_exponent([2, 4, 8, 16, 32], ihat)
    lo = [r[2] for r in res["rows"]]
    hi = [r[3] for r in res["rows"]]
    assert all(a <= p <= b for a, p, b in zip(lo, ihat, hi))

