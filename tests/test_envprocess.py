import numpy as np
import pytest

from rwre.envprocess import (LocalFunction, constant_function,
                             drift_projection, ergodic_average,
                             variation_proxy)
from rwre.models import (backtracking_model, degenerate_direction_model,
                         dirichlet_drift_model, drift_model)


def test_constant_function_average():
    res = ergodic_average(drift_model(), constant_function(1.0, 2), 200,
                          seed=1, checkpoints=[1, 50, 200])
    assert all(v == 1.0 for v in res["means"].values())


def test_homogeneous_drift_average_exact():
    # deterministic kind: Psi = drift.e1 equals sum z1 p_z at every site
    model = drift_model()
    psi = drift_projection(model, (1, 0))
    res = ergodic_average(model, psi, 300, seed=2, checkpoints=[10, 300])
    for v in res["means"].values():
        assert abs(v - 0.5) < 1e-12


def test_drift_projection_linear_fast_path_matches_evaluator():
    model = dirichlet_drift_model()
    psi = drift_projection(model, (1, 0))
    slow = LocalFunction(window=psi.window, level_floor=psi.level_floor,
                         evaluator=psi.evaluator)
    a = ergodic_average(model, psi, 400, seed=3, checkpoints=[400])
    b = ergodic_average(model, slow, 400, seed=3, checkpoints=[400])
    assert abs(a["final"] - b["final"]) < 1e-12


def test_ergodic_average_dirichlet_reasonable():
    model = dirichlet_drift_model()
    psi = drift_projection(model, (1, 0))
    res = ergodic_average(model, psi, 20_000, seed=4)
    assert 0.55 < res["final"] < 0.7


def test_local_function_validation():
    model = drift_model()
    bad = LocalFunction(window=((0, -0),), level_floor=0,
                        evaluator=lambda v: 0.0)
    bad2 = LocalFunction(window=((-1, 0),), level_floor=0,
                         evaluator=lambda v: 0.0)
    bad.validate(model.support)  # origin is fine
    with pytest.raises(ValueError):
        bad2.validate(model.support)


def test_variation_proxy_monotone_models_zero():
    for model in (degenerate_direction_model(), drift_model()):
        res = variation_proxy(model, 256, [1, 2, 4, 8], reps=1000, seed=6)
        assert np.all(res["i_hat"] == 0.0)


def test_variation_proxy_backtracking_positive_and_monotone():
    res = variation_proxy(backtracking_model(), 512, [2, 4, 8, 16, 32],
                          reps=4000, seed=7)
    ihat = res["i_hat"]
    assert ihat[0] > 0
    assert np.all(np.diff(ihat) <= 0)       # exact under common randomness
    lo = [r[2] for r in res["rows"]]
    hi = [r[3] for r in res["rows"]]
    assert all(a <= p <= b for a, p, b in zip(lo, ihat, hi))

