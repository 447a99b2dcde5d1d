import numpy as np
import pytest
from scipy import special

from rwre import environment
from rwre.environment import (EnvironmentModel, StepSupport,
                              _dirichlet_cum_bounds, _dirichlet_vectors,
                              _knot_pairs, _vectors_from_keys,
                              check_hypotheses, compute_h,
                              cum_bounds_from_keys, cum_vectors_from_keys,
                              derive_env_seed, env_key_range, make_environment)
from rwre.models import (dirichlet_drift_model, drift_model, support_2d)
from rwre.rng import TAG_ENV, U01_MAX, derive_key, site_keys
from rwre.walk import simulate_paths_many


def _vectors(env, sites):
    """Probability vectors (n, k) of env at the sites (n, d) or at one site."""
    return _vectors_from_keys(env.model, site_keys(env.env_key, sites))


def test_point_mass_vector_everywhere():
    m = EnvironmentModel(support=support_2d([(1, 0)]), kind="deterministic",
                         probs=(1.0,))
    env = make_environment(m, 3)
    for x in [(0, 0), (5, -2), (-100, 41)]:
        assert _vectors(env, x)[0].tolist() == [1.0]


def test_site_vector_deterministic_in_seed_and_site():
    env = make_environment(dirichlet_drift_model(), 42)
    a = _vectors(env, (3, 4))[0]
    b = _vectors(env, (3, 4))[0]
    assert np.array_equal(a, b)
    env2 = make_environment(dirichlet_drift_model(), 42)
    assert np.array_equal(a, _vectors(env2, (3, 4))[0])


def test_dirichlet_vector_is_probability_and_recomputable():
    m = EnvironmentModel(support=support_2d([(1, 0), (0, 1), (0, -1)]),
                         kind="dirichlet", alpha=(1.0, 1.0, 1.0))
    env = make_environment(m, 7)
    v = _vectors(env, (3, 4))[0]
    assert np.all(v > 0)
    assert abs(v.sum() - 1.0) < 1e-12
    # regeneration from the same keyed stream, through the scalar path
    cum = make_environment(m, 7).cum_at((3, 4))
    assert cum == tuple(np.cumsum(v).tolist())


def test_vectors_batch_matches_scalar():
    env = make_environment(dirichlet_drift_model(), 11)
    sites = np.array([[0, 0], [3, 4], [-2, 9], [100, -100]])
    batch = _vectors(env, sites)
    for row, v in zip(sites, batch):
        assert np.array_equal(v, _vectors(env, tuple(row))[0])


def test_compute_h_examples():
    assert compute_h(support_2d([(1, 0), (0, 1), (0, -1)])) == 1
    assert compute_h(support_2d([(2, 0), (0, 1)])) == 2
    assert compute_h(support_2d([(3, 0), (-6, 1)])) == 3


def test_compute_h_divides_every_increment():
    for sup in [support_2d([(1, 0), (0, 1), (0, -1)]),
                support_2d([(2, 0), (4, 1), (0, -1)]),
                support_2d([(3, 0), (-6, 1)])]:
        h = compute_h(sup)
        for z in sup.steps:
            assert sup.dot_u(z) % h == 0


def test_compute_h_degenerate_direction():
    with pytest.raises(ValueError):
        StepSupport(dimension=2, steps=((0, 1), (0, -1)), u_hat=(1, 0))


def test_support_validation():
    with pytest.raises(ValueError):
        StepSupport(dimension=2, steps=((1, 0),), u_hat=(0, 0))
    with pytest.raises(ValueError):
        StepSupport(dimension=2, steps=((1, 0), (1, 0)), u_hat=(1, 0))


def test_model_validation():
    sup = support_2d([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        EnvironmentModel(support=sup, kind="deterministic", probs=(0.7, 0.2))
    with pytest.raises(ValueError):
        EnvironmentModel(support=sup, kind="deterministic", probs=(1.0, 0.0))
    with pytest.raises(ValueError):
        EnvironmentModel(support=sup, kind="dirichlet", alpha=(1.0, -1.0))
    with pytest.raises(ValueError):
        EnvironmentModel(support=sup, kind="mixture",
                         atoms=(((1.0, 0.0), 1.0),))


def test_check_hypotheses_point_mass():
    m = EnvironmentModel(support=support_2d([(1, 0)]), kind="deterministic",
                         probs=(1.0,))
    rep = check_hypotheses(m)
    assert rep.bounded_steps
    assert not rep.R_span
    assert rep.non_nestling == (True, 1.0)
    assert not rep.R_restricted_path


def test_check_hypotheses_drift_model():
    rep = check_hypotheses(drift_model())
    ok, delta = rep.non_nestling
    assert ok and abs(delta - 0.5) < 1e-12
    assert rep.R_span
    assert rep.R_restricted_path
    assert rep.gcd_h == 1


def test_check_hypotheses_dirichlet_floor():
    bare = EnvironmentModel(support=support_2d([(1, 0), (0, 1), (0, -1)]),
                            kind="dirichlet", alpha=(1.0, 1.0, 1.0))
    ok, delta = check_hypotheses(bare).non_nestling
    assert not ok and delta == 0.0  # vertex {e2: 1} kills the drift
    floored = dirichlet_drift_model()
    ok, delta = check_hypotheses(floored).non_nestling
    assert ok and delta > 0
    ue_ok, kappa = check_hypotheses(floored).uniform_ellipticity
    assert ue_ok and abs(kappa - 0.1 / 3) < 1e-12


def test_mixture_model_walks_and_hypotheses():
    sup = support_2d([(1, 0), (0, 1), (0, -1)])
    m = EnvironmentModel(support=sup, kind="mixture",
                         atoms=(((0.8, 0.1, 0.1), 0.5),
                                ((0.0, 0.5, 0.5), 0.5)))
    rep = check_hypotheses(m)
    ok, delta = rep.non_nestling
    assert not ok and delta == 0.0   # second atom has zero drift projection
    env = make_environment(m, 5)
    v = _vectors(env, (2, 2))[0]
    assert tuple(v) in {(0.8, 0.1, 0.1), (0.0, 0.5, 0.5)}
    # atom frequencies roughly match the weights
    sites = np.array([[i, 1] for i in range(4000)])
    frac = (_vectors(env, sites)[:, 0] == 0.8).mean()
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4000)


def test_independence_proxy_across_sites():
    # lag-1 correlation of the first component across 10^4 distinct sites
    env = make_environment(dirichlet_drift_model(), 2024)
    sites = np.array([[i, 0] for i in range(10_000)])
    p1 = _vectors(env, sites)[:, 0]
    a, b = p1[:-1] - p1.mean(), p1[1:] - p1.mean()
    r = float((a * b).mean() / p1.var())
    assert abs(r) < 4.0 / np.sqrt(len(p1))


# the scalar path: cum_at against the vectorized site vectors

_SUP3 = [(1, 0), (0, 1), (0, -1)]
_SUP4 = [(1, 0), (-1, 0), (0, 1), (0, -1)]
# nine steps: numpy sums 8 or more entries pairwise, not left to right
_SUP9 = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1),
         (-1, -1), (2, 0)]


def _cum_at_laws():
    yield "deterministic", EnvironmentModel(
        support=support_2d(_SUP4), kind="deterministic",
        probs=(0.4, 0.1, 0.3, 0.2))
    for steps, alpha in ((_SUP3, (4.0, 1.0, 1.0)),
                         (_SUP4, (5.0, 2.0, 1.5, 1.5)),
                         (_SUP9, (0.3, 0.7, 1.0, 1.3, 2.0, 2.5, 3.0, 0.5,
                                  4.0))):
        for floor in (0.0, 0.1):
            yield f"dirichlet-k{len(steps)}-floor{floor}", EnvironmentModel(
                support=support_2d(steps), kind="dirichlet", alpha=alpha,
                floor=floor)
    yield "mixture", EnvironmentModel(
        support=support_2d(_SUP4), kind="mixture",
        atoms=(((0.4, 0.1, 0.3, 0.2), 1.0), ((0.7, 0.1, 0.1, 0.1), 2.0),
               ((0.25, 0.25, 0.25, 0.25), 0.5)))


@pytest.mark.parametrize("name,model", list(_cum_at_laws()),
                         ids=[n for n, _ in _cum_at_laws()])
def test_cum_at_matches_site_vectors_bitwise(name, model):
    rng = np.random.default_rng(5)
    near = np.mgrid[-50:50, -25:25].reshape(2, -1).T
    far = rng.integers(-2**40, 2**40, size=(5_000, 2))   # beyond +-2**31
    sites = np.vstack([near, far, [[2**62, -2**62], [-2**31 - 1, 2**31]]])
    assert len(np.unique(sites, axis=0)) >= 10_000
    env = make_environment(model, 31)
    want = np.cumsum(_vectors(env, sites), axis=1)
    got = [env.cum_at(tuple(s)) for s in sites.tolist()]
    for s, g, w in zip(sites.tolist(), got, want):
        assert g == tuple(w.tolist()), s
    # cache hits return the same tuples
    assert [env.cum_at(tuple(s)) for s in sites[:50].tolist()] == got[:50]


def test_dirichlet_underflow_raises_on_both_paths():
    # at alpha = 0.001 every gamma component underflows to 0 at about one
    # site in ten, which would make the normalized vector NaN
    m = EnvironmentModel(support=support_2d(_SUP3), kind="dirichlet",
                         alpha=(0.001,) * 3)
    env = make_environment(m, 1)
    sites = np.array([[i, 0] for i in range(200)])
    with pytest.raises(ValueError, match=r"dirichlet.*alpha=\(0\.001"):
        _vectors(env, sites)
    with pytest.raises(ValueError, match=r"dirichlet.*alpha=\(0\.001"):
        for s in sites.tolist():
            env.cum_at(tuple(s))


def test_engine_raises_on_underflow():
    # the brackets leave a site whose lower knots total 0 to the exact path
    m = EnvironmentModel(support=support_2d(_SUP3), kind="dirichlet",
                         alpha=(0.001,) * 3, floor=0.1)
    env = make_environment(m, 1)
    with pytest.raises(ValueError, match=r"dirichlet.*alpha=\(0\.001"):
        simulate_paths_many(env, np.zeros((200, 2), dtype=np.int64), 30,
                            list(range(200)))


# Alphas of the bracket sweep: 0.05 to 100, including every model's
_SWEEP_ALPHAS = sorted({0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 2.0,
                        2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 30.0, 100.0})


def _sweep_uniforms(rng) -> np.ndarray:
    """Random uniforms, every knot and 0.9 (where scipy's igami switches
    branch) one ulp either side, and the smallest and largest uniform."""
    grid = np.arange(1, environment._KNOTS) / environment._KNOTS
    edges = np.concatenate([grid, [0.9]])
    u = np.concatenate([rng.random(20_000), np.nextafter(edges, 0.0),
                        np.nextafter(edges, 1.0), [2.0**-54, U01_MAX]])
    return np.clip(u, 2.0**-54, U01_MAX)


def _knot_violation(alpha: float, u: np.ndarray) -> float:
    """Largest relative distance by which gammaincinv(alpha, u) leaves the
    knots of its cell."""
    pairs = _knot_pairs((alpha,), environment._KNOTS)[0].view(np.float64)
    pairs = pairs.reshape(-1, 2)[(u * environment._KNOTS).astype(np.intp)]
    g = special.gammaincinv(alpha, u)
    over = np.maximum(pairs[:, 0] - g, g - pairs[:, 1])
    scale = np.maximum(g, np.finfo(float).tiny)
    return float(np.max(np.maximum(over, 0.0) / scale))


def test_bracket_margin_has_headroom_over_gammaincinv():
    # a relative error e on the gamma draws moves a cumulative component
    # by at most e / 2; the margin keeps 10x over the worst crossing found
    rng = np.random.default_rng(12)
    u = _sweep_uniforms(rng)
    worst = max(_knot_violation(a, u) for a in _SWEEP_ALPHAS)
    assert 10 * worst <= environment._CUM_MARGIN, worst


@pytest.mark.parametrize("floor", [0.0, 0.2])
def test_brackets_hold_the_exact_cumulative_vector(floor):
    rng = np.random.default_rng(13)
    u = _sweep_uniforms(rng)
    for k in (2, 3, 4, 9):
        alpha = tuple(rng.choice(_SWEEP_ALPHAS, size=k))
        model = EnvironmentModel(support=support_2d(_SUP9[:k]),
                                 kind="dirichlet", alpha=alpha, floor=floor)
        # every uniform in every column, the others drawn from the sweep
        block = rng.choice(u, size=(len(u), k))
        for j in range(k):
            block[:, j] = u
        block = np.vstack([block, _tight_rows(rng, k)])
        cum = np.cumsum(_dirichlet_vectors(model, block.copy()),
                        axis=1)[:, :k - 1]
        b = _dirichlet_cum_bounds(model, block)
        lo, hi = b[:, 0::2], b[:, 1::2]
        bounded = ~np.isnan(b).any(axis=1)
        assert bounded.mean() > 0.999
        assert np.all(lo[bounded] <= cum[bounded])
        assert np.all(cum[bounded] <= hi[bounded])


def _tight_rows(rng, k: int, n: int = 2000) -> np.ndarray:
    """Uniforms one ulp inside a knot cell, where a bound of cum_j is
    tightest: the components through j at the bottom of their cells and the
    rest at the top, or the other way round."""
    knots = environment._KNOTS
    i = rng.integers(0, knots, size=(n, k))
    bottom = np.nextafter(i / knots, 1.0)
    top = np.nextafter((i + 1) / knots, 0.0)
    rows = []
    for j in range(k - 1):
        through = np.arange(k) <= j
        rows.append(np.where(through, bottom, top))
        rows.append(np.where(through, top, bottom))
    return np.clip(np.vstack(rows), 2.0**-54, U01_MAX)


def test_cum_bounds_of_other_laws_are_exact():
    keys = site_keys(derive_key(3), np.array([[i, -i] for i in range(50)]))
    for model in (drift_model(), _mixture4(),
                  EnvironmentModel(support=support_2d([(1, 0)]),
                                   kind="dirichlet", alpha=(0.5,))):
        cum = cum_vectors_from_keys(model, keys)[:, :max(len(
            model.support.steps) - 1, 1)]
        assert np.array_equal(cum_bounds_from_keys(model, keys),
                              np.repeat(cum, 2, axis=1))


def _mixture4():
    return EnvironmentModel(
        support=support_2d(_SUP4), kind="mixture",
        atoms=(((0.4, 0.1, 0.3, 0.2), 1.0), ((0.7, 0.1, 0.1, 0.1), 2.0)))


def test_env_key_range_matches_make_environment():
    # seeds on both sides of 2**63, negative and large parts, n = 0 and 1
    model = dirichlet_drift_model()
    for seed in (0, 7, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1):
        for parts, n in [((), 5), ((3,), 1), ((-1, 2), 9), ((-2**63, 5), 4),
                         ((2**64 - 1, -7, 0), 3), ((11,), 0)]:
            want = [make_environment(model, derive_key(seed, *parts, i))
                    .env_key for i in range(n)]
            got = env_key_range(seed, *parts, n=n)
            assert got.dtype == np.uint64
            assert got.tolist() == want
    # the derive_env_seed rule of the replica loops, TAG_ENV first
    want = [make_environment(model, derive_env_seed(2**63 + 9, 0x9D02, 4, e)
                             ).env_key for e in range(6)]
    assert env_key_range(2**63 + 9, TAG_ENV, 0x9D02, 4, n=6).tolist() == want
