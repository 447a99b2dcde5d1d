import hashlib
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from rwre import environment, pair, rng
from rwre.environment import (EnvironmentModel, compute_h, derive_env_seed,
                              exact_cum_rule, make_environment)
from rwre.models import (backtracking_model, dirichlet_backtracking_model,
                         dirichlet_drift_model, drift_model, support_2d)
from rwre.pair import (_joint_regen, _pair_common_sites, coupled_triple,
                       coupling_decay, first_joint_regeneration,
                       first_joint_regenerations, intersection_curve,
                       sample_Y_chain, sample_Ybar_chain,
                       support_inheritance_check)
from rwre.regen import detect_regenerations
from rwre.rng import _block_len, derive_key, site_keys
from rwre.walk import (WalkPath, _SeqWalk, _TimeSource, simulate,
                       simulate_paths_many_envs, walk_key)


def _point_mass_model():
    return EnvironmentModel(support=support_2d([(1, 0)]),
                            kind="deterministic", probs=(1.0,))


def test_intersection_curve_matches_direct_count():
    model = drift_model()
    res = intersection_curve(model, [16, 64], 40, seed=5)
    assert res["mean"][0] < res["mean"][1]  # grows with horizon
    assert res["mean"][1] < 64              # sublinear in n


def _common_sites_loop(paths):
    """Per-pair oracle: unique site keys of each walker, then intersect."""
    counts = []
    for i in range(paths.shape[1] // 2):
        ka = np.unique(site_keys(0, paths[:, 2 * i, :]))
        kb = np.unique(site_keys(0, paths[:, 2 * i + 1, :]))
        counts.append(np.intersect1d(ka, kb, assume_unique=True).size)
    return np.array(counts)


def _lazy_pair_paths(t):
    """Lazy walks (t, 24, 2), which revisit sites.  Every other pair is
    shifted far apart, so it shares no site, and pair 1 is walker 2 and
    its own copy."""
    gen = np.random.default_rng(t)
    paths = np.cumsum(gen.integers(-1, 2, size=(t, 24, 2)), axis=0)
    paths[:, 1::4] += 10 * t
    paths[:, 3] = paths[:, 2]
    return paths


@pytest.mark.parametrize("t", [2, 3, 40, 257])
def test_pair_common_sites_matches_loop(t):
    paths = _lazy_pair_paths(t)
    got = _pair_common_sites(paths)
    want = _common_sites_loop(paths)
    assert got.tolist() == want.tolist()
    assert (want[::2] == 0).all()
    assert want[1] == np.unique(site_keys(0, paths[:, 2])).size


@pytest.mark.parametrize("t", [3, 41])
def test_pair_common_sites_matches_loop_over_key_slices(t, monkeypatch):
    # 24 walkers on 48 cells fill the key buffer two steps at a time, so
    # with odd t the last slice is one step and the others end mid-path
    monkeypatch.setattr(rng, "_BLOCK_CELLS", 48)
    assert _block_len(24) == 2
    paths = _lazy_pair_paths(t)
    want = _common_sites_loop(paths)
    assert _pair_common_sites(paths).tolist() == want.tolist()
    assert (want[::2] == 0).all()
    assert want[1] == np.unique(site_keys(0, paths[:, 2])).size


def test_pair_common_sites_matches_loop_on_engine_paths():
    model = dirichlet_backtracking_model()
    keys = np.repeat(np.arange(1, 11, dtype=np.uint64), 2)
    paths = simulate_paths_many_envs(model, keys, np.zeros((20, 2), np.int64),
                                     63, list(range(20)))
    assert _pair_common_sites(paths).tolist() == \
        _common_sites_loop(paths).tolist()


def test_intersection_curve_needs_two_reps():
    # one replica has no standard error
    with pytest.raises(ValueError, match="reps must be >= 2"):
        intersection_curve(drift_model(), [4, 8], 1, seed=5)
    res = intersection_curve(drift_model(), [4, 8], 2, seed=5)
    assert np.isfinite(res["se"]).all()


def test_intersection_curve_needs_two_distinct_positive_horizons():
    # n = 0 gave an IndexError and [4, 4] a ZeroDivisionError in the fit;
    # n = 1 has no randomness: its mean was the constant 1
    for grid in ([0, 4], [4, 4], [4], [1, 4]):
        with pytest.raises(ValueError, match="n_grid entries must be >= 2"):
            intersection_curve(drift_model(), grid, reps=2)


def test_coupling_decay_needs_a_replica():
    # reps = 0 divided by zero
    with pytest.raises(ValueError, match="reps must be >= 1"):
        coupling_decay(drift_model(), [(0, 1)], 0, 1, 10, 100)


@pytest.mark.parametrize("search, kwargs, field", [
    # margin 0 and -3 returned confirmed records with no confirmation,
    # horizon -5 an unconfirmed one, margin 0 a coupling outcome
    pytest.param(lambda **kw: first_joint_regeneration(
        make_environment(drift_model(), 1), (0, 0), (0, 2), **kw),
        {"margin": 0}, "margin", id="first_joint_regeneration-margin0"),
    pytest.param(lambda **kw: first_joint_regeneration(
        make_environment(drift_model(), 1), (0, 0), (0, 2), **kw),
        {"margin": -3}, "margin", id="first_joint_regeneration-margin-3"),
    pytest.param(lambda **kw: first_joint_regeneration(
        make_environment(drift_model(), 1), (0, 0), (0, 2), **kw),
        {"horizon": -5}, "horizon", id="first_joint_regeneration-horizon"),
    pytest.param(lambda **kw: coupled_triple(drift_model(), (0, 1), 1, **kw),
                 {"margin": 0}, "margin", id="coupled_triple-margin"),
    pytest.param(lambda **kw: coupled_triple(drift_model(), (0, 1), 1, **kw),
                 {"horizon": 0}, "horizon", id="coupled_triple-horizon"),
    pytest.param(lambda **kw: coupling_decay(
        drift_model(), [(0, 1)], 2, 1, **{"margin": 10, "horizon": 100, **kw}),
        {"margin": 0}, "margin", id="coupling_decay-margin"),
    pytest.param(lambda **kw: coupling_decay(
        drift_model(), [(0, 1)], 2, 1, **{"margin": 10, "horizon": 100, **kw}),
        {"horizon": 0}, "horizon", id="coupling_decay-horizon"),
    pytest.param(lambda **kw: sample_Y_chain(drift_model(), (0, 1), 1, **kw),
                 {"margin": 0}, "margin", id="sample_Y_chain"),
    pytest.param(lambda **kw: sample_Ybar_chain(drift_model(), (0, 1), 1,
                                                **kw),
                 {"margin": 0}, "margin", id="sample_Ybar_chain"),
    pytest.param(lambda **kw: support_inheritance_check(
        drift_model(), (0, 1), 2, **kw),
        {"margin": 0}, "margin", id="support_inheritance_check"),
])
def test_pair_searches_need_a_margin_and_horizon_of_one(search, kwargs,
                                                        field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        search(**kwargs)
    # a float is refused too, not compared
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        search(**{field: 12.0})


@pytest.mark.parametrize("sample, field", [
    (lambda v: sample_Y_chain(drift_model(), (0, 1), v), "K"),
    (lambda v: sample_Ybar_chain(drift_model(), (0, 1), v), "K"),
    (lambda v: support_inheritance_check(drift_model(), (0, 1), v),
     "n_samples"),
], ids=["sample_Y_chain", "sample_Ybar_chain", "support_inheritance_check"])
def test_pair_chains_need_a_count_of_one(sample, field):
    # K = 1.5 raised a TypeError, K = -1 gave an empty chain of shape
    # (0,), n_samples = 0 a ZeroDivisionError
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        sample(1.5)
    for v in (0, -1):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
            sample(v)


def test_first_joint_regeneration_monotone_pair():
    env = make_environment(_point_mass_model(), 5)
    rec = first_joint_regeneration(env, (0, 0), (0, 5))
    assert rec.confirmed
    assert rec.lambda_levels == [1]
    assert rec.Lambda == 1 and rec.mu1 == 1 and rec.mu1_tilde == 1


def test_first_joint_regeneration_self_pair():
    # two walks from x = y on one time source key are one and the same
    # walk: Lambda is the first confirmed single-walk regeneration level,
    # reached at the same time and site as on simulate's path
    for model in (drift_model(), dirichlet_backtracking_model()):
        env = make_environment(model, 21)
        sup = model.support
        wa, wb = (_SeqWalk(env.cum_at, (0, 0), _TimeSource(walk_key(9)),
                           sup) for _ in range(2))
        rec = _joint_regen(wa, wb, compute_h(sup), margin=10, horizon=20_000)
        path = simulate(env, (0, 0), 4 * rec.mu1 + 200, 9)
        single = detect_regenerations(path, margin=10)
        first_level = int(path.levels[single.tau[single.confirmed][0]])
        assert rec.confirmed
        assert rec.Lambda == first_level
        assert rec.x_mu == rec.x_tilde_mu == tuple(path.sites[rec.mu1].tolist())


def _mixture_backtracking_model():
    return EnvironmentModel(
        support=support_2d([(1, 0), (-1, 0), (0, 1), (0, -1)]), kind="mixture",
        atoms=(((0.7, 0.1, 0.1, 0.1), 0.3), ((0.4, 0.3, 0.15, 0.15), 0.7)))


@pytest.mark.parametrize("model", [dirichlet_drift_model(),
                                   dirichlet_backtracking_model(),
                                   _mixture_backtracking_model()],
                         ids=["dirichlet_drift", "dirichlet_backtracking",
                              "mixture"])
def test_seq_walk_matches_simulate(model):
    # simulate and the scalar walker that the pair walks grow, against the
    # one-walker engine position by position, across the time source's
    # draw-ahead blocks (64, 128, 256, ... draws) and revisits; its level
    # records against the WalkPath's levels and running max, also for a
    # walk stopped at its horizon
    sup = model.support
    n = 3000
    env = make_environment(model, 17)
    for walk_seed in (1, 2**63 + 11):
        sites = simulate_paths_many_envs(
            model, np.array([env.env_key], dtype=np.uint64),
            np.array([[3, -2]]), n, [walk_seed])[:, 0]
        assert np.array_equal(simulate(env, (3, -2), n, walk_seed).sites,
                              sites)
        path = WalkPath(sites, sup.u_hat)
        for horizon in (n, 1000):
            w = _SeqWalk(make_environment(model, 17).cum_at, (3, -2),
                         _TimeSource(walk_key(walk_seed)), sup)
            for m in (1, 7, 40, 555, n):  # resumed inside and across blocks
                assert w.extend_to(m, horizon) == (m <= horizon)
                k = min(m, horizon)
                assert w.min_level == path.levels[:k + 1].min()
                assert w.top == path.running_max[k]
            assert not w.extend_to(horizon + 1, horizon)
            assert not w.advance_until_max(w.top + 1, horizon)
            end = horizon + 1
            assert w.positions == [tuple(x) for x in sites[:end].tolist()]
            assert w.levels == path.levels[:end].tolist()
            records = np.flatnonzero(np.diff(path.running_max[:end])) + 1
            assert w.fresh == {int(path.levels[0]): 0,
                               **{int(path.levels[t]): int(t)
                                  for t in records}}
        assert len(w.positions) - len(set(w.positions)) > 50   # revisits
    # past one block of simulate's uniforms and through more distinct
    # sites than the memo holds, against a walker that evaluates every
    # site afresh
    n = _block_len(1) + 1000
    fresh = partial(exact_cum_rule(model), derive_key(env.env_key))
    w = _SeqWalk(fresh, (3, -2), _TimeSource(walk_key(5)), sup)
    w.extend_to(n, n)
    assert len(set(w.positions)) > environment._MEMO_SITES
    assert simulate(env, (3, -2), n, 5).sites.tolist() == \
        [list(x) for x in w.positions]


def test_seq_walk_reads_each_site_after_appending_it():
    # _RangeEnvChooser sizes X's range from len(owner.positions) at each
    # cum_fn call, so the walker must append a site before reading its
    # vector, also inside one long extend_to or advance_until_max call
    model = dirichlet_backtracking_model()
    env = make_environment(model, 3)
    read = []

    def cum_fn(site):
        read.append(w.positions[-1] == site)
        return env.cum_at(site)

    w = _SeqWalk(cum_fn, (0, 0), _TimeSource(walk_key(1)), model.support)
    assert w.advance_until_max(30, 10_000)
    assert w.extend_to(len(w.positions) + 500, 10_000)
    assert len(read) == len(w.positions) - 1 > 500 and all(read)


@pytest.mark.parametrize("call", [
    lambda m: first_joint_regeneration(make_environment(m, 1), (0, 0, 7),
                                       (0, 2, 9)),
    lambda m: sample_Y_chain(m, (0, 2, 9), 2),
    lambda m: coupled_triple(m, (0, 1, 4), seed=0)],
    ids=["first_joint_regeneration", "sample_Y_chain", "coupled_triple"])
def test_wrong_dimension_start_rejected(call):
    # a 3-coordinate start on a 2-d model names the dimension; zip used to
    # drop the extra coordinate and return 2-d results
    with pytest.raises(ValueError, match="^x0? must be a list of 2 entries"):
        call(dirichlet_drift_model())


# sha256 of the repr of the records below, recorded before the pair walks
# moved onto walk._SeqWalk; any change in a realized walk moves them
PAIR_DIGESTS = {
    "joint_3":
        "1e3f9ce14377969751c22a487fadb6bab2f165238ab0b7f5bdac54b87accc585",
    "joint_50":
        "80f9dc0ae77bed03546db5fbec385ad4824dd3cfc273779216d210d3c10ba39f",
    "joint_20000":
        "4e64d761983c045e9cd8b6ce79e000b04cbbadbe3aa482c6078f030916de389e",
    "Y": "6d5d79487d7ec649bd53f7305a55b545233d19a2f90783482c9499df3c00f0aa",
    "Ybar":
        "05c2aab7211803b84d472625e217ba2c985ad738c511cd0537cbbd4fcdd19d04",
    "triple":
        "4f5ab5f386aa34622e276c97114b07b3949ff9625bfec88065e23c0c5d55f76d",
}


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _ints(a):
    return None if a is None else [int(c) for c in a]


@pytest.mark.parametrize("horizon", [3, 50, 20_000])
def test_joint_regen_records_digest(horizon):
    # horizon 3 stops every search, 50 some of them
    recs = []
    for model in (dirichlet_backtracking_model(),
                  _mixture_backtracking_model()):
        for i in range(12):
            r = first_joint_regeneration(make_environment(model, 500 + i),
                                         (0, 0), (0, 4), margin=10, seed=i,
                                         horizon=horizon)
            recs.append((_ints(r.lambda_levels), r.Lambda, r.mu1, r.mu1_tilde,
                         r.confirmed, _ints(r.x_mu), _ints(r.x_tilde_mu)))
    confirmed = sum(r[4] for r in recs)
    assert confirmed == {3: 0, 50: 10, 20_000: 24}[horizon]
    assert _digest(recs) == PAIR_DIGESTS[f"joint_{horizon}"]


@pytest.mark.parametrize("name,fn", [("Y", sample_Y_chain),
                                     ("Ybar", sample_Ybar_chain)])
def test_chain_samples_digest(name, fn):
    out = []
    for model in (dirichlet_drift_model(), dirichlet_backtracking_model()):
        s = fn(model, (0, 2), 6, seed=31, margin=8)
        out.append((s.y.tolist(), s.rejections))
    assert out[1][1] > 0                 # rejected slabs are covered
    assert _digest(out) == PAIR_DIGESTS[name]


def test_coupled_triple_outcomes_digest():
    out = []
    for i in range(16):
        o = coupled_triple(dirichlet_drift_model(), (0, 1), seed=i, margin=10)
        out.append((o.Y1.tolist(), o.Ybar1.tolist(), o.equal, o.hit_X_path,
                    o.n_triples))
    assert sum(o[3] for o in out) == 4   # hits on X's range are covered
    assert _digest(out) == PAIR_DIGESTS["triple"]


def _fields(out):
    return (out.Y1.tolist(), out.Ybar1.tolist(), out.equal, out.hit_X_path,
            out.n_triples)


def test_coupling_decay_replicas_are_coupled_triples_under_any_map():
    # replica i of start j has the seed derive_key(S, 9, j, i) for the
    # prefix derive_key(S, 9)
    model, starts = dirichlet_drift_model(), [(0, 1), (0, 2)]
    res = coupling_decay(model, starts, 4, derive_key(23, 9), 10, 20_000)
    for j, x0 in enumerate(starts):
        assert [_fields(o) for o in res["outcomes"][j]] == [
            _fields(coupled_triple(model, x0, seed=derive_key(23, 9, j, i),
                                   margin=10, horizon=20_000))
            for i in range(4)]
    pooled = coupling_decay(model, starts, 4, derive_key(23, 9), 10, 20_000,
                            workers=2)
    assert [[_fields(o) for o in outs] for outs in pooled["outcomes"]] == \
        [[_fields(o) for o in outs] for outs in res["outcomes"]]
    assert {k: pooled[k] for k in ("p_neq", "se", "monotone_within_3se")} \
        == {k: res[k] for k in ("p_neq", "se", "monotone_within_3se")}


@pytest.mark.parametrize("neq, monotone", [
    pytest.param([3, 1, 1], True, id="falling"),
    pytest.param([0, 0, 0], True, id="all-equal"),
    # p jumps from 0 to 0.9, three times its standard error being 0.28
    pytest.param([0, 9, 0], False, id="rising"),
])
def test_coupling_decay_p_se_and_monotone(neq, monotone, monkeypatch):
    # outcomes stand in for coupled_triple, called in order (start,
    # replica): start j has neq[j] unequal pairs among 10 replicas
    starts = [(0, 1), (0, 2), (0, 3)]
    calls = []

    def fake_triple(model, x0, seed, margin, horizon, _first_x):
        t = len(calls)
        calls.append(x0)
        return SimpleNamespace(equal=t % 10 >= neq[t // 10])

    monkeypatch.setattr(pair, "coupled_triple", fake_triple)
    res = coupling_decay(drift_model(), starts, 10, 0, 10, 100, workers=1)
    assert calls == [x0 for x0 in starts for _ in range(10)]
    assert res["p_neq"] == [k / 10 for k in neq]
    assert res["se"] == [np.sqrt(max(k / 10 * (1 - k / 10), 1e-12) / 10)
                         for k in neq]
    assert res["monotone_within_3se"] is monotone


def _jump_model():
    # the step (2, 0) jumps a level, which then is fresh for neither walk
    # or for one only
    return EnvironmentModel(
        support=support_2d([(2, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]),
        kind="dirichlet", alpha=(2.0, 2.0, 1.5, 1.0, 1.0), floor=0.05)


def _rescan(la, lb, h, margin):
    """(lambda levels, Lambda, mu1, mu1_tilde, skipped levels) of the first
    joint regeneration, scanned from the two walks' whole level lists."""
    def fresh(levels):
        out, top = {}, levels[0]
        for t, lev in enumerate(levels):
            if lev > top:
                top, out[lev] = lev, t
        return out
    fa, fb = fresh(la), fresh(lb)
    lams, skipped, target = [], 0, la[0] + h
    while True:
        ell = target
        while ell not in fa or ell not in fb:
            assert ell < min(max(la), max(lb))
            skipped, ell = skipped + 1, ell + h
        lams.append(ell)
        ta, tb = fa[ell], fb[ell]
        for off in range(1, min(len(la) - ta, len(lb) - tb)):
            a, b = la[ta:ta + off + 1], lb[tb:tb + off + 1]
            if min(a) < ell or min(b) < ell:
                target = max(la[:ta + off + 1] + lb[:tb + off + 1]) + h
                break
            if min(max(a), max(b)) >= ell + margin:
                return lams, ell, ta, tb, skipped
        else:
            raise AssertionError("the level lists end before a verdict")


def test_joint_regen_skips_levels_not_fresh_for_both():
    model = _jump_model()
    h = compute_h(model.support)
    skipped = 0
    for i in range(20):
        env = make_environment(model, 700 + i)
        rec = first_joint_regeneration(env, (0, 0), (0, 2), margin=5, seed=i)
        # the same two walks, kept to read their level lists
        again, wa, wb = pair._time_pair_regen(
            env, env, (0, 0), (0, 2),
            walk_key(derive_key(i, pair._TAG_PAIR, 10)),
            walk_key(derive_key(i, pair._TAG_PAIR, 11)), 5, 20_000)
        assert again == rec and rec.confirmed
        lams, lam, ta, tb, n = _rescan(wa.levels, wb.levels, h, 5)
        assert (rec.lambda_levels, rec.Lambda, rec.mu1, rec.mu1_tilde) == \
            (lams, lam, ta, tb)
        assert (rec.x_mu, rec.x_tilde_mu) == (wa.positions[ta],
                                              wb.positions[tb])
        skipped += n
    assert skipped > 0


def test_joint_regen_h_lattice():
    # gcd-2 level lattice: candidates scan even levels only
    m2 = EnvironmentModel(support=support_2d([(2, 0), (0, 1), (0, -1)]),
                          kind="deterministic", probs=(0.5, 0.25, 0.25))
    env = make_environment(m2, 4)
    rec = first_joint_regeneration(env, (0, 0), (0, 3), margin=6, seed=1)
    assert rec.confirmed
    assert rec.Lambda == 2          # first level above 0 on the h-lattice
    assert rec.Lambda % 2 == 0
    s = sample_Y_chain(m2, (0, 3), 5, seed=2, margin=6)
    assert np.all(s.y[:, 0] == 0)   # difference stays in V_d


def test_joint_regen_start_level_validation():
    env = make_environment(drift_model(), 2)
    with pytest.raises(ValueError):
        first_joint_regeneration(env, (0, 0), (1, 0))
    m2 = EnvironmentModel(support=support_2d([(2, 0), (0, 1)]),
                          kind="deterministic", probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        first_joint_regeneration(make_environment(m2, 1), (1, 0), (1, 3))
    # the batch reads its starts by the same rule
    with pytest.raises(ValueError, match="equal start levels"):
        first_joint_regenerations(drift_model(), (0, 0), (1, 0), 3, 1, 5, 50)
    with pytest.raises(ValueError, match="h-lattice"):
        first_joint_regenerations(m2, (1, 0), (1, 3), 3, 1, 5, 50)


def test_joint_regen_monotone_model_immediate():
    # levels never decrease and never overshoot: every level is fresh for
    # both walks, so the first joint regeneration level is always 1
    model = dirichlet_drift_model()
    for i in range(20):
        env = make_environment(model, 1000 + i)
        rec = first_joint_regeneration(env, (0, 0), (0, 4), margin=10, seed=i)
        assert rec.confirmed and rec.Lambda == 1


def test_joint_regen_tail_decay_backtracking_model():
    # with backtracking steps the fresh-level rounds genuinely iterate;
    # P{Lambda > m} still decays fast
    model = dirichlet_backtracking_model()
    lams = []
    for i in range(200):
        env = make_environment(model, 1000 + i)
        rec = first_joint_regeneration(env, (0, 0), (0, 4), margin=10,
                                       seed=i, horizon=50_000)
        assert rec.confirmed
        # both walks stand exactly on the joint regeneration level
        assert rec.x_mu[0] == rec.Lambda and rec.x_tilde_mu[0] == rec.Lambda
        lams.append(rec.Lambda)
    lams = np.array(lams)
    assert lams.max() > 1          # failed rounds do occur
    assert (lams > 16).mean() <= 0.1
    assert (lams > 64).mean() <= 0.01


def test_y_chain_point_mass():
    s = sample_Y_chain(_point_mass_model(), (0, 5), 4, seed=1)
    assert s.y.tolist() == [[0, 5]] * 4
    assert s.rejections == 0


def test_y_chain_stays_in_hyperplane():
    for model in (dirichlet_drift_model(), dirichlet_backtracking_model()):
        s = sample_Y_chain(model, (0, 3), 12, seed=4, margin=10)
        assert np.all(s.y[:, 0] == 0)  # u_hat = e1: V_d = {(0, m)}


def test_ybar_chain_point_mass_and_hyperplane():
    s = sample_Ybar_chain(_point_mass_model(), (0, 2), 3, seed=2)
    assert s.y.tolist() == [[0, 2]] * 3
    s = sample_Ybar_chain(dirichlet_drift_model(), (0, 3), 12, seed=5,
                          margin=10)
    assert np.all(s.y[:, 0] == 0)


def test_ybar_translation_invariance_and_symmetry():
    # law of the first increment from (0,4) vs from (0,0); and its mirror
    model = dirichlet_drift_model()
    n = 1200
    from collections import Counter
    inc_a, inc_b = Counter(), Counter()
    for i in range(n):
        sa = sample_Ybar_chain(model, (0, 4), 1, seed=10_000 + i, margin=8)
        inc_a[int(sa.y[0][1] - 4)] += 1
        sb = sample_Ybar_chain(model, (0, 0), 1, seed=50_000 + i, margin=8)
        inc_b[int(sb.y[0][1])] += 1
    keys = set(inc_a) | set(inc_b)
    tv_shift = 0.5 * sum(abs(inc_a[k] - inc_b[k]) for k in keys) / n
    assert tv_shift < 0.1
    tv_sym = 0.5 * sum(abs(inc_b[k] - inc_b[-k]) for k in keys) / n
    assert tv_sym < 0.1


def test_coupled_triple_point_mass():
    for i in range(5):
        out = coupled_triple(_point_mass_model(), (0, 3), seed=i)
        assert out.equal
        assert not out.hit_X_path


def test_coupled_triple_far_start_geometry():
    model = dirichlet_drift_model()
    for i in range(25):
        out = coupled_triple(model, (0, 30), seed=i, margin=8)
        assert not out.hit_X_path
        assert out.equal


def test_coupled_triple_hit_implies_possible_mismatch_only():
    # exact assertion: no hit forces equality
    model = dirichlet_drift_model()
    neq = 0
    for i in range(200):
        out = coupled_triple(model, (0, 1), seed=i, margin=10)
        if not out.hit_X_path:
            assert out.equal
        neq += int(not out.equal)
    assert neq > 0  # mismatches do occur at distance 1


def test_coupling_decay_with_distance():
    model = dirichlet_drift_model()
    ps = []
    for dist in (1, 8):
        neq = sum(int(not coupled_triple(model, (0, dist), seed=200 + i,
                                         margin=10).equal)
                  for i in range(200))
        ps.append(neq / 200)
    assert ps[1] <= ps[0]


def test_coupled_triple_vd_validation():
    with pytest.raises(ValueError):
        coupled_triple(dirichlet_drift_model(), (1, 0), seed=0)


def test_coupling_marginals_match_chain_kernels():
    # Y1 / Ybar1 from the three-walk coupling must be distributed as one
    # step of the canonical chains: two independent realizations of the
    # same kernels, compared in total variation
    from collections import Counter
    model = dirichlet_drift_model()
    x0 = (0, 2)
    n = 1200
    cy, cyb, qy, qyb = Counter(), Counter(), Counter(), Counter()
    for i in range(n):
        out = coupled_triple(model, x0, seed=derive_key_local(1, i), margin=8)
        cy[tuple(out.Y1)] += 1
        cyb[tuple(out.Ybar1)] += 1
        qy[tuple(sample_Y_chain(model, x0, 1, seed=derive_key_local(2, i),
                                margin=8).y[0])] += 1
        qyb[tuple(sample_Ybar_chain(model, x0, 1, seed=derive_key_local(3, i),
                                    margin=8).y[0])] += 1
    for a, b in [(cy, qy), (cyb, qyb)]:
        keys = set(a) | set(b)
        tv = 0.5 * sum(abs(a[k] - b[k]) for k in keys) / n
        assert tv < 0.12


def derive_key_local(tag, i):
    from rwre.rng import derive_key
    return derive_key(987, tag, i)


def test_support_inheritance_point_mass():
    rep = support_inheritance_check(_point_mass_model(), (0, 2), 30, seed=1)
    assert set(rep["q_support"]) == {(0, 2)}
    assert set(rep["qbar_support"]) == {(0, 2)}
    assert rep["flagged"] == []


def test_support_inheritance_drift_model():
    rep = support_inheritance_check(dirichlet_drift_model(), (0, 2), 400,
                                    seed=3, margin=8)
    assert rep["flagged"] == []


def _joint_regens_one_by_one(model, x, y, reps, seed, margin, horizon):
    """first_joint_regenerations' records by its stated rule."""
    return [first_joint_regeneration(
        make_environment(model, derive_env_seed(seed, 401, i)), x, y,
        margin, horizon, seed=derive_key(seed, 402, i)) for i in range(reps)]


# model, the two starts (same level, on the h-lattice), margin, horizon
JOINT_CASES = {
    "dirichlet_drift": (dirichlet_drift_model(), (0, 0), (0, 4), 10, 20_000),
    "dirichlet_backtracking": (dirichlet_backtracking_model(), (0, 0), (0, 2),
                               10, 20_000),
    "backtracking": (backtracking_model(), (0, 0), (0, 2), 5, 20_000),
    "drift": (drift_model(), (0, 0), (0, 3), 10, 20_000),
    "mixture": (_mixture_backtracking_model(), (0, 0), (0, 2), 8, 20_000),
    # starts away from the origin, on a nonzero level
    "away": (dirichlet_backtracking_model(), (5, -3), (5, 4), 6, 20_000),
    # the horizon leaves records unconfirmed
    "horizon_40": (dirichlet_backtracking_model(), (0, 0), (0, 2), 10, 40),
}


def _same_records(got, want):
    # repr shows every JointRegenRecord field and the type of each number
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert repr(a) == repr(b)


@pytest.mark.parametrize("prefix", [0, 1, 7, pair._PREFIX, 50_000])
@pytest.mark.parametrize("case", sorted(JOINT_CASES))
def test_joint_regenerations_equal_one_call_per_replica(case, prefix,
                                                        monkeypatch):
    # a walk grown ahead through the engine is the walk grown step by step,
    # and the search reads only what it would have grown; 20 replicas make
    # one block through the engine, 5 run one call each
    model, x, y, margin, horizon = JOINT_CASES[case]
    monkeypatch.setattr(pair, "_PREFIX", prefix)
    for reps in (20, 5):
        want = _joint_regens_one_by_one(model, x, y, reps, 17, margin,
                                        horizon)
        res = first_joint_regenerations(model, x, y, reps, 17, margin,
                                        horizon)
        _same_records(res["records"], want)
        confirmed = [r.Lambda for r in want if r.confirmed]
        assert res["confirmed_fraction"] == len(confirmed) / reps
        assert res["mean_Lambda"] == (np.mean(confirmed) if confirmed
                                      else None)
        assert res["tail_P_Lambda_gt"] == {
            m: np.mean(np.array(confirmed) > m) if confirmed else None
            for m in (4, 8, 16, 32, 64)}
        if reps == 20 and case == "horizon_40":
            assert 0 < len(confirmed) < reps
        if reps == 20 and case == "backtracking":
            assert max(len(r.lambda_levels) for r in want) > 1


def test_joint_regenerations_blocks_above_and_below_the_threshold(
        monkeypatch):
    model, x, y, margin, horizon = JOINT_CASES["dirichlet_backtracking"]
    monkeypatch.setattr(pair, "_BLOCK_MIN", 16)
    want = _joint_regens_one_by_one(model, x, y, 47, 3, margin, horizon)
    engine_blocks = []
    block = pair._time_walk_block

    def counting_block(model, env_keys, starts, n, walk_seeds):
        engine_blocks.append(len(starts) // 2)
        return block(model, env_keys, starts, n, walk_seeds)
    monkeypatch.setattr(pair, "_time_walk_block", counting_block)
    # a block's paths take 129 steps x 2 walks x 2 coordinates x 8 bytes
    # per replica; blocks of 15 replicas or fewer run one call each
    for per_block, blocks in [(None, [47]), (24, [23, 24]), (16, [16, 16]),
                              (10, [])]:
        if per_block is not None:
            monkeypatch.setattr(pair, "_BLOCK_BYTES",
                                per_block * 129 * 32)
        engine_blocks.clear()
        res = first_joint_regenerations(model, x, y, 47, 3, margin, horizon)
        _same_records(res["records"], want)
        assert engine_blocks == blocks, per_block


def test_joint_regenerations_map_one_block_per_worker(monkeypatch):
    model, x, y, margin, horizon = JOINT_CASES["dirichlet_backtracking"]
    maps = []

    def recording_pmap(fn, items, workers):
        maps.append((list(items), workers))
        return [fn(it) for it in items]
    monkeypatch.setattr(pair, "_pmap", recording_pmap)
    want = first_joint_regenerations(model, x, y, 40, 9, margin, horizon)
    got = first_joint_regenerations(model, x, y, 40, 9, margin, horizon,
                                    workers=2)
    assert got == want
    assert maps == [([(0, 40)], 1), ([(0, 20), (20, 40)], 2)]


def test_joint_regenerations_hold_little_memory():
    # the benchmark's full joint-regen config: one block of 150 replicas,
    # whose engine paths take 0.62 MB; 1.06 MB peak when measured
    import tracemalloc
    model = dirichlet_backtracking_model()
    first_joint_regenerations(model, (0, 0), (0, 2), 20, 1, 10, 20_000)
    tracemalloc.start()
    try:
        first_joint_regenerations(model, (0, 0), (0, 2), 150, 2, 10, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _couplings_one_by_one(model, starts, reps, seed, margin, horizon):
    """coupling_decay's outcome fields by its stated rule, for the prefix
    key derive_key(*seed)."""
    return [[_fields(coupled_triple(model, x0, seed=derive_key(*seed, j, i),
                                    margin=margin, horizon=horizon))
             for i in range(reps)] for j, x0 in enumerate(starts)]


COUPLING_MODELS = {
    "dirichlet_drift": dirichlet_drift_model(),
    "dirichlet_backtracking": dirichlet_backtracking_model(),
    "mixture": _mixture_backtracking_model(),
    "drift": drift_model(),
}


def _counting_time_walk_block(monkeypatch):
    """Patch pair._time_walk_block to record each engine block's walkers."""
    blocks = []
    block = pair._time_walk_block

    def counting_block(model, env_keys, starts, n, time_keys):
        blocks.append(len(starts))
        return block(model, env_keys, starts, n, time_keys)
    monkeypatch.setattr(pair, "_time_walk_block", counting_block)
    return blocks


@pytest.mark.parametrize("margin, horizon", [(3, 60), (10, 150)])
@pytest.mark.parametrize("case", sorted(COUPLING_MODELS))
def test_coupling_blocks_equal_one_coupled_triple_per_replica(
        case, margin, horizon, monkeypatch):
    # the first triple's X grown ahead through the engine is revealed only
    # where coupled_triple steps it, so every outcome is the one-by-one
    # outcome; 2 x 16 replicas make one engine block at workers 1 and two
    # at workers 2, and below the minimum none
    model = COUPLING_MODELS[case]
    starts, seed = [(0, 1), (0, 4)], (31, 7)
    want = _couplings_one_by_one(model, starts, 16, seed, margin, horizon)
    blocks = _counting_time_walk_block(monkeypatch)
    for prefix, workers, block_min, engine in [
            (1, 1, 16, [32]), (7, 1, 16, [32]), (pair._PREFIX, 1, 16, [32]),
            (pair._PREFIX, 2, 16, [16, 16]), (pair._PREFIX, 2, 17, [])]:
        if workers == 2 and case != "dirichlet_backtracking":
            continue
        monkeypatch.setattr(pair, "_PREFIX", prefix)
        monkeypatch.setattr(pair, "_BLOCK_MIN", block_min)
        blocks.clear()
        res = coupling_decay(model, starts, 16, derive_key(*seed), margin,
                             horizon, workers=workers)
        assert [[_fields(o) for o in outs] for outs in res["outcomes"]] \
            == want, (prefix, workers, block_min)
        if workers == 1:
            assert blocks == engine
    outs = [o for row in want for o in row]
    assert any(o[3] for o in outs)            # hits on X's range
    if "backtracking" in case:
        assert max(o[4] for o in outs) >= 2   # later triples step scalar


def test_coupling_chooser_sees_the_same_x_range_with_a_prefix(monkeypatch):
    # X's prefix is revealed only as X steps, so at every call of Xbar's
    # chooser X's length, the range it has put in x_set and hit are what
    # they are with no prefix
    model, starts, seed = dirichlet_backtracking_model(), [(0, 1), (0, 4)], 5
    records = []
    call = pair._RangeEnvChooser.__call__

    def recording_call(self, site):
        out = call(self, site)
        records.append((len(self.x_walk.positions), len(self.x_set),
                        self.hit))
        return out
    monkeypatch.setattr(pair._RangeEnvChooser, "__call__", recording_call)
    blocks = _counting_time_walk_block(monkeypatch)
    seen = {}
    for block_min in (16, 10**9):
        monkeypatch.setattr(pair, "_BLOCK_MIN", block_min)
        records.clear()
        res = coupling_decay(model, starts, 20, seed, 10, 20_000)
        seen[block_min] = (list(records), [[_fields(o) for o in outs]
                                           for outs in res["outcomes"]])
    assert blocks == [40]
    assert seen[16] == seen[10**9]
    assert any(hit for _, _, hit in seen[16][0])


def test_coupling_blocks_hold_little_memory():
    # criterion 7's blocks: 50,000 replicas in blocks of 505, whose X
    # paths take 1 MB; 1.7 MB peak when measured
    import tracemalloc
    model = dirichlet_drift_model()
    assert pair._blocks(50_000, 1, 2, 20_000, 2)[0] == (0, 505)
    coupling_decay(model, [(0, 1)], 20, 1, 10, 20_000)
    tracemalloc.start()
    try:
        coupling_decay(model, [(0, 1)], 505, 2, 10, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 19


def test_joint_regen_horizon_exhaustion_unconfirmed():
    env = make_environment(dirichlet_drift_model(), 3)
    rec = first_joint_regeneration(env, (0, 0), (0, 4), margin=50, horizon=30)
    assert not rec.confirmed
    assert rec.Lambda is None and rec.mu1 is None


def test_y_chain_rejection_cap(monkeypatch):
    from rwre.models import backtracking_model
    monkeypatch.setattr(pair, "_CHAIN_HORIZON", 60)
    monkeypatch.setattr(pair, "_MAX_REJECTIONS", 3)
    with pytest.raises(RuntimeError):
        sample_Y_chain(backtracking_model(), (0, 1), 1, seed=2, margin=40)


def test_y_chain_markov_proxy():
    # empirical law of the next step given Y_k = y* should not depend on
    # Y_{k-1}: chi-square independence test not rejecting at 1%
    from collections import Counter, defaultdict
    from scipy import stats
    model = dirichlet_drift_model()
    s = sample_Y_chain(model, (0, 1), 2500, seed=77, margin=8)
    ys = [1] + [int(v[1]) for v in s.y]
    visits = Counter(ys[1:-1])
    y_star = visits.most_common(1)[0][0]
    table = defaultdict(Counter)
    for k in range(1, len(ys) - 1):
        if ys[k] == y_star:
            prev_bin = 0 if ys[k - 1] <= y_star else 1
            nxt_bin = 0 if ys[k + 1] <= y_star else 1
            table[prev_bin][nxt_bin] += 1
    mat = np.array([[table[a][b] for b in (0, 1)] for a in (0, 1)])
    if mat.min() >= 5:
        p = stats.chi2_contingency(mat).pvalue
        assert p > 0.01
