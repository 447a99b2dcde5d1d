import numpy as np
import pytest

from rwre import pair
from rwre.environment import EnvironmentModel, compute_h, make_environment
from rwre.models import (dirichlet_backtracking_model, dirichlet_drift_model,
                         drift_model, support_2d)
from rwre.pair import (_SeqWalk, _TimeSource, _joint_regen, _pair_common_sites,
                       coupled_triple, first_joint_regeneration,
                       intersection_curve, sample_Y_chain,
                       sample_Ybar_chain, support_inheritance_check)
from rwre.regen import detect_regenerations
from rwre.rng import site_keys
from rwre.walk import simulate, simulate_paths_many_envs, walk_key


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


@pytest.mark.parametrize("t", [2, 3, 40, 257])
def test_pair_common_sites_matches_loop(t):
    # lazy walks revisit sites; every other pair is shifted far apart, so
    # it shares no site, and one pair is a walker and its own copy
    rng = np.random.default_rng(t)
    paths = np.cumsum(rng.integers(-1, 2, size=(t, 24, 2)), axis=0)
    paths[:, 1::4] += 10 * t
    paths[:, 3] = paths[:, 2]
    got = _pair_common_sites(paths)
    want = _common_sites_loop(paths)
    assert got.tolist() == want.tolist()
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
                           sup.u_hat, sup.steps) for _ in range(2))
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
    # the pair walks' stepper against simulate: a _SeqWalk reading cum_at
    # with a _TimeSource is the same walk, position by position, across
    # the time source's draw-ahead blocks (2, 4, 8, ... draws) and revisits
    sup = model.support
    n = 3000
    for walk_seed in (1, 2**63 + 11):
        path = simulate(make_environment(model, 17), (3, -2), n, walk_seed)
        w = _SeqWalk(make_environment(model, 17).cum_at, (3, -2),
                     _TimeSource(walk_key(walk_seed)), sup.u_hat, sup.steps)
        for m in (1, 7, 40, 555, n):      # resumed inside and across blocks
            assert w.extend_to(m, horizon=n)
            assert w.min_level == path.levels[:m + 1].min()
        assert not w.extend_to(n + 1, horizon=n)
        assert w.positions == [tuple(x) for x in path.sites.tolist()]
        assert w.levels == path.levels.tolist()
        assert w.runmax == path.running_max.tolist()
        records = np.flatnonzero(np.diff(path.running_max)) + 1
        assert w.fresh == {int(path.levels[0]): 0,
                           **{int(path.levels[t]): int(t) for t in records}}
        assert len(w.positions) - len(set(w.positions)) > 50   # revisits


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
