import hashlib
import warnings

import numpy as np
import pytest

from rwre import green, rng
from rwre.fitting import fit_exponent
from rwre.green import (PerturbedChainSpec, SymmetricWalk1D,
                        build_ladder_tables, cube_exit_time,
                        first_passage_tail, green_bound_experiment,
                        half_line_green, half_line_green_mc,
                        half_line_green_solve, ladder_heights,
                        product_symmetric_base, simple_walk)
from rwre.rng import derive_key, stream_u01_array


def two_range_walk():
    return SymmetricWalk1D(offsets=(-2, -1, 1, 2), probs=(0.1, 0.4, 0.4, 0.1))


def test_walk_validation():
    with pytest.raises(ValueError):
        SymmetricWalk1D(offsets=(-1, 1), probs=(0.3, 0.7))
    with pytest.raises(ValueError):
        SymmetricWalk1D(offsets=(0,), probs=(1.0,))
    with pytest.raises(ValueError):
        SymmetricWalk1D(offsets=(-1, 1), probs=(0.4, 0.4))


def test_ladder_simple_walk():
    lh = ladder_heights(simple_walk())
    assert set(lh["pmf"]) == {1}
    assert abs(lh["pmf"][1] - 1.0) < 1e-10
    assert lh["truncation_mass"] < 1e-10


def test_ladder_parity_walk():
    lh = ladder_heights(SymmetricWalk1D(offsets=(-2, 2), probs=(0.5, 0.5)))
    assert set(lh["pmf"]) == {2}
    assert abs(lh["pmf"][2] - 1.0) < 1e-10


def test_ladder_two_range_vs_monte_carlo():
    walk = two_range_walk()
    pmf = ladder_heights(walk)["pmf"]
    # vectorized Monte Carlo first-passage oracle; the passage time has
    # infinite mean, so unresolved walkers are capped and enter the
    # tolerance as a (tiny) censoring bias
    rng = np.random.default_rng(7)
    offs = walk.offsets_array
    cum = walk.cum
    reps = 100_000
    pos = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    counts = {1: 0, 2: 0}
    for _ in range(400_000):
        if alive.size == 0:
            break
        idx = np.searchsorted(cum, rng.random(alive.size))
        pos[alive] += offs[np.minimum(idx, len(cum) - 1)]
        done = pos[alive] >= 1
        for h in (1, 2):
            counts[h] += int((pos[alive] == h).sum())
        alive = alive[~done]
    censored = alive.size / reps
    assert censored < 0.005
    for h in (1, 2):
        p_mc = counts[h] / reps
        se = np.sqrt(p_mc * (1 - p_mc) / reps)
        assert abs(pmf[h] - p_mc) < 3 * se + censored


def test_v_table_bounded_by_v0():
    tables = build_ladder_tables(two_range_walk())
    tables.ensure(200)
    assert np.all(tables.v_table <= tables.v_table[0] + 1e-12)


def test_half_line_green_simple_closed_form():
    walk = simple_walk()
    tables = build_ladder_tables(walk)
    for s in (1, 2, 3, 17, 50):
        for t in (1, 2, 9, 50):
            assert abs(half_line_green(walk, 0, s, t, tables) - 2 * min(s, t)) < 1e-6
            assert abs(half_line_green_solve(walk, 0, s, t) - 2 * min(s, t)) < 1e-6


def test_half_line_green_symmetry_and_shift():
    walk = two_range_walk()
    tables = build_ladder_tables(walk)
    for s, t in [(2, 5), (1, 7), (4, 4)]:
        assert abs(half_line_green(walk, 0, s, t, tables)
                   - half_line_green(walk, 0, t, s, tables)) < 1e-12
        assert abs(half_line_green_solve(walk, 0, s, t)
                   - half_line_green_solve(walk, 0, t, s)) < 1e-9
        assert abs(half_line_green(walk, 3, s + 3, t + 3, tables)
                   - half_line_green(walk, 0, s, t, tables)) < 1e-12


def test_ladder_matches_solve_generic_walk():
    walk = two_range_walk()
    tables = build_ladder_tables(walk)
    for s in (1, 2, 5, 12, 30):
        for t in (1, 4, 9, 30):
            assert abs(half_line_green(walk, 0, s, t, tables)
                       - half_line_green_solve(walk, 0, s, t)) < 1e-8


def test_half_line_green_rejects_tables_of_another_walk():
    walk = two_range_walk()
    with pytest.raises(ValueError, match="another walk"):
        half_line_green(walk, 0, 3, 5, build_ladder_tables(simple_walk()))
    own = half_line_green(walk, 0, 3, 5, build_ladder_tables(walk))
    assert abs(own - half_line_green_solve(walk, 0, 3, 5)) < 1e-8


# Walks with J >= 1 far-field modes (two with a zero offset), and the
# sha256 of the float.hex of their ladder pmf, truncation mass, v_table and
# solve and ladder Green values at _PIN_POINTS, recorded before the ladder
# and solve systems shared one builder
_PIN_WALKS = [
    ((-2, -1, 1, 2), (0.1, 0.4, 0.4, 0.1), 1,
     "6622981fe3a17043b3de03fdc6e49370346c4b412bf9fecf9cf47236f50eb328"),
    ((-2, -1, 0, 1, 2), (0.1, 0.2, 0.4, 0.2, 0.1), 1,
     "b16c3e776b3765bd0934bf0ee3387a0023863e12f1e7e8cabe4b878f21ac2ef7"),
    ((-3, -1, 1, 3), (0.15, 0.35, 0.35, 0.15), 2,
     "960baf36c41edb26867ad3580646b8ce48d3196b953d69dada7045922981d20d"),
    ((-3, -2, 0, 2, 3), (0.2, 0.15, 0.3, 0.15, 0.2), 2,
     "758af249c7649e12b2cd94db11da8235033d9297dcc3cee67a8a573d77c07655"),
]
_PIN_POINTS = [(0, 1, 1), (0, 3, 5), (-2, 4, 1), (5, 12, 7), (0, 30, 2)]


@pytest.mark.parametrize("offsets, probs, n_modes, digest", _PIN_WALKS)
def test_far_field_values_pinned_bitwise(offsets, probs, n_modes, digest):
    walk = SymmetricWalk1D(offsets, probs)
    assert len(green._decaying_modes(walk)) == n_modes
    lh = ladder_heights(walk)
    vals = [float(h) for h in lh["pmf"]] + list(lh["pmf"].values())
    vals.append(lh["truncation_mass"])
    tables = build_ladder_tables(walk)
    vals += tables.v_table.tolist()
    for r0, s, t in _PIN_POINTS:
        vals.append(half_line_green_solve(walk, r0, s, t))
        vals.append(half_line_green(walk, r0, s, t, tables))
    text = "\n".join(float(v).hex() for v in vals)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_green_linear_bound_shape():
    # g(s,t) <= C (1 + min(s,t)) with a stable C across same-range walks
    walk_a = simple_walk()
    walk_b = SymmetricWalk1D(offsets=(-1, 0, 1), probs=(0.25, 0.5, 0.25))
    grids = [(s, t) for s in (1, 3, 9, 25) for t in (1, 6, 20)]
    ratios_a = [half_line_green_solve(walk_a, 0, s, t) / (1 + min(s, t))
                for s, t in grids]
    ratios_b = [half_line_green_solve(walk_b, 0, s, t) / (1 + min(s, t))
                for s, t in grids]
    assert max(ratios_b) < 3 * max(ratios_a)


def test_half_line_green_mc_agrees():
    # the stop rule biases the estimate down by at most tail_tol, which
    # therefore joins the statistical tolerance
    walk = simple_walk()
    tol = 0.05
    est, se = half_line_green_mc(walk, 0, 1, 1, reps=20_000, seed=3,
                                 tail_tol=tol)
    assert abs(est - 2.0) <= 3 * se + tol
    est, se = half_line_green_mc(walk, 0, 5, 2, reps=20_000, seed=4,
                                 tail_tol=tol)
    assert abs(est - 4.0) <= 3 * se + tol
    assert half_line_green_mc(walk, 0, 3, 0, reps=10) == (0.0, 0.0)
    walk2 = two_range_walk()
    est, se = half_line_green_mc(walk2, 0, 2, 3, reps=20_000, seed=5,
                                 tail_tol=tol)
    assert abs(est - half_line_green_solve(walk2, 0, 2, 3)) <= 3 * se + tol


def test_first_passage_tail_exact():
    res = first_passage_tail(simple_walk(), [2, 4], mode="exact")
    assert res["tail"][2] == 0.5
    assert res["tail"][4] == 0.375
    # the first a above the cap on state updates, (a - 1) x states x
    # offsets, raises before allocating anything
    for walk in (simple_walk(), two_range_walk()):
        a = 2
        while (a - 1) * ((a - 1) * walk.max_step + 2) * len(walk.offsets) \
                <= green._EXACT_TAIL_UPDATES:
            a += 1
        with pytest.raises(ValueError, match="exact mode limited"):
            first_passage_tail(walk, [a], mode="exact")
    # a wide walk reaches the cap on states, (a - 1) * max_step + 2, first
    wide = SymmetricWalk1D(offsets=(-(1 << 16), 1 << 16), probs=(0.5, 0.5))
    assert first_passage_tail(wide, [2], mode="exact")["tail"][2] == 0.5
    with pytest.raises(ValueError, match="exact mode limited"):
        first_passage_tail(wide, [3], mode="exact")


def test_dense_solves_capped_before_allocating():
    # both dense solves raise above _DENSE_UNKNOWNS unknowns, the walks and
    # points here never reach np.zeros
    cap = green._DENSE_UNKNOWNS
    wide = SymmetricWalk1D(offsets=(-1000, 1000), probs=(0.5, 0.5))
    huge = SymmetricWalk1D(offsets=(-10**30, 10**30), probs=(0.5, 0.5))
    for walk in (wide, huge):
        with pytest.raises(ValueError, match=f"limit {cap}"):
            ladder_heights(walk)
        with pytest.raises(ValueError, match=f"limit {cap}"):
            build_ladder_tables(walk)
    # the bound trunc + max_step + 1 crosses the cap between these steps
    M = (cap - 1) // 11
    ok = SymmetricWalk1D(offsets=(-M, M), probs=(0.5, 0.5))
    green.check_ladder_size(ok)
    with pytest.raises(ValueError, match=f"limit {cap}"):
        green.check_ladder_size(
            SymmetricWalk1D(offsets=(-M - 1, M + 1), probs=(0.5, 0.5)))
    # the solve's bound max(s, t) - r0 + 3 max_step + 7, simple walk: 10
    green.check_solve_size(simple_walk(), -3, cap - 13, 1)
    for s, t in [(cap - 12, 1), (4, cap)]:
        with pytest.raises(ValueError, match=f"limit {cap}"):
            half_line_green_solve(simple_walk(), -3, s, t)


def test_first_passage_tail_mc_matches_exact():
    exact = first_passage_tail(simple_walk(), [2, 4, 8], mode="exact")["tail"]
    mc = first_passage_tail(simple_walk(), [2, 4, 8], mode="monte-carlo",
                            reps=100_000, seed=11)
    for a in (2, 4, 8):
        se = max(mc["se"][a], 1e-6)
        assert abs(mc["tail"][a] - exact[a]) <= 4 * se


def test_chain_spec_validation():
    offs, probs = product_symmetric_base(simple_walk(), 2)
    with pytest.raises(ValueError):
        PerturbedChainSpec(dimension=2, base_offsets=offs, base_probs=probs,
                           p1=16.0, p2=0.0)
    with pytest.raises(ValueError):
        PerturbedChainSpec(dimension=2, base_offsets=offs, base_probs=probs,
                           p1=10.0)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=10.0, allow_low_p1=True)
    assert spec.theorem_exponent() > 0.5


def test_green_bound_recurrent_2d():
    offs, probs = product_symmetric_base(simple_walk(), 2)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=16.0, c_pert=0.0,
                              p2=np.inf)
    res = green_bound_experiment(spec, [64, 256, 1024, 4096], reps=400, seed=5)
    # visits to the origin of a recurrent planar walk grow like log n
    assert res["fit"].slope < 0.4
    assert res["curve"][-1] > res["curve"][0]


def test_green_bound_perturbed_sublinear():
    offs, probs = product_symmetric_base(simple_walk(), 2)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=16.0, p2=16.0, c_pert=1.0)
    res = green_bound_experiment(spec, [64, 256, 1024, 4096], reps=400, seed=6)
    assert res["fit"].slope <= 1.0 - 1e-3 - 3 * res["fit"].slope_se
    assert res["theorem_exponent"] == max(1 - 16 / 28, 0.5 + 13 / 28)


def test_green_bound_rejects_times_below_one():
    # n = 0 is an empty sum, not h(origin); the log fit would divide by 0
    offs, probs = product_symmetric_base(simple_walk(), 2)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=16.0)
    for grid in ([0, 8], [-3, 8], []):
        with pytest.raises(ValueError, match=">= 1"):
            green_bound_experiment(spec, grid, reps=4, seed=1)
    # n = 1 is the k = 0 term alone
    res = green_bound_experiment(spec, [1, 8], reps=4, seed=1)
    assert res["curve"][0] == 1.0


def test_green_bound_needs_a_replica():
    # no replica has no mean
    offs, probs = product_symmetric_base(simple_walk(), 2)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=16.0)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        green_bound_experiment(spec, [1, 8], reps=0, seed=1)
    res = green_bound_experiment(spec, [1, 8], reps=1, seed=1)
    assert np.isfinite(res["curve"]).all()


def test_cube_exit_time_simple_walk_means():
    spec = PerturbedChainSpec(dimension=1,
                              base_offsets=np.array([[-1], [1]]),
                              base_probs=np.array([0.5, 0.5]),
                              p1=16.0, c_pert=0.0)
    res = cube_exit_time(spec, [0, 2, 5, 11], reps=2000, seed=8)
    assert res["mean_exit"][0] == 1.0  # no self-loop: leaves {0} in one step
    for r, mean in zip(res["r_grid"], res["mean_exit"]):
        exact = (r + 1) ** 2  # gambler's-ruin expected duration
        assert abs(mean - exact) < 4 * 0.8 * exact / np.sqrt(2000)


def test_cube_exit_time_rejects_no_replica_and_negative_radius():
    spec = PerturbedChainSpec(dimension=1,
                              base_offsets=np.array([[-1], [1]]),
                              base_probs=np.array([0.5, 0.5]),
                              p1=16.0, c_pert=0.0)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        cube_exit_time(spec, [2, 4], reps=0, seed=1)
    with pytest.raises(ValueError, match="r_grid entries must be >= 0"):
        cube_exit_time(spec, [-1, 4], reps=8, seed=1)
    res = cube_exit_time(spec, [0, 4], reps=1, seed=1)
    assert res["mean_exit"][0] == 1.0


def test_first_passage_tail_rejects_no_replica_and_empty_grid():
    walk = simple_walk()
    with pytest.raises(ValueError, match="reps must be >= 1"):
        first_passage_tail(walk, [1, 4], mode="monte-carlo", reps=0)
    for mode in ("exact", "monte-carlo"):
        with pytest.raises(ValueError, match="a_grid entries must be >= 1"):
            first_passage_tail(walk, [], mode=mode, reps=8)
        with pytest.raises(ValueError, match="a_grid entries must be >= 1"):
            first_passage_tail(walk, [0, 4], mode=mode, reps=8)
    # reps is a Monte Carlo parameter: exact mode ignores it
    assert first_passage_tail(walk, [1], reps=0)["tail"] == {1: 1.0}


def test_grid_experiments_reject_repeated_entries():
    # a repeated n or r divided by zero in the fit; a repeated a was
    # reported once
    offs, probs = product_symmetric_base(simple_walk(), 2)
    spec = PerturbedChainSpec(dimension=2, base_offsets=offs,
                              base_probs=probs, p1=16.0)
    for n_grid in ([4, 4], [4], [0, 4]):
        with pytest.raises(ValueError, match="n_grid entries must be >= 1"):
            green_bound_experiment(spec, n_grid, reps=2, seed=1)
    with pytest.raises(ValueError, match="r_grid entries must be >= 0"):
        cube_exit_time(spec, [3, 3], reps=2, seed=1)
    for mode in ("exact", "monte-carlo"):
        with pytest.raises(ValueError, match="a_grid entries must be >= 1"):
            first_passage_tail(simple_walk(), [4, 4], mode=mode, reps=8)


def test_cube_exit_time_fits_positive_radii_only():
    # r = 0 has no log; one positive radius has no fit
    spec = PerturbedChainSpec(dimension=1,
                              base_offsets=np.array([[-1], [1]]),
                              base_probs=np.array([0.5, 0.5]),
                              p1=16.0, c_pert=0.0)
    assert cube_exit_time(spec, [0, 4], reps=4, seed=1)["fit"] is None
    res = cube_exit_time(spec, [0, 2, 4], reps=4, seed=1)
    assert res["fit"] == fit_exponent([2, 4], res["mean_exit"][1:])


def test_cube_exit_time_rejects_radii_whose_cap_overflows():
    # the step cap 400 (r + 1)^2 + 1000 of the largest radius must fit the
    # int64 exit times: 151,850,023 is the last radius that does
    spec = PerturbedChainSpec(dimension=1,
                              base_offsets=np.array([[-1], [1]]),
                              base_probs=np.array([0.5, 0.5]),
                              p1=16.0, c_pert=0.0)
    for r_grid in ([0, 151_850_024], [10**9, 2], [10**30]):
        with pytest.raises(ValueError, match=r"r_grid entry \d+ would cap"):
            cube_exit_time(spec, r_grid, reps=2, seed=1)
    green.check_exit_radii([0, 151_850_023])


def test_cube_exit_time_exponent():
    spec = PerturbedChainSpec(dimension=1,
                              base_offsets=np.array([[-1], [1]]),
                              base_probs=np.array([0.5, 0.5]),
                              p1=16.0, c_pert=0.0)
    res = cube_exit_time(spec, [16, 32, 64, 128], reps=400, seed=9)
    assert abs(res["fit"].slope - 2.0) < 0.1


def test_half_line_green_mc_warns_at_max_steps(monkeypatch):
    walk = simple_walk()
    with monkeypatch.context() as m, pytest.warns(
            RuntimeWarning, match=r"s=3, t=2\) stopped at "
                                  r"max_steps=50 with \d+ survivors"):
        m.setattr(green, "_MC_MAX_STEPS", 50)
        est, se = half_line_green_mc(walk, 0, 3, 2, reps=200, seed=1)
    assert (est, se) == _ref_half_line_green_mc(walk, 0, 3, 2, 200, 1, 50,
                                                0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        half_line_green_mc(walk, 0, 1, 1, reps=200, seed=1, tail_tol=0.1)


def test_half_line_green_mc_small_reps_give_finite_se():
    # fewer replicas than the 32 batches: one replica per batch, so the
    # standard error is the plain one over the replicas
    walk = simple_walk()
    for reps in (2, 5, 31):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = half_line_green_mc(walk, 0, 1, 1, reps=reps, seed=1)
        assert np.isfinite(se)
        assert (est, se) == _ref_half_line_green_mc(walk, 0, 1, 1, reps, 1,
                                                    2_000_000, 0.01)
    with pytest.raises(ValueError, match="reps must be >= 2"):
        half_line_green_mc(walk, 0, 1, 1, reps=1, seed=1)


# ---------------------------------------------------------------------------
# the blocked kernels against the one-counter loops they replaced


def _ref_keys(seed, *parts, n):
    return np.array([derive_key(seed, *parts, i) for i in range(n)],
                    dtype=np.uint64)


def _ref_walk_step(walk, keys, ctr):
    idx = np.searchsorted(walk.cum, stream_u01_array(keys, ctr), side="left")
    return walk.offsets_array[np.minimum(idx, len(walk.cum) - 1)]


def _ref_half_line_green_mc(walk, r0, s, t, reps, seed, max_steps, tail_tol):
    keys = _ref_keys(seed, green._TAG_GREEN_MC, n=reps)
    pos = np.full(reps, s, dtype=np.int64)
    visits = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    visits[pos == t] += 1
    green_bound = half_line_green_solve(walk, 0, 1, 1) * (t - r0)
    for ctr in range(max_steps):
        if alive.size == 0 or alive.size * green_bound <= tail_tol * reps:
            break
        pos[alive] += _ref_walk_step(walk, keys[alive], ctr)
        killed = pos[alive] <= r0
        visits[alive[pos[alive] == t]] += 1
        alive = alive[~killed]
    n_batches = min(32, reps)
    edges = np.linspace(0, reps, n_batches + 1).astype(int)
    bm = np.array([visits[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    return float(visits.mean()), float(bm.std(ddof=1) / np.sqrt(n_batches))


def _ref_first_passage_mc(walk, a_grid, reps, seed):
    keys = _ref_keys(seed, green._TAG_TAIL, n=reps)
    pos = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    counts = {}
    for t in range(1, max(a_grid)):
        counts.update({a: alive.size for a in a_grid if a == t})
        pos[alive] += _ref_walk_step(walk, keys[alive], t)
        alive = alive[pos[alive] >= 0]
    counts.update({a: alive.size for a in a_grid if a not in counts})
    return {a: counts[a] / reps for a in a_grid}


def _ref_chain_step(spec, pos, keys, ctr):
    """One synchronous step of the perturbed chain for the replicas at
    `pos`: selector, base and alt uniforms at counters 3 ctr, 3 ctr + 1 and
    3 ctr + 2, and p_pert at the float norm of each position."""
    norm = np.sqrt((pos.astype(float) ** 2).sum(axis=1))
    p = np.minimum(1.0, spec.c_pert * np.maximum(norm, 1.0) ** (-spec.p1))
    p = np.where(norm == 0, np.minimum(1.0, spec.c_pert), p)
    pert = stream_u01_array(keys, 3 * ctr) < p

    def draw(offsets, probs, u):
        cum = np.cumsum(probs)
        idx = np.searchsorted(cum, u, side="left")
        return offsets[np.minimum(idx, len(cum) - 1)]
    steps = draw(spec.base_offsets, spec.base_probs,
                 stream_u01_array(keys, 3 * ctr + 1))
    if pert.any():
        steps[pert] = draw(spec.alt_offsets, spec.alt_probs,
                           stream_u01_array(keys[pert], 3 * ctr + 2))
    return steps


def _ref_h(spec, pos):
    norm = np.sqrt((pos.astype(float) ** 2).sum(axis=1))
    if np.isinf(spec.p2):
        return (norm == 0.0).astype(float)
    return np.maximum(norm, 1.0) ** (-spec.p2)


def _ref_green_bound(spec, n_grid, reps, seed):
    keys = _ref_keys(seed, green._TAG_CHAIN, n=reps)
    pos = np.zeros((reps, spec.dimension), dtype=np.int64)
    acc = _ref_h(spec, pos)
    curve = {}
    for k in range(1, max(n_grid)):
        if k in n_grid:
            curve[k] = float(acc.mean())
        pos = pos + _ref_chain_step(spec, pos, keys, k - 1)
        acc += _ref_h(spec, pos)
    curve[max(n_grid)] = float(acc.mean())
    return [curve[n] for n in sorted(n_grid)]


def _ref_cube_exit_time(spec, r_grid, reps, seed, step_cap_factor):
    means, truncated = [], {}
    for r in r_grid:
        cap = step_cap_factor * (r + 1) ** 2 + 1000
        keys = _ref_keys(seed, green._TAG_EXIT, r, n=reps)
        pos = np.zeros((reps, spec.dimension), dtype=np.int64)
        exit_time = np.full(reps, cap, dtype=np.int64)
        alive = np.arange(reps)
        for tstep in range(1, cap + 1):
            pos[alive] += _ref_chain_step(spec, pos[alive], keys[alive],
                                          tstep - 1)
            out = np.abs(pos[alive]).max(axis=1) > r
            exit_time[alive[out]] = tstep
            alive = alive[~out]
            if alive.size == 0:
                break
        truncated[r] = int(alive.size)
        means.append(float(exit_time.mean()))
    return means, truncated


# one cell per block (the one-counter loop), a few cells, the default, and
# more cells than any run below takes, so that one block covers a run
BLOCK_CELLS = (1, 7, rng._BLOCK_CELLS, 1 << 18)


def _at_each_block_size(monkeypatch, run):
    results = []
    for cells in BLOCK_CELLS:
        monkeypatch.setattr(rng, "_BLOCK_CELLS", cells)
        results.append(run())
    return results


# _killed_walk's crossover at both extremes: every block step-major, or
# none (more survivors than any run below has); the runs below have at
# most 64 replicas, so at the default crossover they never go step-major
STEP_MAJOR_SURVIVORS = (0, 1 << 20)


def _at_each_block_size_and_loop_order(monkeypatch, run):
    results = []
    for survivors in STEP_MAJOR_SURVIVORS:
        monkeypatch.setattr(green, "_STEP_MAJOR_SURVIVORS", survivors)
        results += _at_each_block_size(monkeypatch, run)
    return results


@pytest.mark.parametrize("walk,r0,s,t,reps,seed,max_steps,tail_tol", [
    # fewer than 32 replicas leave batches empty and the se NaN, which
    # compares unequal to itself, so every case has at least 32
    (simple_walk(), 0, 1, 1, 64, 3, 2_000_000, 0.1),     # tail_tol stop
    (simple_walk(), 0, 1, 1, 32, 4, 2_000_000, 0.3),
    (two_range_walk(), -2, 1, 3, 48, 5, 2_000_000, 0.5),
    (two_range_walk(), 0, 2, 2, 33, 6, 2_000_000, 0.0),  # stops when all die
    (simple_walk(), 0, 3, 2, 48, 7, 37, 0.01),           # max_steps stop
    (two_range_walk(), 0, 4, 1, 40, 8, 101, 0.01),
])
def test_half_line_green_mc_matches_one_counter_loop(
        monkeypatch, walk, r0, s, t, reps, seed, max_steps, tail_tol):
    monkeypatch.setattr(green, "_MC_MAX_STEPS", max_steps)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return half_line_green_mc(walk, r0, s, t, reps=reps, seed=seed,
                                      tail_tol=tail_tol)
    ref = _ref_half_line_green_mc(walk, r0, s, t, reps, seed, max_steps,
                                  tail_tol)
    assert _at_each_block_size_and_loop_order(monkeypatch, run) == \
        [ref] * len(BLOCK_CELLS) * len(STEP_MAJOR_SURVIVORS)


@pytest.mark.parametrize("walk,a_grid,reps,seed", [
    (simple_walk(), [1, 2, 3, 9, 40, 41, 150], 64, 11),
    (two_range_walk(), [5, 17, 18, 300], 30, 12),   # all die by step 46
    (simple_walk(), [2, 3000], 4, 13),              # 1 of 4 reaches the cap
])
def test_first_passage_tail_mc_matches_one_counter_loop(
        monkeypatch, walk, a_grid, reps, seed):
    got = _at_each_block_size_and_loop_order(
        monkeypatch, lambda: first_passage_tail(
            walk, a_grid, mode="monte-carlo", reps=reps, seed=seed)["tail"])
    ref = _ref_first_passage_mc(walk, a_grid, reps, seed)
    assert got == [ref] * len(BLOCK_CELLS) * len(STEP_MAJOR_SURVIVORS)


def test_step_major_blocks_end_at_a_stop_or_the_cap(monkeypatch):
    # every block step-major, at the default block size: the tail_tol stop
    # of the first one-counter case above falls inside a block (its block
    # drew rows past the stop), and the n_steps cap of the max_steps case
    # cuts its one block from 16384 // 48 rows to the cap (the block length
    # never passes the cap); each run equals the (m, b) blocks'
    walk = simple_walk()
    green_bound = half_line_green_solve(walk, 0, 1, 1)
    runs = {
        "tail_tol": (rng.derive_key_range(3, green._TAG_GREEN_MC, n=64),
                     dict(start=1, lo=1, hit=1, n_steps=2_000_000,
                          stop=lambda alive: alive * green_bound <= 6.4)),
        "n_steps": (rng.derive_key_range(7, green._TAG_GREEN_MC, n=48),
                    dict(start=3, lo=1, hit=2, n_steps=37)),
    }
    rows = []

    def draws(keys, ctrs):
        rows.append(len(ctrs))
        return rng.counter_u64_array(keys, ctrs)
    monkeypatch.setattr(green, "counter_u64_array", draws)
    for name, (keys, kw) in runs.items():
        got = {}
        for survivors in STEP_MAJOR_SURVIVORS:
            monkeypatch.setattr(green, "_STEP_MAJOR_SURVIVORS", survivors)
            rows.clear()
            alive, visits = green._killed_walk(walk, keys, ctr=0, **kw)
            got[survivors] = (alive.tolist(), visits.tolist())
        steps = len(alive) - 1
        assert got[0] == got[1 << 20]
        if name == "tail_tol":
            assert alive[-1] > 0 and sum(rows) > steps
        else:
            assert steps == 37 and rows == [37]


def _chain(d, **kw):
    offs, probs = product_symmetric_base(simple_walk(), d)
    return PerturbedChainSpec(dimension=d, base_offsets=offs,
                              base_probs=probs, **kw)


@pytest.mark.parametrize("spec,r_grid,reps,seed,step_cap_factor", [
    # small caps: (r + 1)^2 * 0 + 1000 steps truncate replicas at r = 40
    (_chain(2, p1=16.0, c_pert=1.0), [0, 3, 40], 40, 21, 0),
    (_chain(1, p1=16.0, c_pert=0.0), [2, 60], 30, 22, 0),
    # perturbed often, with a non-default alt step set
    (_chain(2, p1=3.5, c_pert=6.0, allow_low_p1=True,
            alt_offsets=[[1, 0], [0, -1], [-1, -1]],
            alt_probs=[0.5, 0.3, 0.2]), [1, 4, 9], 40, 23, 1),
    # lazy nearest-neighbour base in d = 3; alt steps may stand still
    (PerturbedChainSpec(dimension=3,
                        base_offsets=[[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                      [0, -1, 0], [0, 0, 1], [0, 0, -1],
                                      [0, 0, 0]],
                        base_probs=[0.15] * 6 + [0.1], p1=2.5, c_pert=40.0,
                        allow_low_p1=True, alt_offsets=[[0, 0, 0], [2, -1, 0]],
                        alt_probs=[0.25, 0.75]), [0, 2, 5], 30, 24, 2),
    # a base of 4**3 = 64 steps, more than green._SHORT_TABLE: searchsorted
    (PerturbedChainSpec(3, *product_symmetric_base(SymmetricWalk1D(
        offsets=(-2, -1, 1, 2), probs=(0.25,) * 4), 3), p1=3.0, c_pert=4.0,
        allow_low_p1=True), [1, 8], 40, 25, 1),
])
def test_cube_exit_time_matches_one_counter_loop(
        monkeypatch, spec, r_grid, reps, seed, step_cap_factor):
    monkeypatch.setattr(green, "_EXIT_CAP_FACTOR", step_cap_factor)

    def run():
        res = cube_exit_time(spec, r_grid, reps=reps, seed=seed)
        return res["mean_exit"], res["truncated"]
    ref = _ref_cube_exit_time(spec, r_grid, reps, seed, step_cap_factor)
    assert _at_each_block_size(monkeypatch, run) == [ref] * len(BLOCK_CELLS)
    if step_cap_factor == 0:
        assert ref[1][max(r_grid)] > 0


_LAZY_3D = dict(base_offsets=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                              [0, 0, 1], [0, 0, -1], [0, 0, 0]],
                base_probs=[0.15] * 6 + [0.1])


@pytest.mark.parametrize("spec,n_grid,reps,seed", [
    # a block of 16384 // 128 = 128 steps at the default size: grid points
    # at 1, on the first block's last step (129) and on the next one's first
    (_chain(2, p1=16.0, p2=16.0, c_pert=1.0), [1, 2, 129, 130, 300], 128, 31),
    # h the indicator of the origin; one replica, one block
    (_chain(2, p1=16.0, c_pert=1.0), [5, 40, 41], 1, 32),
    # a 3-d chain whose two alt offsets may stand still, finite p2
    (PerturbedChainSpec(3, **_LAZY_3D, p1=2.5, c_pert=40.0, p2=3.0,
                        allow_low_p1=True, alt_offsets=[[0, 0, 0], [2, -1, 0]],
                        alt_probs=[0.25, 0.75]), [1, 17, 200], 30, 33),
    # alt steps of 100 carry every replica past the 16385-entry norm table
    # (norms up to 128), where c_pert still perturbs a few steps in a
    # hundred
    (PerturbedChainSpec(1, [[-40], [40]], [0.5, 0.5], p1=2.5, c_pert=5e3,
                        p2=0.5, allow_low_p1=True, alt_offsets=[[-100], [100]],
                        alt_probs=[0.5, 0.5]), [2, 64, 65, 150], 16, 34),
])
def test_green_bound_matches_one_step_loop(monkeypatch, spec, n_grid, reps,
                                           seed):
    def run():
        return green_bound_experiment(spec, n_grid, reps=reps,
                                      seed=seed)["curve"].tolist()
    ref = _ref_green_bound(spec, n_grid, reps, seed)
    assert _at_each_block_size(monkeypatch, run) == [ref] * len(BLOCK_CELLS)


@pytest.mark.parametrize("k", [1, 2, 3, 7, rng._SHORT_TABLE,
                               rng._SHORT_TABLE + 1, 81])
def test_step_index_matches_searchsorted(k):
    # both sides of the short-table switch, uniforms landing on thresholds
    cum = np.cumsum(np.random.default_rng(k).dirichlet(np.ones(k)))
    u = np.concatenate([[0.0], cum[:-1], np.nextafter(cum[:-1], 1.0),
                        np.random.default_rng(k + 1).random(500)])
    want = np.minimum(np.searchsorted(cum, u, side="left"), k - 1)
    assert np.array_equal(rng.step_index(cum, u.reshape(-1, 1)),
                          want.reshape(-1, 1))


# entries of a cumulative table that need the integer thresholds' edge
# cases: below the least uniform 2**-54, 0.5 (the simple walk, whose
# threshold lies where w + 0.5 rounds to even above 2**52), repeated (an
# offset of probability 0), U01_MAX and above (no draw passes them)
_EDGE_ENTRIES = [2.0**-60, 2.0**-54, 0.5, 0.5, rng.U01_MAX, 1.0,
                 1.0 + 2.0**-52]


@pytest.mark.parametrize("k", [2, len(_EDGE_ENTRIES), rng._SHORT_TABLE,
                               rng._SHORT_TABLE + 1, 81])
def test_step_index_raw_draws_match_their_uniforms(k):
    # both sides of the short-table switch; the draws at the ends and the
    # middle of the uint64 range and on both sides of every threshold
    if k == 2:
        cum = simple_walk().cum
    else:
        rand = np.random.default_rng(k).random(k - len(_EDGE_ENTRIES))
        cum = np.sort(np.concatenate([rand, _EDGE_ENTRIES]))
    assert len(cum) == k
    cut = rng._draw_thresholds(cum.tobytes())
    draws = np.concatenate([
        np.array([0, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
        cut - np.uint64(1), cut, cut + np.uint64(1),
        np.random.default_rng(k + 1).integers(0, 2**64, 500, np.uint64)])
    want = rng.step_index(cum, rng._u01(draws.copy()))
    assert np.array_equal(rng.step_index(cum, draws), want)
    block = draws[:len(draws) // 2 * 2].reshape(2, -1)
    assert np.array_equal(rng.step_index(cum, block),
                          want[:block.size].reshape(2, -1))
    if k == 2:                      # 2**52 + 0.5 rounds down to 2**52
        assert cut.tolist() == [2**63 + 2**11]
