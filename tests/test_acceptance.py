"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with the measured quantities (visible with
pytest -s or in failure reports).  Expensive shared artifacts (the slab
estimates for the random-environment model) are module-scoped fixtures.
"""

import time
from multiprocessing import get_context

import numpy as np
import pytest

from rwre.clt import (centered_mean_bound, clt_check, degeneracy_directions,
                      quenched_mean_variance, quenched_samples)
from rwre.environment import (EnvironmentModel, check_hypotheses,
                              derive_env_seed, make_environment)
from rwre.envprocess import drift_projection, ergodic_average, variation_proxy
from rwre.fitting import fit_exponent
from rwre.green import (build_ladder_tables, first_passage_tail,
                        half_line_green, half_line_green_mc,
                        half_line_green_solve, simple_walk)
from rwre.models import (backtracking_model, degenerate_direction_model,
                         dirichlet_drift_model, drift_model, support_2d)
from rwre.pair import coupled_triple, intersection_curve
from rwre.regen import (detect_regenerations, estimate_diffusion,
                        estimate_velocity)
from rwre.rng import derive_key
from rwre.walk import WalkPath, simulate, simulate_paths_many_envs

SEED = 20240817
N_WORKERS = 8


@pytest.fixture(scope="module")
def dirichlet_estimates():
    """Slab velocity/diffusion for the random-environment model, from
    64 independent 100k-step walks (~4e6 slabs, se(v) ~ 2e-4)."""
    model = dirichlet_drift_model()
    records = []
    for c in range(4):
        env_keys = np.array(
            [make_environment(model, derive_env_seed(SEED, 90, c, i)).env_key
             for i in range(16)], dtype=np.uint64)
        wseeds = [derive_key(SEED, 91, c, i) for i in range(16)]
        paths = simulate_paths_many_envs(
            model, env_keys, np.zeros((16, 2), dtype=np.int64), 100_000, wseeds)
        for i in range(16):
            records.append(detect_regenerations(
                WalkPath(paths[:, i, :], model.support.u_hat), margin=20))
    ve = estimate_velocity(records)
    de = estimate_diffusion(records, ve.v_hat)
    return {"model": model, "v": ve.v_hat, "v_se": ve.se, "D": de.D_hat,
            "n_slabs": ve.n_slabs}


def test_criterion_01_homogeneous_velocity_and_diffusion():
    env = make_environment(drift_model(), derive_env_seed(SEED, 1))
    path = simulate(env, (0, 0), 230_000, derive_key(SEED, 2))
    rec = detect_regenerations(path, margin=20)
    assert rec.n_slabs >= 100_000
    ve = estimate_velocity(rec)
    de = estimate_diffusion(rec, ve.v_hat)
    target_v = np.array([0.5, 0.0])
    assert np.all(np.abs(ve.v_hat - target_v) <= 3 * ve.se)
    frob = np.linalg.norm(de.D_hat - np.diag([0.25, 0.5]))
    assert frob < 0.02
    print(f"ACCEPTANCE 1: PASS - v={ve.v_hat.round(5)} (3se={3*ve.se.round(5)}), "
          f"|D-diag(.25,.5)|_F={frob:.4f} < 0.02, slabs={rec.n_slabs}")


def test_criterion_02_degeneracy_directions():
    diag_model = EnvironmentModel(support=support_2d([(1, 0), (0, 1)]),
                                  kind="deterministic", probs=(0.5, 0.5))
    basis = degeneracy_directions(diag_model)
    assert basis.shape == (1, 2)
    u = basis[0]
    assert np.allclose(np.abs(u), 1 / np.sqrt(2))
    env = make_environment(diag_model, derive_env_seed(SEED, 3))
    path = simulate(env, (0, 0), 50_000, derive_key(SEED, 4))
    rec = detect_regenerations(path, margin=10)
    de = estimate_diffusion(rec, estimate_velocity(rec).v_hat)
    quad = abs(u @ de.D_hat @ u)
    assert quad < 1e-12
    assert degeneracy_directions(drift_model()).shape[0] == 0
    print(f"ACCEPTANCE 2: PASS - u^t D u = {quad:.2e} < 1e-12; "
          f"span model basis empty")


def test_criterion_03_half_line_green():
    """Ladder formula vs the closed form 2 min(s, t), the solve oracle vs
    the closed form, and Monte Carlo vs the ladder formula.

    The ladder formula's normalization constant is the single solve anchor
    g(1, 1) (`half_line_green` calibrates it once per table), so "ladder vs
    closed form" rests on the solve oracle at that one point; every other
    entry is the ladder formula's own.
    """
    walk = simple_walk()
    tables = build_ladder_tables(walk, m_max=64)
    max_err = 0.0
    for s in range(1, 51):
        for t in range(1, 51):
            ladder = half_line_green(walk, 0, s, t, tables)
            max_err = max(max_err, abs(ladder - 2 * min(s, t)))
    assert max_err < 1e-6
    # solve oracle equals the closed form too
    for s, t in [(1, 1), (7, 3), (50, 50)]:
        assert abs(half_line_green_solve(walk, 0, s, t) - 2 * min(s, t)) < 1e-6
    tail_tol = 0.01
    mc_report = []
    for i, (s, t) in enumerate([(1, 1), (2, 1), (1, 3), (2, 3)]):
        est, se = half_line_green_mc(walk, 0, s, t, reps=100_000,
                                     seed=derive_key(SEED, 5, i),
                                     tail_tol=tail_tol)
        ref = half_line_green(walk, 0, s, t, tables)
        assert abs(est - ref) <= 3 * se + tail_tol
        mc_report.append(f"g({s},{t})={est:.3f}±{se:.3f}")
    print(f"ACCEPTANCE 3: PASS - max|ladder-2min(s,t)|={max_err:.2e} < 1e-6 "
          f"(s,t<=50; constant from the solve anchor g(1,1)); "
          f"MC {', '.join(mc_report)} within 3se+{tail_tol}")


def test_criterion_04_first_passage_tail():
    walk = simple_walk()
    exact = first_passage_tail(walk, [2, 4], mode="exact")["tail"]
    assert exact[2] == 0.5
    assert exact[4] == 0.375
    mc = first_passage_tail(walk, [10_000], mode="monte-carlo",
                            reps=100_000, seed=derive_key(SEED, 6))
    val = np.sqrt(10_000) * mc["tail"][10_000]
    assert 0.66 <= val <= 0.94
    # the exact survival at the same a is the sharper oracle
    p_exact = first_passage_tail(walk, [10_000], mode="exact")["tail"][10_000]
    assert abs(mc["tail"][10_000] - p_exact) <= 4 * mc["se"][10_000]
    print(f"ACCEPTANCE 4: PASS - P(T>=2)=1/2, P(T>=4)=3/8 exact; "
          f"sqrt(a)P(T>=a)={val:.3f} in [0.66, 0.94]; MC P(T>=1e4)="
          f"{mc['tail'][10_000]:.5f}±{mc['se'][10_000]:.5f} vs exact "
          f"{p_exact:.5f} within 4se")


def test_criterion_05_quenched_mean_subdiffusive():
    t0 = time.time()
    model = dirichlet_drift_model()
    rep = check_hypotheses(model)
    assert rep.non_nestling[0]
    n_grid = [2 ** k for k in range(4, 11)]
    res = quenched_mean_variance(model, n_grid, n_env=200, m_walks=200,
                                 seed=derive_key(SEED, 7))
    fit = res["fit"]
    assert fit is not None
    assert fit.slope + 3 * fit.slope_se < 1.0
    elapsed = time.time() - t0
    assert elapsed < 600
    halfish = abs(fit.slope - 0.5) <= 3 * fit.slope_se
    print(f"ACCEPTANCE 5: PASS - 2alpha={fit.slope:.3f}±{fit.slope_se:.3f} "
          f"(+3se<1), consistent with n^(1/2) for d=2: {halfish}, "
          f"floored={res['floored']}, runtime={elapsed:.0f}s < 600s")


def test_criterion_06_intersection_sublinearity():
    model = dirichlet_drift_model()
    n_grid = [2 ** k for k in range(5, 13)]
    res = intersection_curve(model, n_grid, reps=1000,
                             seed=derive_key(SEED, 8))
    fit = res["fit"]
    assert fit.slope + 3 * fit.slope_se < 0.9
    print(f"ACCEPTANCE 6: PASS - intersection exponent "
          f"{fit.slope:.3f}±{fit.slope_se:.3f}, +3se < 0.9; "
          f"E|X cap X~| at n=4096: {res['mean'][-1]:.1f}")


def _coupling_sample(args):
    model, x0, seed = args
    out = coupled_triple(model, x0, seed=seed, margin=10)
    return int(not out.equal)


def test_criterion_07_coupling_decay():
    model = dirichlet_drift_model()
    reps = 10_000
    dists = [1, 2, 4, 8, 16]
    ps, ses = [], []
    ctx = get_context("fork")
    with ctx.Pool(N_WORKERS) as pool:
        for j, k in enumerate(dists):
            args = [(model, (0, k), derive_key(SEED, 9, j, i))
                    for i in range(reps)]
            neq = sum(pool.map(_coupling_sample, args, chunksize=250))
            p = neq / reps
            ps.append(p)
            ses.append(np.sqrt(max(p * (1 - p), 1e-12) / reps))
    for i in range(len(dists) - 1):
        assert ps[i + 1] <= ps[i] + 3 * np.hypot(ses[i], ses[i + 1])
    assert ps[0] > 0
    assert ps[-1] < ps[0] / 2
    pretty = ", ".join(f"|x0|={k}: {p:.4f}" for k, p in zip(dists, ps))
    print(f"ACCEPTANCE 7: PASS - P(Y1 != Ybar1) non-increasing ({pretty}); "
          f"p(16)={ps[-1]:.4f} < p(1)/2={ps[0]/2:.4f}")


def test_criterion_08_quenched_clt(dirichlet_estimates):
    model = dirichlet_estimates["model"]
    v, D = dirichlet_estimates["v"], dirichlet_estimates["D"]
    samples = []
    for e in range(5):
        env = make_environment(model, derive_env_seed(SEED, 10, e))
        samples.append(quenched_samples(env, 4096, 2000, v,
                                        seed=derive_key(SEED, 11, e)))
    rep = clt_check(samples, D, model.support, level=0.01)
    assert rep.n_passed >= 4
    assert rep.frob_to_ref.max() < 0.1
    assert rep.frob_pairwise_max < 0.1
    print(f"ACCEPTANCE 8: PASS - KS {rep.n_passed}/5 environments at 1%, "
          f"max|C-D|_F={rep.frob_to_ref.max():.3f} < 0.1, "
          f"pairwise={rep.frob_pairwise_max:.3f} < 0.1")


def test_criterion_09_ergodic_theorem(dirichlet_estimates):
    model = dirichlet_estimates["model"]
    psi = drift_projection(model, model.support.u_hat)
    finals_1e3, finals_1e5 = [], []
    for r in range(20):
        res = ergodic_average(model, psi, 100_000,
                              seed=derive_key(SEED, 12, r),
                              checkpoints=[1000, 100_000])
        finals_1e3.append(res["means"][1000])
        finals_1e5.append(res["means"][100_000])
    sd3 = np.std(finals_1e3, ddof=1)
    sd5 = np.std(finals_1e5, ddof=1)
    assert sd5 <= sd3 / 3
    term_mean = float(np.mean(finals_1e5))
    term_se = sd5 / np.sqrt(20)
    v_u = float(dirichlet_estimates["v"] @ model.support.u_hat)
    v_u_se = float(dirichlet_estimates["v_se"] @ np.abs(model.support.u_hat))
    combined = np.hypot(term_se, v_u_se)
    assert abs(term_mean - v_u) <= 4 * combined
    print(f"ACCEPTANCE 9: PASS - sd@1e5={sd5:.5f} <= sd@1e3/3={sd3/3:.5f}; "
          f"Cesaro drift {term_mean:.5f} vs v.u {v_u:.5f} "
          f"(4*combined se = {4*combined:.5f})")


def test_criterion_10_variation_proxy():
    ell_grid = [2, 4, 8, 16, 32, 64]
    res_mono = variation_proxy(degenerate_direction_model(), 1024, ell_grid,
                               reps=20_000, seed=derive_key(SEED, 13))
    assert np.all(res_mono["i_hat"] == 0.0)
    res_drift = variation_proxy(drift_model(), 1024, ell_grid,
                                reps=20_000, seed=derive_key(SEED, 14))
    assert np.all(res_drift["i_hat"] == 0.0)
    res = variation_proxy(backtracking_model(), 1024, ell_grid,
                          reps=100_000, seed=derive_key(SEED, 15))
    ihat = res["i_hat"]
    assert np.all(np.diff(ihat) <= 0)  # exact under common random numbers
    fit = fit_exponent(ell_grid, ihat)
    assert fit.slope <= -1.0
    print(f"ACCEPTANCE 10: PASS - monotone models identically 0; "
          f"I(n,ell) exactly non-increasing; log-log slope "
          f"{fit.slope:.2f} <= -1 (I from {ihat[0]:.3f} to {ihat[-1]:.2e})")


def test_criterion_11_bounded_centering(dirichlet_estimates):
    model = dirichlet_estimates["model"]
    n_grid = [2 ** k for k in range(4, 13)]
    res = centered_mean_bound(model, n_grid, dirichlet_estimates["v"],
                              reps=2000, seed=derive_key(SEED, 16))
    assert res["trend_pvalue"] >= 0.01
    print(f"ACCEPTANCE 11: PASS - trend z={res['trend_z']:.2f}, "
          f"p={res['trend_pvalue']:.3f} >= 0.01; "
          f"max |E(X_n).u - n v.u| = {res['max_abs_deviation']:.3f}")


def test_criterion_12_worker_determinism(tmp_path):
    from rwre.cli import run
    cfg = {
        "kind": "regen",
        "model": {"dimension": 2, "steps": [[1, 0], [0, 1], [0, -1]],
                  "u_hat": [1, 0], "law": "dirichlet",
                  "alpha": [4.0, 1.0, 1.0], "floor": 0.1},
        "params": {"n_paths": 8, "horizon": 5000, "margin": 10},
        "master_seed": 424242,
    }
    m1 = run(cfg, out_dir=tmp_path / "w1", workers=1)
    m8 = run(cfg, out_dir=tmp_path / "w8", workers=8)
    assert m1["outputs"] == m8["outputs"]
    raw1 = (tmp_path / "w1" / "slabs.csv").read_bytes()
    raw8 = (tmp_path / "w8" / "slabs.csv").read_bytes()
    assert raw1 == raw8
    s1 = (tmp_path / "w1" / "summary.json").read_bytes()
    s8 = (tmp_path / "w8" / "summary.json").read_bytes()
    assert s1 == s8
    print("ACCEPTANCE 12: PASS - workers 1 and 8 produce byte-identical "
          f"CSV/JSON outputs ({len(m1['outputs'])} files)")
