"""Batch experiment runner.

Declarative JSON configs drive the module operations; every run writes one
CSV per result table plus a JSON summary embedding the verbatim config,
and a manifest with content digests.  Replica seeds derive from the
master seed by the keyed splitting rule derive_key(master_seed,
<experiment opcode>, replica index, ...), with a distinct opcode per
experiment stage (the integer constants in the runner functions below);
parallel results are reduced in replica-index order, so outputs are
byte-identical for any worker count.

Exit codes: 0 ok, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .environment import (EnvironmentModel, StepSupport, check_hypotheses,
                          make_environment, derive_env_seed)
from .clt import clt_check, quenched_mean_variance, quenched_samples
from .envprocess import (constant_function, drift_projection, ergodic_average,
                         variation_proxy)
from .fitting import fit_exponent
from .green import (PerturbedChainSpec, SymmetricWalk1D, build_ladder_tables,
                    cube_exit_time, green_bound_experiment, half_line_green,
                    half_line_green_mc, half_line_green_solve,
                    product_symmetric_base)
from .pair import coupled_triple, first_joint_regeneration, intersection_curve
from .regen import (detect_regenerations, estimate_diffusion,
                    estimate_velocity, renewal_diagnostics)
from .rng import derive_key
from .walk import simulate

KINDS = ("regen", "clt", "quenched-mean", "intersections", "joint-regen",
         "coupling", "ergodic", "variation", "green", "green-bound",
         "exit-time", "check")

_MODEL_KINDS = ("regen", "clt", "quenched-mean", "intersections",
                "joint-regen", "coupling", "ergodic", "variation", "check")


# ---------------------------------------------------------------------------
# config parsing and validation


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _err(errors, field, msg):
    errors.append(f"{field}: {msg}")


def _check_int(errors, params, field, lo=None, default=None):
    v = params.get(field, default)
    if v is None:
        _err(errors, field, "required")
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        _err(errors, field, f"must be an integer (got {v!r})")
        return None
    if lo is not None and v < lo:
        _err(errors, field, f"must be >= {lo} (got {v})")
        return None
    return v


def _check_grid(errors, params, field, lo=1):
    g = params.get(field)
    if not isinstance(g, list) or not g:
        _err(errors, field, "must be a nonempty list of integers")
        return None
    for v in g:
        if not isinstance(v, int) or v < lo:
            _err(errors, field, f"entries must be integers >= {lo} (got {v!r})")
            return None
    return g


def build_model(mcfg: dict) -> EnvironmentModel:
    support = StepSupport(dimension=int(mcfg["dimension"]),
                          steps=tuple(tuple(z) for z in mcfg["steps"]),
                          u_hat=tuple(mcfg["u_hat"]))
    law = mcfg.get("law")
    if law == "deterministic":
        return EnvironmentModel(support=support, kind="deterministic",
                                probs=tuple(mcfg["probs"]))
    if law == "dirichlet":
        return EnvironmentModel(support=support, kind="dirichlet",
                                alpha=tuple(mcfg["alpha"]),
                                floor=float(mcfg.get("floor", 0.0)))
    if law == "mixture":
        atoms = tuple((tuple(a["probs"]), float(a["weight"]))
                      for a in mcfg["atoms"])
        return EnvironmentModel(support=support, kind="mixture", atoms=atoms)
    raise ValueError(f"model.law: unknown law {law!r} "
                     "(expected deterministic, dirichlet or mixture)")


def build_walk(wcfg: dict) -> SymmetricWalk1D:
    return SymmetricWalk1D(offsets=tuple(wcfg["offsets"]),
                           probs=tuple(wcfg["probs"]))


def build_chain_spec(ccfg: dict) -> PerturbedChainSpec:
    d = int(ccfg.get("dimension", 1))
    if "base_1d" in ccfg:
        offs, probs = product_symmetric_base(build_walk(ccfg["base_1d"]), d)
    else:
        offs = np.array(ccfg["base_offsets"], dtype=np.int64)
        probs = np.array(ccfg["base_probs"], dtype=float)
    p2 = ccfg.get("p2", "inf")
    p2 = np.inf if p2 in ("inf", None) else float(p2)
    kwargs = {}
    if "alt_offsets" in ccfg:
        kwargs["alt_offsets"] = np.array(ccfg["alt_offsets"], dtype=np.int64)
        kwargs["alt_probs"] = np.array(ccfg["alt_probs"], dtype=float)
    return PerturbedChainSpec(
        dimension=d, base_offsets=offs, base_probs=probs,
        p1=float(ccfg["p1"]), c_pert=float(ccfg.get("c_pert", 1.0)),
        p2=p2, c_h=float(ccfg.get("c_h", 1.0)),
        allow_low_p1=bool(ccfg.get("allow_low_p1", False)), **kwargs)


def validate_config(cfg: dict, kind=None) -> list:
    """Schema errors as 'field: reason' strings; empty list when valid."""
    errors: list = []
    if not isinstance(cfg, dict):
        _err(errors, "config",
             f"must be a JSON object (got {type(cfg).__name__})")
        return errors
    kind = kind or cfg.get("kind")
    if kind not in KINDS:
        _err(errors, "kind", f"unknown experiment kind {kind!r}; "
             f"valid kinds: {', '.join(KINDS)}")
        return errors
    seed = cfg.get("master_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        _err(errors, "master_seed", "must be an integer")
    workers = cfg.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        _err(errors, "workers", "must be a positive integer")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        _err(errors, "params", "must be an object")
        return errors

    if kind in _MODEL_KINDS:
        try:
            build_model(cfg.get("model") or {})
        except (KeyError, TypeError) as e:
            _err(errors, "model", f"missing or malformed field ({e})")
        except ValueError as e:
            _err(errors, "model", str(e))

    if kind == "regen":
        _check_int(errors, params, "n_paths", 1, 8)
        _check_int(errors, params, "horizon", 1, 100_000)
        _check_int(errors, params, "margin", 1, 20)
    elif kind == "clt":
        _check_int(errors, params, "n", 1, 4096)
        _check_int(errors, params, "m_walks", 2, 2000)
        _check_int(errors, params, "n_env", 2, 5)
        if "v" not in params or "D" not in params:
            _err(errors, "params.v/params.D",
                 "clt needs a velocity estimate v and diffusion matrix D; "
                 "run the regen experiment first or supply them inline")
    elif kind == "quenched-mean":
        _check_grid(errors, params, "n_grid")
        _check_int(errors, params, "n_env", 30, 200)
        _check_int(errors, params, "m_walks", 2, 200)
    elif kind == "intersections":
        _check_grid(errors, params, "n_grid", lo=2)
        _check_int(errors, params, "reps", 2, 1000)
    elif kind == "joint-regen":
        if not isinstance(params.get("x0"), list):
            _err(errors, "params.x0", "required start offset in V_d")
        _check_int(errors, params, "reps", 1, 200)
        _check_int(errors, params, "margin", 1, 20)
    elif kind == "coupling":
        if not isinstance(params.get("x0_list"), list) or not params.get("x0_list"):
            _err(errors, "params.x0_list", "required list of V_d starts")
        _check_int(errors, params, "reps", 1, 1000)
        _check_int(errors, params, "margin", 1, 12)
    elif kind == "ergodic":
        _check_int(errors, params, "n", 1, 100_000)
        _check_int(errors, params, "n_runs", 1, 20)
        psi = params.get("psi", {"type": "drift_projection"})
        if not isinstance(psi, dict):
            _err(errors, "params.psi", "must be an object")
        elif psi.get("type", "drift_projection") not in ("drift_projection",
                                                         "constant"):
            _err(errors, "params.psi.type",
                 "must be drift_projection or constant")
    elif kind == "variation":
        _check_int(errors, params, "n", 1, 1024)
        _check_int(errors, params, "reps", 1000, 10_000)
        _check_grid(errors, params, "ell_grid")
    elif kind == "green":
        try:
            build_walk(params.get("walk") or {})
        except (KeyError, TypeError) as e:
            _err(errors, "params.walk", f"missing or malformed field ({e})")
        except ValueError as e:
            _err(errors, "params.walk", str(e))
        pts = params.get("points")
        if not isinstance(pts, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in (pts or [])):
            _err(errors, "params.points", "must be a list of [s, t] pairs")
        _check_int(errors, params, "reps", 1, 10_000)
    elif kind in ("green-bound", "exit-time"):
        try:
            chain = params.get("chain") or {}
            if not isinstance(chain, dict):
                raise TypeError("must be an object")
            build_chain_spec(chain)
        except (KeyError, TypeError) as e:
            _err(errors, "params.chain", f"missing or malformed field ({e})")
        except ValueError as e:
            _err(errors, "params.chain", str(e))
        if kind == "green-bound":
            _check_grid(errors, params, "n_grid")
        else:
            _check_grid(errors, params, "r_grid", lo=0)
        _check_int(errors, params, "reps", 1, 256)
    return errors


# ---------------------------------------------------------------------------
# deterministic parallel map


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)


# ---------------------------------------------------------------------------
# per-kind runners (module level so tasks pickle under multiprocessing)


def _regen_path_task(args, model=None, horizon=0, margin=0, tail_cut=None):
    seed, i = args
    env = make_environment(model, derive_env_seed(seed, 101, i))
    path = simulate(env, np.zeros(model.support.dimension, dtype=np.int64),
                    horizon, derive_key(seed, 102, i))
    rec = detect_regenerations(path, margin=margin, tail_cut=tail_cut)
    return rec, path.levels


def _run_regen(model, params, seed, workers):
    n_paths = params.get("n_paths", 8)
    horizon = params.get("horizon", 100_000)
    margin = params.get("margin", 20)
    tail_cut = params.get("tail_cut")
    p = float(params.get("p", 2.0))
    n_grid = params.get("n_grid", [4, 16, 64, 256])
    task = partial(_regen_path_task, model=model, horizon=horizon,
                   margin=margin, tail_cut=tail_cut)
    results = _pmap(task, [(seed, i) for i in range(n_paths)], workers)
    records = [r for r, _ in results]
    levels = [lv for _, lv in results]
    ve = estimate_velocity(records)
    de = estimate_diffusion(records, ve.v_hat)
    diag = renewal_diagnostics(records, p=p, n_grid=n_grid, paths=levels)
    rows = []
    for pi, rec in enumerate(records):
        for k in range(rec.n_slabs):
            rows.append((pi, k + 1, int(rec.slab_dtau[k]),
                         *rec.slab_dx[k].tolist(), 1))
    header = ["path", "k", "dtau"] + \
        [f"dx_{j+1}" for j in range(model.support.dimension)] + ["confirmed"]
    summary = {
        "v_hat": ve.v_hat, "v_se": ve.se, "n_slabs": ve.n_slabs,
        "D_hat": de.D_hat,
        "unconfirmed": int(sum(r.n_unconfirmed for r in records)),
        "diagnostics": diag,
        "hypotheses": check_hypotheses(model).__dict__,
    }
    return {"slabs": (header, rows)}, summary


def _run_clt(model, params, seed, workers):
    n = params.get("n", 4096)
    m_walks = params.get("m_walks", 2000)
    n_env = params.get("n_env", 5)
    v = np.asarray(params["v"], dtype=float)
    D = np.asarray(params["D"], dtype=float)
    samples = []
    for e in range(n_env):
        env = make_environment(model, derive_env_seed(seed, 201, e))
        samples.append(quenched_samples(env, n, m_walks, v,
                                        seed=derive_key(seed, 202, e)))
    report = clt_check(samples, D, model.support)
    rows = []
    d = model.support.dimension
    for e in range(n_env):
        C = report.per_env_cov[e]
        for j in range(len(report.directions)):
            rows.append((e, j, report.ks_pvalues[e, j],
                         int(report.degenerate_ok[e, j]),
                         *[C[a, b] for a in range(d) for b in range(d)]))
    header = ["env", "direction", "ks_pvalue", "degenerate_ok"] + \
        [f"cov_{a+1}{b+1}" for a in range(d) for b in range(d)]
    summary = {
        "directions": report.directions,
        "n_passed": report.n_passed, "n_env": n_env,
        "flagged": report.flagged,
        "frob_to_ref": report.frob_to_ref,
        "frob_pairwise_max": report.frob_pairwise_max,
    }
    return {"clt_envs": (header, rows)}, summary


def _run_quenched_mean(model, params, seed, workers):
    res = quenched_mean_variance(
        model, params["n_grid"], params.get("n_env", 200),
        params.get("m_walks", 200),
        seed=seed, map_fn=partial(_pmap, workers=workers), blocks=workers)
    fit = res["fit"]
    rows = [(n, *corrected.tolist(), trace, se)
            for n, corrected, trace, se in res["rows"]]
    header = ["n"] + [f"var_corrected_{j+1}"
                      for j in range(model.support.dimension)] + ["trace", "se"]
    summary = {"fit_slope": fit.slope if fit else None,
               "fit_slope_se": fit.slope_se if fit else None,
               "fit_intercept": fit.intercept if fit else None,
               "floored": res["floored"],
               "hypotheses": check_hypotheses(model).__dict__}
    return {"quenched_mean": (header, rows)}, summary


def _run_intersections(model, params, seed, workers):
    res = intersection_curve(model, params["n_grid"], params["reps"],
                             seed=derive_key(seed, 301))
    rows = list(zip(res["n_grid"], res["mean"].tolist(), res["se"].tolist()))
    summary = {"fit_slope": res["fit"].slope,
               "fit_slope_se": res["fit"].slope_se}
    return {"intersections": (["n", "mean", "se"], rows)}, summary


def _joint_regen_task(args, model=None, x0=None, margin=0, horizon=0):
    seed, i = args
    env = make_environment(model, derive_env_seed(seed, 401, i))
    d = model.support.dimension
    rec = first_joint_regeneration(env, np.zeros(d, dtype=np.int64),
                                   np.asarray(x0, dtype=np.int64),
                                   margin=margin, horizon=horizon,
                                   seed=derive_key(seed, 402, i))
    return rec


def _run_joint_regen(model, params, seed, workers):
    x0 = params["x0"]
    reps = params.get("reps", 200)
    margin = params.get("margin", 20)
    horizon = params.get("horizon", 20_000)
    m_grid = params.get("m_grid", [4, 8, 16, 32, 64])
    task = partial(_joint_regen_task, model=model, x0=x0, margin=margin,
                   horizon=horizon)
    recs = _pmap(task, [(seed, i) for i in range(reps)], workers)
    rows = []
    for i, rec in enumerate(recs):
        rows.append((i, rec.Lambda if rec.Lambda is not None else "",
                     rec.mu1 if rec.mu1 is not None else "",
                     rec.mu1_tilde if rec.mu1_tilde is not None else "",
                     int(rec.confirmed)))
    lam = np.array([r.Lambda for r in recs if r.confirmed], dtype=float)
    tail = {int(m): float((lam > m).mean()) if lam.size else None
            for m in m_grid}
    summary = {"confirmed_fraction": sum(r.confirmed for r in recs) / reps,
               "mean_Lambda": float(lam.mean()) if lam.size else None,
               "tail_P_Lambda_gt": tail}
    return {"joint_regen": (["rep", "Lambda", "mu1", "mu1_tilde", "confirmed"],
                            rows)}, summary


def _coupling_task(args, model=None, margin=0, horizon=0):
    seed, j, x0, i = args
    out = coupled_triple(model, x0, seed=derive_key(seed, 501, j, i),
                         margin=margin, horizon=horizon)
    return out


def _run_coupling(model, params, seed, workers):
    x0_list = [tuple(x) for x in params["x0_list"]]
    reps = params.get("reps", 1000)
    margin = params.get("margin", 12)
    horizon = params.get("horizon", 20_000)
    d = model.support.dimension
    rows = []
    agg = []
    for j, x0 in enumerate(x0_list):
        task = partial(_coupling_task, model=model, margin=margin,
                       horizon=horizon)
        outs = _pmap(task, [(seed, j, x0, i) for i in range(reps)], workers)
        for out in outs:
            rows.append((*x0, *out.Y1.tolist(), *out.Ybar1.tolist(),
                         int(out.equal), int(out.hit_X_path), out.n_triples))
        p = float(np.mean([not o.equal for o in outs]))
        se = float(np.sqrt(max(p * (1 - p), 1e-12) / reps))
        agg.append({"x0": list(x0), "p_neq": p, "se": se})
    header = [f"x0_{j+1}" for j in range(d)] + \
        [f"y1_{j+1}" for j in range(d)] + \
        [f"ybar1_{j+1}" for j in range(d)] + ["equal", "hit_x_path", "n_triples"]
    ps = [a["p_neq"] for a in agg]
    ses = [a["se"] for a in agg]
    mono = all(ps[i + 1] <= ps[i] + 3 * np.hypot(ses[i], ses[i + 1])
               for i in range(len(ps) - 1))
    summary = {"per_start": agg, "monotone_within_3se": bool(mono)}
    return {"coupling": (header, rows)}, summary


def _run_ergodic(model, params, seed, workers):
    n = params.get("n", 100_000)
    n_runs = params.get("n_runs", 20)
    psi_cfg = params.get("psi", {"type": "drift_projection"})
    if psi_cfg.get("type", "drift_projection") == "drift_projection":
        direction = psi_cfg.get("direction", list(model.support.u_hat))
        psi = drift_projection(model, direction)
    else:
        psi = constant_function(float(psi_cfg.get("value", 1.0)),
                                model.support.dimension)
    checkpoints = params.get("checkpoints") or [max(1, n // 100), n]
    rows = []
    finals = {c: [] for c in checkpoints}
    for r in range(n_runs):
        res = ergodic_average(model, psi, n, seed=derive_key(seed, 601, r),
                              checkpoints=checkpoints)
        for c in res["checkpoints"]:
            rows.append((r, c, res["means"][c]))
            finals[c].append(res["means"][c])
    sds = {c: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
           for c, v in finals.items()}
    last = checkpoints[-1]
    summary = {"across_run_sd": sds,
               "terminal_mean": float(np.mean(finals[last])),
               "terminal_se": sds[last] / np.sqrt(max(n_runs, 1))}
    return {"ergodic": (["run", "checkpoint", "cesaro_mean"], rows)}, summary


def _run_variation(model, params, seed, workers):
    res = variation_proxy(model, params.get("n", 1024), params["ell_grid"],
                          params.get("reps", 10_000),
                          seed=derive_key(seed, 701))
    rows = res["rows"]
    ihat = res["i_hat"]
    mono = bool(np.all(np.diff(ihat) <= 1e-15))
    fit = None
    if (ihat > 0).sum() >= 2:
        f = fit_exponent(res["ell_grid"], ihat)
        fit = {"slope": f.slope, "slope_se": f.slope_se}
    summary = {"monotone_exact": mono, "all_zero": bool((ihat == 0).all()),
               "loglog_fit": fit}
    return {"variation": (["ell", "i_hat", "ci_lo", "ci_hi"], rows)}, summary


def _run_green(params, seed, workers):
    walk = build_walk(params["walk"])
    r0 = params.get("r0", 0)
    reps = params.get("reps", 10_000)
    with_mc = params.get("mc", True)
    tables = build_ladder_tables(walk)
    rows = []
    max_err = 0.0
    for i, (s, t) in enumerate(params["points"]):
        ladder = half_line_green(walk, r0, s, t, tables)
        solve = half_line_green_solve(walk, r0, s, t)
        max_err = max(max_err, abs(ladder - solve))
        if with_mc:
            mc, se = half_line_green_mc(walk, r0, s, t, reps=reps,
                                        seed=derive_key(seed, 801, i))
        else:
            mc, se = "", ""
        rows.append((s, t, ladder, solve, mc, se))
    summary = {"max_ladder_vs_solve": max_err,
               "ladder_pmf": {str(k): v for k, v in tables.ladder_pmf.items()},
               "truncation_mass": tables.truncation_mass,
               "norm_constant": tables.norm_constant}
    vrows = [(m, float(v)) for m, v in enumerate(tables.v_table)]
    return {"green": (["s", "t", "ladder", "solve", "mc", "mc_se"], rows),
            "ladder_table": (["m", "v_m"], vrows)}, summary


def _run_green_bound(params, seed, workers):
    spec = build_chain_spec(params["chain"])
    res = green_bound_experiment(spec, params["n_grid"],
                                 reps=params.get("reps", 256),
                                 seed=derive_key(seed, 802))
    rows = list(zip(res["n_grid"], res["curve"].tolist()))
    summary = {"fit_slope": res["fit"].slope,
               "fit_slope_se": res["fit"].slope_se,
               "theorem_exponent": res["theorem_exponent"],
               "exploratory": res["exploratory"]}
    return {"green_bound": (["n", "sum_h_mean"], rows)}, summary


def _run_exit_time(params, seed, workers):
    spec = build_chain_spec(params["chain"])
    res = cube_exit_time(spec, params["r_grid"], reps=params.get("reps", 256),
                         seed=derive_key(seed, 803))
    rows = list(zip(res["r_grid"], res["mean_exit"]))
    summary = {"fit_slope": res["fit"].slope if res["fit"] else None,
               "fit_slope_se": res["fit"].slope_se if res["fit"] else None,
               "truncated": {str(k): v for k, v in res["truncated"].items()}}
    return {"exit_time": (["r", "mean_exit"], rows)}, summary


def _run_check(model, params, seed, workers):
    rep = check_hypotheses(model)
    return {}, {"hypotheses": rep.__dict__}


# ---------------------------------------------------------------------------
# output plumbing


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return repr(v) if (np.isnan(v) or np.isinf(v)) else v
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(cfg: dict, kind=None, out_dir=None, workers=None, seed=None) -> dict:
    """Execute one experiment; returns the manifest dict."""
    kind = kind or cfg.get("kind")
    errors = validate_config({**cfg, "kind": kind}, kind)
    if errors:
        raise ValueError("; ".join(errors))
    seed = seed if seed is not None else cfg.get("master_seed", 0)
    workers = workers if workers is not None else cfg.get("workers", 1)
    out_dir = Path(out_dir or cfg.get("out_dir") or f"runs/{kind}")
    params = cfg.get("params", {})
    t0 = time.time()
    if kind in _MODEL_KINDS:
        model = build_model(cfg["model"])
        runner = {
            "regen": _run_regen, "clt": _run_clt,
            "quenched-mean": _run_quenched_mean,
            "intersections": _run_intersections,
            "joint-regen": _run_joint_regen, "coupling": _run_coupling,
            "ergodic": _run_ergodic, "variation": _run_variation,
            "check": _run_check,
        }[kind]
        tables, summary = runner(model, params, seed, workers)
    else:
        runner = {"green": _run_green, "green-bound": _run_green_bound,
                  "exit-time": _run_exit_time}[kind]
        tables, summary = runner(params, seed, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, (header, rows) in tables.items():
        p = out_dir / f"{name}.csv"
        _write_csv(p, header, rows)
        digests[p.name] = _sha256(p)
    summary_doc = {"kind": kind, "config": cfg,
                   "master_seed": seed, "results": _to_jsonable(summary)}
    sp = out_dir / "summary.json"
    sp.write_text(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n",
                  encoding="utf-8")
    digests[sp.name] = _sha256(sp)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "code_version": __version__,
        "wall_time_s": time.time() - t0,
        "outputs": digests,
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwre",
        description="Random-walk-in-random-environment simulation laboratory")
    sub = parser.add_subparsers(dest="command")
    pv = sub.add_parser("validate", help="validate a config file")
    pv.add_argument("config")
    for kind in KINDS:
        pk = sub.add_parser(kind, help=f"run the {kind} experiment")
        pk.add_argument("--config", required=True)
        pk.add_argument("--seed", type=int, default=None)
        pk.add_argument("--workers", type=int, default=None)
        pk.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot parse {args.config}: {e}", file=sys.stderr)
            return 1
        errors = validate_config(cfg)
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot parse {args.config}: {e}", file=sys.stderr)
        return 1
    errors = validate_config(cfg, args.command)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        manifest = run(cfg, kind=args.command, out_dir=args.out,
                       workers=args.workers, seed=args.seed)
    except Exception as e:  # runtime failures map to exit code 2
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
