"""Batch experiment runner.

Declarative JSON configs drive the module operations; every run writes one
CSV per result table plus a JSON summary embedding the verbatim config,
and a manifest with content digests.  Replica seeds derive from the
master seed by the keyed splitting rule derive_key(master_seed,
<experiment opcode>, replica index, ...), with a distinct opcode per
experiment stage (the integer constants in the runner functions below).
The worker count reaches the library's one parallel map, rng._pmap, which
opens at most one fork pool per run and returns results in replica-index
order, so outputs are byte-identical for any worker count.  Each kind's `params` fields, checks
and defaults are one table, KIND_TABLE; the runners read only its output
and lay out the statistics of library calls the acceptance suite also
tests, except regen, joint-regen and green, which reduce replicas here.
Exit codes: 0 ok, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path
from reprlib import repr as _show

import numpy as np
import scipy

from . import __version__
from .environment import (EnvironmentModel, StepSupport, check_hypotheses,
                          env_key_range, make_environment, derive_env_seed)
from .clt import clt_check, quenched_mean_variance, quenched_samples
from .envprocess import ergodic_checkpoints, ergodic_runs, variation_proxy
from .fitting import check_grid, integer, nested, real, refusal
from .green import (PerturbedChainSpec, SymmetricWalk1D, build_ladder_tables,
                    check_exit_radii, check_ladder_size, check_solve_size,
                    cube_exit_time, green_bound_experiment, half_line_green,
                    half_line_green_mc, half_line_green_solve,
                    product_symmetric_base)
from .pair import (_in_V, coupling_decay, first_joint_regeneration,
                   intersection_curve)
from .regen import (detect_regenerations, estimate_diffusion,
                    estimate_velocity, renewal_diagnostics)
from .rng import TAG_ENV, _pmap, derive_key, derive_key_range
from .walk import simulate

# ---------------------------------------------------------------------------
# config checks: each returns the parsed value or raises ValueError


class _Required(str):
    """Default of a field that must be given; the text is the error."""


_REQUIRED = _Required("required")
_FROM_REGEN = _Required("required: clt needs v and D as estimated by a "
                        "regen run; run it first or supply them inline")


class _Rule(str):
    """Default a run works out; the text states it, the check gets None."""


def _whole(v, name=""):
    """An int, not a bool, of any size (derive_key reads a seed mod 2**64)."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise refusal("an integer", v, name)
    return v


def _typed(kind, what):
    def check(v, name=""):
        if not isinstance(v, kind):
            raise refusal(what, v, name)
        return v
    return check


_flag = _typed(bool, "true or false")
_object = _typed(dict, "an object")
_text = _typed(str, "a string")


def _known(v, fields) -> dict:
    """v, an object whose keys are all among fields."""
    unknown = [k for k in _object(v) if k not in fields]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r} "
                         f"(known: {', '.join(fields)})")
    return v


def build_model(mcfg) -> EnvironmentModel:
    m = _known(mcfg, ("dimension", "steps", "u_hat", "law", "probs", "alpha",
                      "floor", "atoms"))
    if m.get("law") not in ("deterministic", "dirichlet", "mixture"):
        raise refusal("deterministic, dirichlet or mixture", m.get("law"),
                      "law")
    atoms = m.get("atoms")
    if atoms is not None:
        atoms = [_known(a, ("probs", "weight")) for a in atoms]
        atoms = tuple((a["probs"], a["weight"]) for a in atoms)
    return EnvironmentModel(
        support=StepSupport(m["dimension"], m["steps"], m["u_hat"]),
        kind=m["law"], probs=m.get("probs"), alpha=m.get("alpha"),
        floor=m.get("floor", 0.0), atoms=atoms)


def build_walk(wcfg) -> SymmetricWalk1D:
    w = _known(wcfg, ("offsets", "probs"))
    return SymmetricWalk1D(w["offsets"], w["probs"])


def build_chain_spec(ccfg) -> PerturbedChainSpec:
    """PerturbedChainSpec(**ccfg), its base the product of the walk base_1d."""
    c = dict(_known(ccfg, ("dimension", "base_1d", "p1", "p2", "c_pert",
                           "alt_offsets", "alt_probs", "allow_low_p1")))
    if c.get("p2", "inf") in ("inf", None):
        c["p2"] = np.inf
    c["base_offsets"], c["base_probs"] = product_symmetric_base(
        build_walk(c.pop("base_1d")), c.setdefault("dimension", 1))
    return PerturbedChainSpec(**c)


def _int(lo=None):
    return lambda v, p, model: integer(v, lo=lo)


def _plain(check):
    return lambda v, p, model: check(v)


def _nested(item, *shape):
    """fitting.nested check; a shape entry "d" is the model's dimension."""
    return lambda v, p, model: nested(v, item, [
        model.support.dimension if n == "d" else n for n in shape])


def _x0(many=False):
    """A start, or with many a list of them, read by pair._in_V."""
    return lambda v, p, model: _in_V(model.support, v, "", many)


def _grid(lo, least=1):
    """A list of integers that fitting.check_grid reads with lo and least."""
    return lambda v, p, model: check_grid(v, lo, "", least)


def _tail_cut(v, p, model):
    if v is not None and integer(v) < p.get("margin", 1):
        raise refusal(f">= margin = {p.get('margin', 1)}", v)
    return v


def _checkpoints(v, p, model):
    """A list of integers, or None, read by envprocess.ergodic_checkpoints
    once n is valid."""
    cps = None if v is None else nested(v, integer, [None])
    return ergodic_checkpoints(cps, p["n"]) if "n" in p else cps


def _mc_reps(v, p, model):
    """Replicas of the green Monte Carlo: its standard error needs two."""
    if p.get("mc") and integer(v) < 2:
        raise refusal(">= 2 when mc is true", v)
    return integer(v, lo=1)


def _exit_radii(v, p, model):
    return check_exit_radii(_grid(0)(v, p, model))


def _green_walk(v, p, model):
    walk = build_walk(v)
    check_ladder_size(walk)
    return walk


def _points(v, p, model):
    pts = nested(v, integer, [None, 2])
    for pt in pts:
        if "r0" in p and min(pt) <= p["r0"]:
            raise refusal(f"[s, t] pairs above r0 = {p['r0']}", pt)
        if "r0" in p and "walk" in p:
            check_solve_size(p["walk"], p["r0"], *pt)
    return pts


# ---------------------------------------------------------------------------
# runners take (model, parsed params, seed, workers); tasks are module
# level so that they pickle for the library's parallel map, rng._pmap


def _fit_fields(fit) -> dict:
    """The fit_slope and fit_slope_se summary fields, None for no fit."""
    return {"fit_slope": fit.slope if fit else None,
            "fit_slope_se": fit.slope_se if fit else None}


def _regen_path_task(i, model, seed, horizon, margin, tail_cut):
    env = make_environment(model, derive_env_seed(seed, 101, i))
    path = simulate(env, np.zeros(model.support.dimension, dtype=np.int64),
                    horizon, derive_key(seed, 102, i))
    return (detect_regenerations(path, margin=margin, tail_cut=tail_cut),
            path.levels)


def _run_regen(model, params, seed, workers):
    task = partial(_regen_path_task, model=model, seed=seed,
                   horizon=params["horizon"], margin=params["margin"],
                   tail_cut=params["tail_cut"])
    results = _pmap(task, range(params["n_paths"]), workers)
    records, levels = map(list, zip(*results))
    ve = estimate_velocity(records)
    de = estimate_diffusion(records, ve.v_hat)
    diag = renewal_diagnostics(records, p=params["p"],
                               n_grid=params["n_grid"], paths=levels)
    rows = [(pi, *row) for pi, rec in enumerate(records)
            for row in rec.slab_csv_rows()]
    header = ["path", "k", "dtau"] + \
        [f"dx_{j+1}" for j in range(model.support.dimension)] + ["confirmed"]
    summary = {"v_hat": ve.v_hat, "v_se": ve.se, "n_slabs": ve.n_slabs,
               "D_hat": de.D_hat, "diagnostics": diag,
               "unconfirmed": int(sum(r.n_unconfirmed for r in records)),
               "hypotheses": check_hypotheses(model).__dict__}
    return {"slabs": (header, rows)}, summary


def _run_clt(model, params, seed, workers):
    n_env = params["n_env"]
    # environment e is make_environment(model, derive_env_seed(seed, 201,
    # e)), and its walks are seeded from derive_key(seed, 202, e)
    samples = quenched_samples(
        model, env_key_range(seed, TAG_ENV, 201, n=n_env), params["n"],
        params["m_walks"], params["v"], derive_key_range(seed, 202, n=n_env),
        workers=workers)
    report = clt_check(samples, params["D"], model.support)
    rows = [(e, j, float(report.ks_pvalues[e, j]),
             int(report.degenerate_ok[e, j]),
             *report.per_env_cov[e].ravel().tolist())
            for e in range(n_env) for j in range(len(report.directions))]
    d = model.support.dimension
    header = ["env", "direction", "ks_pvalue", "degenerate_ok"] + \
        [f"cov_{a+1}{b+1}" for a in range(d) for b in range(d)]
    summary = {"directions": report.directions, "n_passed": report.n_passed,
               "n_env": n_env, "flagged": report.flagged,
               "frob_to_ref": report.frob_to_ref,
               "frob_pairwise_max": report.frob_pairwise_max}
    return {"clt_envs": (header, rows)}, summary


def _run_quenched_mean(model, params, seed, workers):
    res = quenched_mean_variance(
        model, params["n_grid"], params["n_env"], params["m_walks"],
        seed=seed, workers=workers)
    fit = res["fit"]
    rows = [(n, *corrected.tolist(), trace, se)
            for n, corrected, trace, se in res["rows"]]
    header = ["n"] + [f"var_corrected_{j+1}"
                      for j in range(model.support.dimension)] + ["trace", "se"]
    summary = {**_fit_fields(fit),
               "fit_intercept": fit.intercept if fit else None,
               "floored": res["floored"],
               "hypotheses": check_hypotheses(model).__dict__}
    return {"quenched_mean": (header, rows)}, summary


def _run_intersections(model, params, seed, workers):
    res = intersection_curve(model, params["n_grid"], params["reps"],
                             seed=derive_key(seed, 301))
    rows = list(zip(res["n_grid"], res["mean"].tolist(), res["se"].tolist()))
    return ({"intersections": (["n", "mean", "se"], rows)},
            _fit_fields(res["fit"]))


def _joint_regen_task(i, model, seed, x0, margin, horizon):
    env = make_environment(model, derive_env_seed(seed, 401, i))
    return first_joint_regeneration(
        env, (0,) * model.support.dimension, x0, margin=margin,
        horizon=horizon, seed=derive_key(seed, 402, i))


# the levels m of joint-regen's tail P{Lambda > m}
_M_GRID = (4, 8, 16, 32, 64)


def _run_joint_regen(model, params, seed, workers):
    reps = params["reps"]
    task = partial(_joint_regen_task, model=model, seed=seed, x0=params["x0"],
                   margin=params["margin"], horizon=params["horizon"])
    recs = _pmap(task, range(reps), workers)
    rows = [(i, *("" if x is None else x
                  for x in (rec.Lambda, rec.mu1, rec.mu1_tilde)),
             int(rec.confirmed)) for i, rec in enumerate(recs)]
    lam = np.array([r.Lambda for r in recs if r.confirmed], dtype=float)
    tail = {int(m): float((lam > m).mean()) if lam.size else None
            for m in _M_GRID}
    summary = {"confirmed_fraction": sum(r.confirmed for r in recs) / reps,
               "mean_Lambda": float(lam.mean()) if lam.size else None,
               "tail_P_Lambda_gt": tail}
    return {"joint_regen": (["rep", "Lambda", "mu1", "mu1_tilde", "confirmed"],
                            rows)}, summary


def _run_coupling(model, params, seed, workers):
    # replica i of start j has the seed derive_key(seed, 501, j, i)
    res = coupling_decay(model, params["x0_list"], params["reps"],
                         derive_key(seed, 501), params["margin"],
                         params["horizon"], workers=workers)
    rows = [(*x0, *out.Y1.tolist(), *out.Ybar1.tolist(), int(out.equal),
             int(out.hit_X_path), out.n_triples)
            for x0, outs in zip(params["x0_list"], res["outcomes"])
            for out in outs]
    header = [f"{c}_{j+1}" for c in ("x0", "y1", "ybar1")
              for j in range(model.support.dimension)] + \
        ["equal", "hit_x_path", "n_triples"]
    summary = {"per_start": [{"x0": list(x0), "p_neq": p, "se": se}
                             for x0, p, se in zip(params["x0_list"],
                                                  res["p_neq"], res["se"])],
               "monotone_within_3se": res["monotone_within_3se"]}
    return {"coupling": (header, rows)}, summary


def _run_ergodic(model, params, seed, workers):
    # run r has the seed derive_key(seed, 601, r)
    res = ergodic_runs(model, params["n"], params["n_runs"],
                       derive_key(seed, 601), params["checkpoints"],
                       workers=workers)
    rows = [(r, c, res["means"][c][r]) for r in range(params["n_runs"])
            for c in res["checkpoints"]]
    summary = {k: res[k] for k in ("across_run_sd", "terminal_mean",
                                   "terminal_se")}
    return {"ergodic": (["run", "checkpoint", "cesaro_mean"], rows)}, summary


def _run_variation(model, params, seed, workers):
    res = variation_proxy(model, params["n"], params["ell_grid"],
                          params["reps"], seed=derive_key(seed, 701))
    fit = res["fit"]
    summary = {"monotone_exact": res["monotone"],
               "all_zero": bool((res["i_hat"] == 0).all()),
               "loglog_fit": {"slope": fit.slope, "slope_se": fit.slope_se}
               if fit else None}
    rows = res["rows"]
    return {"variation": (["ell", "i_hat", "ci_lo", "ci_hi"], rows)}, summary


def _run_green(model, params, seed, workers):
    walk, r0 = params["walk"], params["r0"]
    tables = build_ladder_tables(walk)
    rows, max_err = [], 0.0
    for i, (s, t) in enumerate(params["points"]):
        ladder = half_line_green(walk, r0, s, t, tables)
        solve = half_line_green_solve(walk, r0, s, t)
        max_err = max(max_err, abs(ladder - solve))
        if params["mc"]:
            mc, se = half_line_green_mc(walk, r0, s, t, reps=params["reps"],
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


def _run_green_bound(model, params, seed, workers):
    res = green_bound_experiment(params["chain"], params["n_grid"],
                                 params["reps"], derive_key(seed, 802))
    rows = list(zip(res["n_grid"], res["curve"].tolist()))
    summary = {**_fit_fields(res["fit"]),
               "theorem_exponent": res["theorem_exponent"],
               "exploratory": res["exploratory"]}
    return {"green_bound": (["n", "sum_h_mean"], rows)}, summary


def _run_exit_time(model, params, seed, workers):
    res = cube_exit_time(params["chain"], params["r_grid"],
                         reps=params["reps"], seed=derive_key(seed, 803))
    rows = list(zip(res["r_grid"], res["mean_exit"]))
    summary = {**_fit_fields(res["fit"]),
               "truncated": {str(k): v for k, v in res["truncated"].items()}}
    return {"exit_time": (["r", "mean_exit"], rows)}, summary


def _run_check(model, params, seed, workers):
    return {}, {"hypotheses": check_hypotheses(model).__dict__}


# ---------------------------------------------------------------------------
# kind -> (runner, needs a model, {params field: (check, default, a _Rule
# or _REQUIRED)}); check(value, params parsed so far, model) returns the
# parsed value.  Fields, defaults included, are checked in table order.

KIND_TABLE = {
    "regen": (_run_regen, True, {
        "n_paths": (_int(1), 8), "horizon": (_int(1), 100_000),
        "margin": (_int(1), 20), "tail_cut": (_tail_cut, _Rule("margin")),
        "p": (_plain(partial(real, above=0)), 2.0),
        "n_grid": (_grid(1), [4, 16, 64, 256])}),
    "clt": (_run_clt, True, {
        "n": (_int(1), 4096), "m_walks": (_int(2), 2000),
        "n_env": (_int(2), 5),
        "v": (_nested(real, "d"), _FROM_REGEN),
        "D": (_nested(real, "d", "d"), _FROM_REGEN)}),
    "quenched-mean": (_run_quenched_mean, True, {
        "n_grid": (_grid(1), _REQUIRED), "n_env": (_int(30), 200),
        "m_walks": (_int(2), 200)}),
    "intersections": (_run_intersections, True, {
        "n_grid": (_grid(2, least=2), _REQUIRED), "reps": (_int(2), 1000)}),
    "joint-regen": (_run_joint_regen, True, {
        "x0": (_x0(), _REQUIRED), "reps": (_int(1), 200),
        "margin": (_int(1), 20), "horizon": (_int(1), 20_000)}),
    "coupling": (_run_coupling, True, {
        "x0_list": (_x0(many=True), _REQUIRED),
        "reps": (_int(1), 1000), "margin": (_int(1), 12),
        "horizon": (_int(1), 20_000)}),
    "ergodic": (_run_ergodic, True, {
        "n": (_int(1), 100_000), "n_runs": (_int(1), 20),
        "checkpoints": (_checkpoints, _Rule("[max(1, n // 100), n]"))}),
    "variation": (_run_variation, True, {
        "n": (_int(1), 1024), "ell_grid": (_grid(1), _REQUIRED),
        "reps": (_int(1000), 10_000)}),
    "green": (_run_green, False, {
        "walk": (_green_walk, _REQUIRED), "r0": (_int(), 0),
        "points": (_points, _REQUIRED), "mc": (_plain(_flag), True),
        "reps": (_mc_reps, 10_000)}),
    "green-bound": (_run_green_bound, False, {
        "chain": (_plain(build_chain_spec), _REQUIRED),
        "n_grid": (_grid(1, least=2), _REQUIRED), "reps": (_int(1), 256)}),
    "exit-time": (_run_exit_time, False, {
        "chain": (_plain(build_chain_spec), _REQUIRED),
        "r_grid": (_exit_radii, _REQUIRED), "reps": (_int(1), 256)}),
    "check": (_run_check, True, {}),
}
KINDS = tuple(KIND_TABLE)


# ---------------------------------------------------------------------------
# config parsing and validation

# what building a model, walk or chain from malformed JSON raises
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _reason(e) -> str:
    return f"missing field {e}" if isinstance(e, KeyError) else str(e)


def parse_config(cfg, kind=None, workers=None) -> tuple:
    """(model, params, errors): the built model (None if the kind takes none
    or it is invalid), the checked params with defaults filled in, and errors
    as 'field: reason' strings.  `workers` is the --workers override."""
    if not isinstance(cfg, dict):
        return None, {}, ["config: must be a JSON object "
                          f"(got {type(cfg).__name__})"]
    kind = kind or cfg.get("kind")
    if kind not in KINDS:
        return None, {}, [f"kind: unknown experiment kind {_show(kind)}; "
                          f"valid kinds: {', '.join(KINDS)}"]
    _, needs_model, fields = KIND_TABLE[kind]
    errors = []
    # top-level fields, and the --workers flag that overrides "workers"
    given = {**cfg, "--workers": 1 if workers is None else workers}
    for name, check in (("master_seed", _plain(_whole)), ("workers", _int(1)),
                        ("--workers", _int(1)), ("out_dir", _plain(_text))):
        if name in given:
            try:
                check(given[name], {}, None)
            except ValueError as e:
                errors.append(f"{name}: {e}")
    model = None
    if needs_model:
        try:
            model = build_model(cfg.get("model"))
        except _MALFORMED as e:
            return None, {}, errors + [f"model: {_reason(e)}"]
    raw = cfg.get("params", {})
    if not isinstance(raw, dict):
        return model, {}, errors + ["params: must be an object"]
    errors += [f"params.{f}: unknown field for {kind} "
               f"(known: {', '.join(fields) or 'none'})"
               for f in raw if f not in fields]
    params = {}
    for field, (check, default) in fields.items():
        v = raw.get(field, default)
        try:
            if isinstance(v, _Required):
                raise ValueError(v)
            params[field] = check(None if isinstance(v, _Rule) else v,
                                  params, model)
        except _MALFORMED as e:
            errors.append(f"params.{field}: {_reason(e)}")
    return model, params, errors


def validate_config(cfg) -> list:
    """Schema errors as 'field: reason' strings; empty list when valid."""
    return parse_config(cfg)[2]


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


def _write_csv(path: Path, header, rows) -> str:
    # cells are plain str, int and float: csv writes np.float64(...) for a
    # numpy float
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return _sha256(path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(cfg: dict, out_dir=None, workers=None) -> dict:
    """Execute one experiment; returns the manifest dict."""
    model, params, errors = parse_config(cfg, workers=workers)
    if errors:
        raise ValueError("; ".join(errors))
    return _execute(cfg, cfg["kind"], model, params, out_dir, workers, None)


def _machine() -> dict:
    """The interpreter, library versions and host that a run's bits rest
    on: numpy (the KS p-value's matrix power and long-double rescaling),
    scipy.special's ufuncs (`ndtr`, `smirnov`, `gammaincinv`) and libm."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": "-".join((platform.system(), platform.release(),
                                  platform.machine(),
                                  "".join(platform.libc_ver()))),
            "cpu_count": os.cpu_count()}


def _execute(cfg, kind, model, params, out_dir, workers, seed) -> dict:
    seed = seed if seed is not None else cfg.get("master_seed", 0)
    workers = workers if workers is not None else cfg.get("workers", 1)
    out_dir = Path(out_dir or cfg.get("out_dir") or f"runs/{kind}")
    t0 = time.time()
    tables, summary = KIND_TABLE[kind][0](model, params, seed, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {f"{name}.csv": _write_csv(out_dir / f"{name}.csv", *table)
               for name, table in tables.items()}
    summary_doc = {"kind": kind, "config": cfg,
                   "master_seed": seed, "results": _to_jsonable(summary)}
    sp = out_dir / "summary.json"
    sp.write_text(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n",
                  encoding="utf-8")
    digests[sp.name] = _sha256(sp)
    manifest = {"config_sha256": hashlib.sha256(
                    json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
                "code_version": __version__,
                "wall_time_s": time.time() - t0, "outputs": digests,
                **_machine()}
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# entry point


def _fields_help(kind: str) -> str:
    """The config fields of a kind, read from KIND_TABLE."""
    _, needs_model, fields = KIND_TABLE[kind]
    rows = [("model", "required")] if needs_model else []
    rows += [(f"params.{name}", "required" if isinstance(default, _Required)
              else f"default {default}" if isinstance(default, _Rule)
              else f"default {json.dumps(default)}")
             for name, (_, default) in fields.items()]
    width = max((len(name) for name, _ in rows), default=0) + 2
    return "\n".join(["config fields:"] + [f"  {name:<{width}}{text}"
                                            for name, text in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rwre", description=(
        "Random-walk-in-random-environment simulation laboratory"))
    sub = parser.add_subparsers(dest="command")
    pv = sub.add_parser("validate", help="validate a config file")
    pv.add_argument("config")
    pv.set_defaults(seed=None, workers=None, out=None)
    for kind in KINDS:
        pk = sub.add_parser(
            kind, help=f"run the {kind} experiment",
            epilog=_fields_help(kind),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        pk.add_argument("--config", required=True)
        pk.add_argument("--seed", type=int, default=None)
        pk.add_argument("--workers", type=int, default=None)
        pk.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    kind = None if args.command == "validate" else args.command
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        print(f"error: cannot parse {args.config}: {e}", file=sys.stderr)
        return 1
    model, params, errors = parse_config(cfg, kind, args.workers)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if kind is None:
        print("ok")
        return 0
    try:
        manifest = _execute(cfg, kind, model, params, args.out, args.workers,
                            args.seed)
    except Exception as e:  # runtime failures map to exit code 2
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
