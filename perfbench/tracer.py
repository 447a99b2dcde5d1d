"""Spans around the public functions of each ``rwre`` module, from outside.

``install`` replaces each traced function wherever a loaded ``rwre`` module
binds it (the modules import names directly, so ``rwre.walk.site_keys`` is
wrapped as well as ``rwre.rng.site_keys``) and ``Environment.cum_at`` on its
class.  A span records its duration and, through a stack, the time of its
child spans, so self time is span time minus the children.  Spans are
aggregated in memory per name and per (parent, child) pair; nothing is
written until the pass ends.  ``layer_metrics`` turns one pass's records
into the per-layer metrics named in the benchmark README.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np
from rwre.environment import Environment


class _Stats:
    __slots__ = ("calls", "units", "total_ns", "self_ns", "samples", "depth")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.units = 0
        self.total_ns = 0
        self.self_ns = 0
        self.samples = [] if keep_samples else None
        self.depth = 0


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0


class Tracer:
    """Aggregated span records of one traced pass."""

    def __init__(self):
        self.stack = [_Frame("")]
        self.stats: dict = {}
        self.edges: dict = {}        # (parent, child) -> [calls, units]
        self.vector_keys: list = []  # site keys given to _vectors_from_keys
        self.cum_sites: set = set()  # distinct (env_key, site) of cum_at

    def wrap(self, name, fn, units=None, keep_samples=False, observe=None):
        """Return `fn` wrapped in a span called `name`.

        units(args, kwargs, result) gives the work done by one call;
        observe(args) records call arguments (distinct-key counting).
        """
        stats = self.stats.setdefault(name, _Stats(keep_samples))
        stack, edges = self.stack, self.edges
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name)
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.depth -= 1
            parent.child_ns += dt
            if stats.depth == 0:      # outermost span of this name
                stats.total_ns += dt
            stats.self_ns += dt - frame.child_ns
            stats.calls += 1
            n = units(args, kwargs, result) if units else 0
            stats.units += n
            edge = edges.setdefault((parent.name, name), [0, 0])
            edge[0] += 1
            edge[1] += n
            if stats.samples is not None:
                stats.samples.append(dt)
            if observe is not None:
                observe(args)
            return result

        return traced

    def _observe_vector_keys(self, args):
        self.vector_keys.append(np.asarray(args[1], dtype=np.uint64))

    def _observe_cum_at(self, args):
        self.cum_sites.add((args[0].env_key, args[1]))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _site_rows(args, kwargs, result):
    sites = np.asarray(_arg(args, kwargs, 1, "sites"))
    return int(sites.shape[0]) if sites.ndim > 1 else 1


def _len_keys(args, kwargs, result):
    return int(np.asarray(_arg(args, kwargs, 1, "keys")).shape[0])


def _len_mixed(args, kwargs, result):
    return int(np.asarray(_arg(args, kwargs, 1, "sites")).shape[0])


def _len_chain(args, kwargs, result):
    return int(np.asarray(_arg(args, kwargs, 1, "pos")).shape[0])


def _engine_shared(args, kwargs, result):
    starts = np.asarray(_arg(args, kwargs, 1, "starts"))
    return int(starts.shape[0]) * int(_arg(args, kwargs, 2, "n"))


def _engine_envs(args, kwargs, result):
    starts = np.asarray(_arg(args, kwargs, 2, "starts"))
    return int(starts.shape[0]) * int(_arg(args, kwargs, 3, "n"))


def _simulate_steps(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "n"))


def _path_steps(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "path").n_steps)


def _triples(args, kwargs, result):
    return int(result.n_triples)


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, units, keep samples)
TARGETS = (
    ("rwre.rng", "site_keys", "rng.site_keys", _site_rows, False),
    ("rwre.rng", "site_keys_mixed", "rng.site_keys", _len_mixed, False),
    ("rwre.rng", "stream_u01_array", "rng.stream_u01_array", _one, False),
    ("rwre.environment", "_vectors_from_keys", "environment.vectors",
     _len_keys, False),
    ("rwre.walk", "simulate", "walk.simulate", _simulate_steps, False),
    ("rwre.walk", "simulate_paths_many", "walk.engine", _engine_shared, False),
    ("rwre.walk", "simulate_finals_many", "walk.engine", _engine_shared,
     False),
    ("rwre.walk", "simulate_paths_many_envs", "walk.engine", _engine_envs,
     False),
    ("rwre.walk", "simulate_finals_many_envs", "walk.engine", _engine_envs,
     False),
    ("rwre.walk", "simulate_level_stats_many_envs", "walk.engine",
     _engine_envs, False),
    ("rwre.regen", "detect_regenerations", "regen.detect", _path_steps, False),
    ("rwre.pair", "coupled_triple", "pair.coupled_triple", _triples, True),
    ("rwre.pair", "first_joint_regeneration", "pair.joint_regen", _one, True),
    ("rwre.pair", "intersection_curve", "pair.intersection_curve", _one,
     False),
    ("rwre.clt", "quenched_samples", "clt.quenched_samples", _one, False),
    ("rwre.clt", "clt_check", "clt.clt_check", _one, False),
    ("rwre.envprocess", "variation_proxy", "envprocess.variation_proxy", _one,
     False),
    ("rwre.envprocess", "ergodic_average", "envprocess.ergodic_average", _one,
     False),
    ("rwre.green", "half_line_green_mc", "green.mc", _one, False),
    ("rwre.green", "build_ladder_tables", "green.ladder", _one, False),
    ("rwre.green", "half_line_green", "green.ladder", _one, False),
    ("rwre.green", "half_line_green_solve", "green.solve", _one, False),
    ("rwre.green", "green_bound_experiment", "green.bound", _one, False),
    ("rwre.green", "cube_exit_time", "green.exit", _one, False),
    ("rwre.green", "_chain_steps", "green.chain_steps", _len_chain, False),
    ("rwre.cli", "run", "cli.run", _one, False),
)


def install(tracer: Tracer) -> list:
    """Wrap every target where rwre modules bind it; returns undo records."""
    origs = [getattr(importlib.import_module(t[0]), t[1]) for t in TARGETS]
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rwre" or name.startswith("rwre.")]
    undo = []
    for orig, (_, _, span, units, samples) in zip(origs, TARGETS):
        observe = (tracer._observe_vector_keys
                   if span == "environment.vectors" else None)
        wrapped = tracer.wrap(span, orig, units, samples, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    orig = Environment.cum_at
    undo.append((Environment, "cum_at", orig))
    Environment.cum_at = tracer.wrap("environment.cum_at", orig, _one, False,
                                     tracer._observe_cum_at)
    return undo


def uninstall(undo: list) -> None:
    for obj, key, orig in reversed(undo):
        setattr(obj, key, orig)


def pass_records(tracer: Tracer, output_bytes: int) -> dict:
    """The numbers of one traced pass, detached from the tracer."""
    spans = {name: {"calls": s.calls, "units": s.units,
                    "total_ns": s.total_ns, "self_ns": s.self_ns,
                    "samples": s.samples}
             for name, s in tracer.stats.items()}
    keys = (np.concatenate(tracer.vector_keys) if tracer.vector_keys
            else np.empty(0, dtype=np.uint64))
    return {"spans": spans, "edges": dict(tracer.edges),
            "vector_keys_distinct": int(np.unique(keys).size),
            "cum_at_distinct": len(tracer.cum_sites),
            "output_bytes": output_bytes}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def counts(rec: dict) -> dict:
    """The count metrics of one traced pass."""
    sp, ed = rec["spans"], rec["edges"]

    def units(name):
        return sp.get(name, {}).get("units", 0)

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    sites = units("environment.vectors")
    cum_calls = calls("environment.cum_at")
    return {
        "rng.site_keys.keys": units("rng.site_keys"),
        "rng.stream_u01_array.calls": calls("rng.stream_u01_array"),
        "environment.vectors.sites": sites,
        "environment.vectors.reuse_ratio": _ratio(
            sites, rec["vector_keys_distinct"]),
        "environment.cum_at.calls": cum_calls,
        "environment.cum_at.distinct_ratio": _ratio(
            rec["cum_at_distinct"], cum_calls),
        "walk.engine.walker_steps": units("walk.engine"),
        "walk.simulate.steps": units("walk.simulate"),
        "regen.detect.path_steps": units("regen.detect"),
        "pair.coupled_triple.calls": calls("pair.coupled_triple"),
        "pair.coupled_triple.triples": units("pair.coupled_triple"),
        "pair.joint_regen.calls": calls("pair.joint_regen"),
        "green.mc.iterations": ed.get(("green.mc", "rng.stream_u01_array"),
                                      [0, 0])[0],
        "green.solve.calls": calls("green.solve"),
        "green.bound.chain_steps": ed.get(("green.bound", "green.chain_steps"),
                                          [0, 0])[1],
        "green.exit.chain_steps": ed.get(("green.exit", "green.chain_steps"),
                                         [0, 0])[1],
        "cli.output_bytes": rec["output_bytes"],
    }


def layer_metrics(recs: list) -> dict:
    """Per-layer metrics from the records of the traced passes.

    Counts come from the first pass (the caller checks that every pass
    agrees); times are summed over the passes and divided by the summed
    work, or averaged per pass for the ``.s`` and ``.self_s`` totals.
    """
    n = len(recs)
    c = counts(recs[0])
    k = {name: v * n for name, v in c.items()}   # counts summed over passes

    def total(name, field="total_ns"):
        return sum(r["spans"].get(name, {}).get(field, 0) for r in recs)

    def samples_ms(name):
        vals = [s for r in recs
                for s in (r["spans"].get(name, {}).get("samples") or [])]
        return np.asarray(vals, dtype=float) / 1e6

    def pct(name, q):
        v = samples_ms(name)
        return float(np.percentile(v, q)) if v.size else 0.0

    out = dict(c)
    out.update({
        "rng.site_keys.ns_per_key": _ratio(total("rng.site_keys"),
                                           k["rng.site_keys.keys"]),
        "rng.stream_u01_array.ns_per_call": _ratio(
            total("rng.stream_u01_array"), k["rng.stream_u01_array.calls"]),
        "environment.vectors.us_per_site": _ratio(
            total("environment.vectors"), k["environment.vectors.sites"],
            1e-3),
        "environment.cum_at.us_per_call": _ratio(
            total("environment.cum_at"), k["environment.cum_at.calls"], 1e-3),
        "walk.engine.self_ns_per_walker_step": _ratio(
            total("walk.engine", "self_ns"), k["walk.engine.walker_steps"]),
        "walk.simulate.ns_per_step": _ratio(total("walk.simulate"),
                                            k["walk.simulate.steps"]),
        "regen.detect.ns_per_step": _ratio(total("regen.detect"),
                                           k["regen.detect.path_steps"]),
        "pair.coupled_triple.ms.p50": pct("pair.coupled_triple", 50),
        "pair.coupled_triple.ms.p99": pct("pair.coupled_triple", 99),
        "pair.joint_regen.ms.p50": pct("pair.joint_regen", 50),
        "pair.joint_regen.ms.p99": pct("pair.joint_regen", 99),
        "pair.intersection_curve.self_s": total(
            "pair.intersection_curve", "self_ns") / n * 1e-9,
        "clt.quenched_samples.s": total("clt.quenched_samples") / n * 1e-9,
        "clt.clt_check.s": total("clt.clt_check") / n * 1e-9,
        "envprocess.variation_proxy.self_s": total(
            "envprocess.variation_proxy", "self_ns") / n * 1e-9,
        "envprocess.ergodic_average.self_s": total(
            "envprocess.ergodic_average", "self_ns") / n * 1e-9,
        "green.mc.us_per_iteration": _ratio(total("green.mc"),
                                            k["green.mc.iterations"], 1e-3),
        "green.ladder.s": total("green.ladder", "self_ns") / n * 1e-9,
        "green.solve.ms_per_call": _ratio(total("green.solve"),
                                          k["green.solve.calls"], 1e-6),
        "green.bound.ns_per_chain_step": _ratio(
            total("green.bound"), k["green.bound.chain_steps"]),
        "green.exit.ns_per_chain_step": _ratio(
            total("green.exit"), k["green.exit.chain_steps"]),
        "cli.self_s": total("cli.run", "self_ns") / n * 1e-9,
    })
    return out
