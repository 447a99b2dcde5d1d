"""The benchmark's traced run wraps rwre functions by name and reads their
arguments by position (perfbench/tracer.py).  These checks load the tracer
without changing it and fail when a rename or a signature change in rwre
would break ``perfbench/run.py --trace 1``."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import numpy as np

from rwre import clt, envprocess, green, pair, rng, walk
from rwre.environment import Environment, env_key_range, make_environment
from rwre.models import (dirichlet_backtracking_model,
                         dirichlet_drift_model, drift_model)
from rwre.rng import TAG_ENV
from rwre.walk import (simulate_finals_many, simulate_finals_many_envs,
                       simulate_level_stats_many_envs, simulate_paths_many,
                       simulate_paths_many_envs)

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ENGINES = ("simulate_paths_many", "simulate_finals_many",
           "simulate_paths_many_envs", "simulate_finals_many_envs",
           "simulate_level_stats_many_envs")


def _load(path: Path, name: str):
    """A perfbench module, executed from its source (no bytecode written)."""
    mod = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def _load_tracer():
    return _load(TRACER, "_perfbench_tracer")


def _argument_reads() -> dict:
    """{unit function name: [(index, parameter name)]} for every
    _arg(args, kwargs, index, name) call in the tracer's source."""
    reads = {}
    for fn in ast.parse(TRACER.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "_arg":
                i, name = (ast.literal_eval(a) for a in node.args[2:4])
                reads.setdefault(fn.name, []).append((i, name))
    return reads


def test_tracer_targets_resolve_with_their_read_parameters():
    tracer = _load_tracer()
    reads = _argument_reads()
    assert reads                        # the parse found the _arg calls
    for module, attr, span, units, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) is gone"
        params = list(inspect.signature(fn).parameters)
        for i, name in reads.get(units.__name__, []):
            assert i < len(params) and params[i] == name, (
                f"{units.__name__} reads argument {i} of {module}.{attr} as "
                f"{name!r}; the signature is {params}")
    # the cum_at span's observer reads (self, site)
    assert list(inspect.signature(Environment.cum_at).parameters) == \
        ["self", "site"]


def test_traced_engines_count_each_walker_step_once():
    # a public engine that called another traced engine would nest two
    # walk.engine spans and count its walker-steps twice
    tracer = _load_tracer()
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        model = dirichlet_drift_model()
        env = make_environment(model, 3)
        starts = np.zeros((4, 2), dtype=np.int64)
        keys = np.full(4, env.env_key, dtype=np.uint64)
        seeds = [1, 2, 3, 4]
        walk.simulate_paths_many(env, starts, 7, seeds)
        walk.simulate_finals_many(env, starts, 7, seeds)
        walk.simulate_paths_many_envs(model, keys, starts, 7, seeds)
        walk.simulate_finals_many_envs(model, keys, starts, 7, seeds)
        walk.simulate_level_stats_many_envs(model, keys, starts, 7, seeds)
    finally:
        tracer.uninstall(undo)
    for fn in (simulate_paths_many, simulate_finals_many,
               simulate_paths_many_envs, simulate_finals_many_envs,
               simulate_level_stats_many_envs):
        assert getattr(walk, fn.__name__) is fn      # uninstalled
    assert tr.stats["walk.engine"].calls == 5
    assert tr.stats["walk.engine"].units == 5 * 4 * 7
    assert ("walk.engine", "walk.engine") not in tr.edges


def _engine_units(tracer, run) -> int:
    """walk.engine units of run() under a freshly installed tracer."""
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        run()
    finally:
        tracer.uninstall(undo)
    return tr.stats["walk.engine"].units


def test_library_engine_calls_count_their_walker_steps():
    # the traced run holds walk.engine.walker_steps to
    # perfbench/workloads.expected_walker_steps: every library walk goes
    # through a traced public engine, taken when called (walk._from_origin)
    tracer = _load_tracer()
    expected = _load(WORKLOADS, "_perfbench_workloads").expected_walker_steps
    model = dirichlet_drift_model()
    keys = env_key_range(5, TAG_ENV, n=2)

    def steps(kind, **params):
        return expected([{"kind": kind, "params": params}])

    assert _engine_units(tracer, lambda: clt.quenched_samples(
        model, keys, 6, 3, (0.6, 0.0), [1, 2])) == \
        steps("clt", n=6, m_walks=3, n_env=2) == 36
    assert _engine_units(tracer, lambda: clt.quenched_mean_variance(
        model, [3, 5], 30, 2, seed=1)) == \
        steps("quenched-mean", n_grid=[3, 5], n_env=30, m_walks=2) == 480
    assert _engine_units(tracer, lambda: pair.intersection_curve(
        model, [3, 5], 3, seed=1)) == \
        steps("intersections", n_grid=[3, 5], reps=3) == 2 * 3 * (2 + 4)
    assert _engine_units(tracer, lambda: envprocess.variation_proxy(
        model, 4, [1, 2], 1000, seed=1)) == \
        steps("variation", n=4, reps=1000) == 4000
    # no benchmark kind runs it; reps walks per grid point
    assert _engine_units(tracer, lambda: clt.centered_mean_bound(
        model, [2, 4], (0.6, 0.0), reps=3, seed=1)) == 3 * (2 + 4)


def test_joint_regenerations_open_no_engine_span():
    # the traced run holds walk.engine.walker_steps to expected_walker_steps,
    # which counts no joint-regen steps: the batch grows its prefixes
    # through the private engine, and blocks below the replica threshold
    # call the traced first_joint_regeneration once per replica
    tracer = _load_tracer()
    expected = _load(WORKLOADS, "_perfbench_workloads").expected_walker_steps
    model = dirichlet_backtracking_model()
    for reps, scalar_calls in ((pair._BLOCK_MIN, 0), (3, 3)):
        tr = tracer.Tracer()
        undo = tracer.install(tr)
        try:
            pair.first_joint_regenerations(model, (0, 0), (0, 2), reps, 1, 10,
                                           20_000)
        finally:
            tracer.uninstall(undo)
        assert tr.stats["walk.engine"].calls == 0
        assert tr.stats["pair.joint_regen"].calls == scalar_calls
        assert expected([{"kind": "joint-regen", "params": {
            "x0": [0, 2], "reps": reps, "margin": 10}}]) == 0


def test_coupling_blocks_count_every_replica_and_open_no_engine_span():
    # the traced run reads pair.coupled_triple.* per replica and holds
    # walk.engine.walker_steps to expected_walker_steps, which counts no
    # coupling steps: a block grows its X prefixes through the private
    # engine and calls the traced coupled_triple once per replica
    tracer = _load_tracer()
    expected = _load(WORKLOADS, "_perfbench_workloads").expected_walker_steps
    model = dirichlet_drift_model()
    reps = pair._BLOCK_MIN
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        res = pair.coupling_decay(model, [(0, 1), (0, 4)], reps, 1, 10,
                                  20_000)
    finally:
        tracer.uninstall(undo)
    assert tr.stats["walk.engine"].calls == 0
    assert tr.stats["pair.coupled_triple"].calls == 2 * reps
    assert tr.stats["pair.coupled_triple"].units == sum(
        o.n_triples for outs in res["outcomes"] for o in outs)
    assert expected([{"kind": "coupling", "params": {
        "x0_list": [[0, 1], [0, 4]], "reps": reps, "margin": 10}}]) == 0


def test_only_walk_reads_seed_lists_and_calls_the_engines():
    # the seed-list rule (walk.list_seed_array) and the origin starts have
    # one home: every other module hands an engine to walk._from_origin
    for path in sorted((ROOT / "src" / "rwre").glob("*.py")):
        if path.name == "walk.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "list_seed_array" not in names, path.name
        called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                  for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert not called.intersection(ENGINES), path.name


def test_traced_simulate_counts_n_and_pair_walks_open_no_simulate_span():
    # the traced run holds walk.simulate.steps to the steps of the regen and
    # ergodic paths, so a simulate call counts its n steps once, under either
    # law, and the pair walks, which grow the same scalar walker as
    # simulate, never open a walk.simulate span
    tracer = _load_tracer()
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        for n, model in ((300, drift_model()), (200, dirichlet_drift_model())):
            walk.simulate(make_environment(model, 3), (0, 0), n, 5)
        model = dirichlet_drift_model()
        pair.first_joint_regeneration(make_environment(model, 3), (0, 0),
                                      (0, 4), margin=10)
        pair.coupled_triple(model, (0, 1), seed=0, margin=10)
    finally:
        tracer.uninstall(undo)
    assert tr.stats["walk.simulate"].calls == 2
    assert tr.stats["walk.simulate"].units == 300 + 200
    assert tr.stats["pair.joint_regen"].calls == 1
    assert tr.stats["pair.coupled_triple"].calls == 1
    assert not [e for e in tr.edges if e[1] == "walk.simulate" and e[0]]


def test_traced_green_bound_counts_one_chain_row_per_replica_step(
        monkeypatch):
    # the traced run holds green.bound.chain_steps to reps * (max(n_grid) - 1)
    # (perfbench/workloads.expected_bound_chain_steps): one _chain_steps call
    # per step, one row of pos per replica, at any block length
    offs, probs = green.product_symmetric_base(green.simple_walk(), 2)
    spec = green.PerturbedChainSpec(dimension=2, base_offsets=offs,
                                    base_probs=probs, p1=16.0, p2=16.0)
    tracer = _load_tracer()
    for cells in (7, rng._BLOCK_CELLS):
        monkeypatch.setattr(rng, "_BLOCK_CELLS", cells)
        tr = tracer.Tracer()
        undo = tracer.install(tr)
        try:
            green.green_bound_experiment(spec, [1, 8, 37], reps=5, seed=1)
        finally:
            tracer.uninstall(undo)
        assert tr.edges[("green.bound", "green.chain_steps")] == [36, 5 * 36]


def test_traced_cube_exit_time_counts_chain_rows_under_green_exit(
        monkeypatch):
    # the traced run reads green.exit.chain_steps from the rows of pos that
    # cube_exit_time passes to _chain_steps: every replica steps until it
    # exits or reaches the cap, and one that exits finishes its block, so
    # the rows are at least the sum of the exit times, and equal to it at
    # one step per block
    offs, probs = green.product_symmetric_base(green.simple_walk(), 2)
    spec = green.PerturbedChainSpec(dimension=2, base_offsets=offs,
                                    base_probs=probs, p1=16.0)
    tracer = _load_tracer()
    reps = 9
    for cells in (1, rng._BLOCK_CELLS):
        monkeypatch.setattr(rng, "_BLOCK_CELLS", cells)
        tr = tracer.Tracer()
        undo = tracer.install(tr)
        try:
            res = green.cube_exit_time(spec, [0, 3, 6], reps=reps, seed=1)
        finally:
            tracer.uninstall(undo)
        exit_steps = round(sum(res["mean_exit"]) * reps)
        rows = tr.edges[("green.exit", "green.chain_steps")][1]
        assert rows == exit_steps if cells == 1 else rows >= exit_steps
        assert tr.stats["green.exit"].calls == 1
