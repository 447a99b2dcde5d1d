"""Workload definitions: fixed lists of CLI configs per workload and scale.

A workload is a list of ``rwre`` CLI configs run one after another through
``rwre.cli.run`` (one pass).  Sizes are fixed; only the ``master_seed`` of
each config changes, derived from the benchmark seed, the workload, the
pass index and the config index, so the same seed always gives the same
inputs while different passes never share an environment.

The ``full`` scale is what the benchmark measures; ``tiny`` runs every
workload in about a second (self-test) and ``warmup`` is what each worker
runs once before timing, so that lazy imports and first-call costs land in
set-up time.
"""

from __future__ import annotations

import copy
import hashlib

WORKLOADS = ("shared-env", "own-env", "sequential", "killed-walk")

# Dirichlet models of rwre.models: dirichlet_drift_model() and
# dirichlet_backtracking_model(), spelled as CLI model objects.
DRIFT = {"dimension": 2, "steps": [[1, 0], [0, 1], [0, -1]], "u_hat": [1, 0],
         "law": "dirichlet", "alpha": [4.0, 1.0, 1.0], "floor": 0.1}
BACKTRACK = {"dimension": 2, "steps": [[1, 0], [-1, 0], [0, 1], [0, -1]],
             "u_hat": [1, 0], "law": "dirichlet",
             "alpha": [5.0, 2.0, 1.5, 1.5], "floor": 0.05}
SIMPLE_WALK = {"offsets": [-1, 1], "probs": [0.5, 0.5]}
CHAIN = {"dimension": 2, "base_1d": SIMPLE_WALK,
         "p1": 16.0, "p2": 16.0, "c_pert": 1.0}
# Slab estimates of velocity and diffusion matrix for DRIFT (regen kind,
# 4 paths x 20000 steps, rounded); clt only needs plausible inline values.
DRIFT_V = [0.628, 0.0]
DRIFT_D = [[0.255, 0.0], [0.0, 0.370]]

# kind, model, params per scale
_SPECS = {
    "shared-env": [
        ("quenched-mean", DRIFT, {
            "full": {"n_grid": [32, 128], "n_env": 30, "m_walks": 120},
            "tiny": {"n_grid": [8, 16], "n_env": 30, "m_walks": 8},
            "warmup": {"n_grid": [4, 8], "n_env": 30, "m_walks": 4}}),
        ("clt", DRIFT, {
            "full": {"n": 256, "m_walks": 1500, "n_env": 2,
                     "v": DRIFT_V, "D": DRIFT_D},
            "tiny": {"n": 32, "m_walks": 64, "n_env": 2,
                     "v": DRIFT_V, "D": DRIFT_D},
            "warmup": {"n": 8, "m_walks": 16, "n_env": 2,
                       "v": DRIFT_V, "D": DRIFT_D}}),
    ],
    "own-env": [
        ("variation", BACKTRACK, {
            "full": {"n": 128, "ell_grid": [2, 4, 8, 16, 32], "reps": 3000},
            "tiny": {"n": 16, "ell_grid": [2, 4], "reps": 1000},
            "warmup": {"n": 4, "ell_grid": [2, 4], "reps": 1000}}),
        ("intersections", DRIFT, {
            "full": {"n_grid": [64, 256], "reps": 500},
            "tiny": {"n_grid": [8, 16], "reps": 20},
            "warmup": {"n_grid": [4, 8], "reps": 4}}),
    ],
    "sequential": [
        ("coupling", DRIFT, {
            "full": {"x0_list": [[0, 1], [0, 4]], "reps": 100, "margin": 10},
            "tiny": {"x0_list": [[0, 1], [0, 2]], "reps": 4, "margin": 5},
            "warmup": {"x0_list": [[0, 1]], "reps": 2, "margin": 5}}),
        ("joint-regen", BACKTRACK, {
            "full": {"x0": [0, 2], "reps": 150, "margin": 10},
            "tiny": {"x0": [0, 2], "reps": 8, "margin": 5},
            "warmup": {"x0": [0, 2], "reps": 2, "margin": 5}}),
        ("regen", DRIFT, {
            "full": {"n_paths": 1, "horizon": 20000, "margin": 20},
            "tiny": {"n_paths": 2, "horizon": 500, "margin": 10},
            "warmup": {"n_paths": 1, "horizon": 200, "margin": 10}}),
        ("ergodic", DRIFT, {
            "full": {"n": 12000, "n_runs": 2},
            "tiny": {"n": 400, "n_runs": 2},
            "warmup": {"n": 100, "n_runs": 2}}),
    ],
    "killed-walk": [
        ("green", None, {
            "full": {"walk": SIMPLE_WALK, "r0": 0, "points": [[1, 1]],
                     "reps": 40000},
            "tiny": {"walk": SIMPLE_WALK, "r0": 0, "points": [[1, 1]],
                     "reps": 2000},
            # the Monte Carlo half stops only near its last survivors,
            # whatever reps is, so warm-up leaves it out
            "warmup": {"walk": SIMPLE_WALK, "r0": 0, "points": [[1, 1]],
                       "reps": 400, "mc": False}}),
        # ladder formula against the exact solve at points where Monte
        # Carlo would take minutes; (1, 1) alone calibrates the ladder's
        # constant, so it cannot disagree with the solve there
        ("green", None, {
            scale: {"walk": SIMPLE_WALK, "r0": 0, "mc": False, "reps": 1,
                    "points": [[2, 1], [1, 3], [2, 3], [4, 4], [7, 3],
                               [10, 10], [25, 40], [50, 50]]}
            for scale in ("full", "tiny", "warmup")}),
        ("green-bound", None, {
            "full": {"chain": CHAIN, "n_grid": [256, 1024, 2048],
                     "reps": 1024},
            "tiny": {"chain": CHAIN, "n_grid": [16, 64], "reps": 32},
            "warmup": {"chain": CHAIN, "n_grid": [8, 16], "reps": 8}}),
        ("exit-time", None, {
            "full": {"chain": CHAIN, "r_grid": [4, 8, 16, 24], "reps": 4096},
            "tiny": {"chain": CHAIN, "r_grid": [2, 4], "reps": 64},
            "warmup": {"chain": CHAIN, "r_grid": [1, 2], "reps": 8}}),
    ],
}


def kinds(workload: str) -> list:
    """Experiment kinds of a workload, in run order, each once."""
    return list(dict.fromkeys(kind for kind, _, _ in _SPECS[workload]))


def master_seed(seed: int, workload: str, pass_index, index: int) -> int:
    """32-bit config seed, a pure function of its arguments."""
    text = f"{seed}/{workload}/{pass_index}/{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def configs(workload: str, scale: str, seed: int, pass_index) -> list:
    """The CLI configs of one pass, in run order."""
    out = []
    for i, (kind, model, params) in enumerate(_SPECS[workload]):
        cfg = {"kind": kind, "params": copy.deepcopy(params[scale]),
               "master_seed": master_seed(seed, workload, pass_index, i)}
        if model is not None:
            cfg["model"] = copy.deepcopy(model)
        out.append(cfg)
    return out


def expected_walker_steps(cfgs) -> int:
    """Walker-steps the vectorized engine must take for these configs."""
    total = 0
    for cfg in cfgs:
        p = cfg["params"]
        if cfg["kind"] == "quenched-mean":
            total += sum(p["n_grid"]) * p["n_env"] * p["m_walks"]
        elif cfg["kind"] == "clt":
            total += p["n"] * p["m_walks"] * p["n_env"]
        elif cfg["kind"] == "variation":
            total += p["n"] * p["reps"]
        elif cfg["kind"] == "intersections":
            total += sum(2 * p["reps"] * (n - 1) for n in p["n_grid"])
    return total


def expected_simulate_steps(cfgs) -> int:
    """Steps of the scalar walk.simulate for these configs."""
    total = 0
    for cfg in cfgs:
        p = cfg["params"]
        if cfg["kind"] == "regen":
            total += p["n_paths"] * p["horizon"]
        elif cfg["kind"] == "ergodic":
            total += p["n_runs"] * (p["n"] - 1)
    return total


def expected_bound_chain_steps(cfgs) -> int:
    """Replica-steps of the perturbed chain in green-bound configs."""
    return sum(cfg["params"]["reps"] * (max(cfg["params"]["n_grid"]) - 1)
               for cfg in cfgs if cfg["kind"] == "green-bound")
