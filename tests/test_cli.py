import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwre.cli import KINDS, main, run, validate_config

DRIFT_MODEL = {"dimension": 2, "steps": [[1, 0], [0, 1], [0, -1]],
               "u_hat": [1, 0], "law": "deterministic",
               "probs": [0.5, 0.25, 0.25]}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_validate_ok():
    cfg = {"kind": "check", "model": DRIFT_MODEL, "params": {},
           "master_seed": 1}
    assert validate_config(cfg) == []


def test_validate_negative_field_named():
    cfg = {"kind": "regen", "model": DRIFT_MODEL,
           "params": {"n_paths": -3}}
    errors = validate_config(cfg)
    assert any("n_paths" in e for e in errors)


def test_validate_unknown_kind_lists_valid():
    errors = validate_config({"kind": "frobnicate", "params": {}})
    assert len(errors) == 1
    assert "regen" in errors[0] and "green-bound" in errors[0]


def test_validate_clt_needs_prerequisites():
    cfg = {"kind": "clt", "model": DRIFT_MODEL, "params": {"n": 64}}
    errors = validate_config(cfg)
    assert any("regen" in e for e in errors)


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json",
                  {"kind": "check", "model": DRIFT_MODEL, "params": {}})
    assert main(["validate", good]) == 0
    bad = _write(tmp_path, "bad.json",
                 {"kind": "regen", "model": DRIFT_MODEL,
                  "params": {"n_paths": 0}})
    assert main(["validate", bad]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 1


@pytest.mark.parametrize("cfg, field", [
    ([1, 2], "config"),
    ({"kind": "ergodic", "model": DRIFT_MODEL,
      "params": {"n": 100, "n_runs": 2, "psi": "constant"}}, "params.psi"),
    ({"kind": "exit-time", "params": {"chain": [1], "r_grid": [2],
                                      "reps": 4}}, "params.chain"),
])
def test_cli_validate_non_object_names_field(tmp_path, capsys, cfg, field):
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 1
    assert f"error: {field}:" in capsys.readouterr().err


def test_check_run_writes_summary(tmp_path):
    cfg = {"kind": "check", "model": DRIFT_MODEL, "params": {},
           "master_seed": 3, "out_dir": str(tmp_path / "out")}
    manifest = run(cfg)
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["results"]["hypotheses"]["non_nestling"][0] is True
    assert doc["config"] == cfg
    assert "summary.json" in manifest["outputs"]


def test_run_rerun_byte_identical(tmp_path):
    cfg = {"kind": "regen", "model": DRIFT_MODEL,
           "params": {"n_paths": 2, "horizon": 3000, "margin": 10},
           "master_seed": 5}
    m1 = run(cfg, out_dir=tmp_path / "a")
    m2 = run(cfg, out_dir=tmp_path / "b")
    assert m1["outputs"] == m2["outputs"]
    assert (tmp_path / "a" / "slabs.csv").read_bytes() == \
        (tmp_path / "b" / "slabs.csv").read_bytes()


DIRICHLET_MODEL = {"dimension": 2, "steps": [[1, 0], [0, 1], [0, -1]],
                   "u_hat": [1, 0], "law": "dirichlet",
                   "alpha": [4.0, 1.0, 1.0], "floor": 0.1}
BACKTRACK_MODEL = {"dimension": 2, "steps": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   "u_hat": [1, 0], "law": "dirichlet",
                   "alpha": [5.0, 2.0, 1.5, 1.5], "floor": 0.05}
SIMPLE_WALK = {"offsets": [-1, 1], "probs": [0.5, 0.5]}
CHAIN = {"dimension": 2, "base_1d": SIMPLE_WALK, "p1": 16.0, "p2": 16.0,
         "c_pert": 1.0}

# one tiny config per kind: (model or None, params)
TINY = {
    "regen": (DIRICHLET_MODEL, {"n_paths": 2, "horizon": 500, "margin": 10,
                                "tail_cut": 12, "n_grid": [4, 16]}),
    "clt": (DIRICHLET_MODEL, {"n": 32, "m_walks": 64, "n_env": 2,
                              "v": [0.628, 0.0],
                              "D": [[0.255, 0.0], [0.0, 0.37]]}),
    "quenched-mean": (DIRICHLET_MODEL, {"n_grid": [8, 16], "n_env": 30,
                                        "m_walks": 16}),
    "intersections": (DIRICHLET_MODEL, {"n_grid": [8, 16], "reps": 20}),
    "joint-regen": (BACKTRACK_MODEL, {"x0": [0, 2], "reps": 8, "margin": 5}),
    "coupling": (DIRICHLET_MODEL, {"x0_list": [[0, 1], [0, 2]], "reps": 4,
                                   "margin": 5}),
    "ergodic": (DIRICHLET_MODEL, {"n": 400, "n_runs": 2,
                                  "checkpoints": [4, 100, 400]}),
    "variation": (BACKTRACK_MODEL, {"n": 16, "ell_grid": [2, 4],
                                    "reps": 1000}),
    "green": (None, {"walk": SIMPLE_WALK, "r0": 2, "points": [[3, 3]],
                     "reps": 500}),
    "green-bound": (None, {"chain": CHAIN, "n_grid": [16, 64], "reps": 32}),
    "exit-time": (None, {"chain": CHAIN, "r_grid": [2, 4], "reps": 64}),
    "check": (DIRICHLET_MODEL, {}),
}

# SHA-256 of the sorted output digests of each TINY config at master_seed
# 11, recorded before the CLI parsed configs against one table; any change
# to realized values, CSV formatting or summary layout shows up here
GOLDEN = {
    "regen":
        "65c9fbeecd7e351729a1775edddfb2345e82ec97e8bcf1425b76699a3b077db3",
    "clt": "f061f44cf4d8357df47013154e280aa20b4a68d634c62a63dd1cf4a182da02a4",
    "quenched-mean":
        "bb29ea9b44ffa587b8a197896efdbc7020c8fffe23bfdc912fb4f6205a3d6dab",
    "intersections":
        "f0180dc01fd167be5502a3f5aa806556f4f3ad1e9b8d45d8e5c33e3ab485d927",
    "joint-regen":
        "d7497ef835fd8cdda103eb8141fff4cd5330ff632498ecef8e220246a4603669",
    "coupling":
        "3b15d3b44cab24911e4fee725fb312efc88d35e0ae90c313b174a2ca7fc31bbe",
    "ergodic":
        "6398b1790485e1ca9825acc0937be266bee2b2a638c0793232269f01de880e16",
    "variation":
        "63de66a07a6907aa932e817c700a7efc334b4892d1674ba507f2d05a6e4392e5",
    "green":
        "c4363764297957b4a46aa28e9c859a0467e1f3918eac747de2d71ee57ff0c00c",
    "green-bound":
        "9c18faebbeb18629d6d2e9df1662ceedc28f52c11753e044b2dd0a42a73fa0b7",
    "exit-time":
        "332d968e30ad33ed70e54a3e61548ce21fcd792183ce52919dadb71e105a6601",
    "check":
        "d8fe14980263ba7416f48d6e4fd1f9e81ef8f520517a3635f4acf87d49553e1c",
}


def _tiny(kind, seed=11):
    model, params = TINY[kind]
    cfg = {"kind": kind, "params": copy.deepcopy(params), "master_seed": seed}
    if model is not None:
        cfg["model"] = copy.deepcopy(model)
    return cfg


def _outputs_digest(manifest):
    return hashlib.sha256(json.dumps(manifest["outputs"],
                                     sort_keys=True).encode()).hexdigest()


def test_golden_covers_every_kind():
    assert set(TINY) == set(GOLDEN) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_run_golden_digests(tmp_path, kind):
    manifest = run(_tiny(kind), out_dir=tmp_path / kind, workers=1)
    assert _outputs_digest(manifest) == GOLDEN[kind]


def test_run_manifest_names_versions(tmp_path):
    manifest = run(_tiny("clt"), out_dir=tmp_path, workers=1)
    written = json.loads((tmp_path / "run_manifest.json").read_text())
    assert written == manifest
    for key in ("python", "numpy", "scipy", "platform", "cpu_count"):
        assert manifest[key], key
    assert manifest["numpy"] == np.__version__
    # the versions sit beside the digests, not among them
    assert manifest["outputs"] == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir() if p.name != "run_manifest.json"}
    assert _outputs_digest(manifest) == GOLDEN["clt"]


def test_run_worker_count_invariance(tmp_path):
    for kind in KINDS:
        cfg = _tiny(kind, seed=6)
        m1 = run(cfg, out_dir=tmp_path / kind / "w1", workers=1)
        m2 = run(cfg, out_dir=tmp_path / kind / "w2", workers=2)
        assert m1["outputs"] == m2["outputs"], kind


def test_csv_header_and_lf_endings(tmp_path):
    cfg = {"kind": "variation", "model": DRIFT_MODEL,
           "params": {"n": 64, "ell_grid": [2, 4], "reps": 1000},
           "master_seed": 2}
    run(cfg, out_dir=tmp_path / "v")
    raw = (tmp_path / "v" / "variation.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "ell,i_hat,ci_lo,ci_hi"


def test_green_kind_runs(tmp_path):
    cfg = {"kind": "green",
           "params": {"walk": {"offsets": [-1, 1], "probs": [0.5, 0.5]},
                      "r0": 0, "points": [[1, 1], [2, 3]], "reps": 2000,
                      "mc": False},
           "master_seed": 1}
    run(cfg, out_dir=tmp_path / "g")
    doc = json.loads((tmp_path / "g" / "summary.json").read_text())
    assert doc["results"]["max_ladder_vs_solve"] < 1e-8


def test_runtime_error_exit_code(tmp_path, capsys):
    # valid schema but failing at runtime: at horizon 1 no triple of the
    # coupling confirms a joint regeneration, so it hits its triple cap
    cfg = {"kind": "coupling", "model": DRIFT_MODEL,
           "params": {"x0_list": [[0, 1]], "reps": 2, "horizon": 1}}
    path = _write(tmp_path, "cp.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["coupling", "--config", path,
                 "--out", str(tmp_path / "cp")]) == 2
    assert "coupling cap 200 triples exhausted" in capsys.readouterr().err


D2 = {"dimension": 2, "steps": [[1, 0], [0, 1], [0, -1]], "u_hat": [1, 0],
      "law": "deterministic", "probs": [0.5, 0.25, 0.25]}


# configs a looser validator accepted; each run then failed without naming
# the field, or ran something else
@pytest.mark.parametrize("cfg, field", [
    ({"kind": "quenched-mean", "model": D2,
      "params": {"n_grid": [True, 8]}}, "params.n_grid"),
    ({"kind": "regen", "model": D2, "params": {"tail_cut": "x"}},
     "params.tail_cut"),
    ({"kind": "regen", "model": D2, "params": {"margin": 10, "tail_cut": 5}},
     "params.tail_cut"),
    ({"kind": "coupling", "model": D2,
      "params": {"x0_list": [[0, 1]], "horizon": "x"}}, "params.horizon"),
    ({"kind": "green", "params": {"walk": SIMPLE_WALK,
                                  "points": [["a", 1]]}}, "params.points"),
    ({"kind": "green", "params": {"walk": SIMPLE_WALK, "r0": 5,
                                  "points": [[1, 1]]}}, "params.points"),
    ({"kind": "ergodic", "model": D2,
      "params": {"checkpoints": [0, 100], "n": 50}}, "params.checkpoints"),
    ({"kind": "ergodic", "model": D2,
      "params": {"checkpoints": [10, 100], "n": 50}}, "params.checkpoints"),
    ({"kind": "clt", "model": D2, "params": {"v": [1], "D": [[1]]}},
     "params.v"),
    ({"kind": "clt", "model": D2, "params": {"v": [1, 0], "D": [[1]]}},
     "params.D"),
    ({"kind": "joint-regen", "model": D2, "params": {"x0": [0, 0, 2]}},
     "params.x0"),
    ({"kind": "green", "params": {
        "walk": {"offsets": [-1, 1], "probs": [0.5, math.nan]},
        "points": [[1, 1]]}}, "params.walk"),
    ({"kind": "green-bound", "params": {
        "chain": {**CHAIN, "p1": math.nan}, "n_grid": [4]}}, "params.chain"),
    ({"kind": "intersections", "model": D2, "params": {"n_grid": [8]}},
     "params.n_grid"),
    ({"kind": "quenched-mean", "model": D2, "params": {"n_grid": [8, 8]}},
     "params.n_grid"),
    ({"kind": "exit-time", "params": {
        "chain": {**CHAIN, "alt_offsets": [[1, 0]]}, "r_grid": [2]}},
     "params.chain"),
    ({"kind": "green-bound", "params": {
        "chain": {**CHAIN, "p1": 2.0, "allow_low_p1": True},
        "n_grid": [4, 8]}}, "params.chain"),
    ({"kind": "regen", "model": D2, "params": {"n_paths": True}},
     "params.n_paths"),
    ({"kind": "regen", "model": D2, "params": {"p": math.inf}}, "params.p"),
    ({"kind": "regen", "model": D2, "params": {"n_pahts": 2}},
     "params.n_pahts"),
    ({"kind": "green", "params": {"walk": SIMPLE_WALK, "points": [[1, 1]],
                                  "mc": "no"}}, "params.mc"),
    ({"kind": "check", "model": {**D2, "flor": 0.1}}, "model"),
    ({"kind": "green", "params": {"walk": {**SIMPLE_WALK, "prob": [1]},
                                  "points": [[1, 1]]}}, "params.walk"),
    ({"kind": "ergodic", "model": D2,
      "params": {"psi": {"type": "constant", "valeu": 2.0}}}, "params.psi"),
    ({"kind": "check", "model": {**D2, "dimension": math.inf}}, "model"),
    ({"kind": "check", "model": {**D2, "probs": [0.5, math.nan, 0.5]}},
     "model"),
    # numbers inside the model, walk and chain objects must be JSON numbers
    ({"kind": "green", "params": {
        "walk": {"offsets": [-1, 1], "probs": ["0.5", "0.5"]},
        "points": [[1, 1]]}}, "params.walk"),
    ({"kind": "check", "model": {**D2, "law": "dirichlet",
                                 "alpha": [True, 1, 1]}}, "model"),
    ({"kind": "check", "model": {**D2, "steps": [[1, 0], [0, 1], [0, "-1"]]}},
     "model"),
    ({"kind": "check", "model": {**D2, "u_hat": [1.0, 0]}}, "model"),
    ({"kind": "check", "model": {
        **D2, "law": "mixture",
        "atoms": [{"probs": [0.5, "0.25", 0.25], "weight": 1}]}}, "model"),
    ({"kind": "exit-time", "params": {
        "chain": {**CHAIN, "alt_offsets": [["1", 0]], "alt_probs": [1]},
        "r_grid": [2]}}, "params.chain"),
    ({"kind": "exit-time", "params": {
        "chain": {**CHAIN, "alt_offsets": [[1, 0]], "alt_probs": [True]},
        "r_grid": [2]}}, "params.chain"),
    # the Monte Carlo standard error needs two replicas
    ({"kind": "green", "params": {"walk": SIMPLE_WALK, "points": [[1, 1]],
                                  "reps": 1}}, "params.reps"),
    # starts off the hyperplane V_d (x0 . u_hat != 0) failed only at run time
    ({"kind": "coupling", "model": D2,
      "params": {"x0_list": [[0, 1], [1, 0]]}}, "params.x0_list"),
    ({"kind": "joint-regen", "model": D2, "params": {"x0": [1, 0]}},
     "params.x0"),
])
def test_invalid_config_exits_1_naming_field(tmp_path, capsys, cfg, field):
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 1
    assert f"error: {field}:" in capsys.readouterr().err
    assert main([cfg["kind"], "--config", path,
                 "--out", str(tmp_path / "out")]) == 1
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_intersections_reps_defaults_from_table(tmp_path):
    cfg = {"kind": "intersections", "model": D2, "params": {"n_grid": [4, 8]}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 0
    assert main(["intersections", "--config", path,
                 "--out", str(tmp_path / "out")]) == 0


def test_workers_flag_must_be_positive(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _tiny("quenched-mean"))
    assert main(["quenched-mean", "--config", path, "--workers", "0",
                 "--out", str(tmp_path / "out")]) == 1
    assert "error: --workers:" in capsys.readouterr().err
    with pytest.raises(ValueError, match="--workers"):
        run(_tiny("check"), out_dir=tmp_path / "c", workers=0)


def test_chain_dimension_cap_named(tmp_path, capsys):
    # 2 ** 17 product steps: one dimension above the cap of 2 ** 16
    cfg = {"kind": "exit-time", "params": {
        "chain": {**CHAIN, "dimension": 17}, "r_grid": [2], "reps": 4}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["validate", path]) == 1
    assert "error: params.chain:" in capsys.readouterr().err


def _containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=8), inner, max_size=4)


# arbitrary JSON values, non-finite floats included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True), _containers,
    max_leaves=12)


def _paths(obj, prefix=()):
    """Every key path into the nested dicts of obj, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))


def _replace(obj, path, value):
    if not path:
        return value
    return {**obj, path[0]: _replace(obj[path[0]], path[1:], value)}


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_is_total(json_dir, data):
    kind = data.draw(st.sampled_from(KINDS))
    cfg = _tiny(kind)
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    cfg = _replace(cfg, path, data.draw(_JSON))
    errors = validate_config(cfg)
    assert isinstance(errors, list)
    assert all(isinstance(e, str) for e in errors)
    f = json_dir / "cfg.json"
    f.write_text(json.dumps(cfg))
    assert main(["validate", str(f)]) in (0, 1)


@pytest.mark.parametrize("params,field", [
    # max step 1000: a ladder system of about 11000 unknowns
    ({"walk": {"offsets": [-1000, 1000], "probs": [0.5, 0.5]},
      "points": [[1, 1]]}, "params.walk"),
    ({"walk": {"offsets": [-10**30, 10**30], "probs": [0.5, 0.5]},
      "points": [[1, 1]]}, "params.walk"),
    # a point 2100 above r0: an exact solve of 2110 unknowns
    ({"walk": SIMPLE_WALK, "r0": -5, "points": [[1, 1], [2095, 3]]},
     "params.points"),
])
def test_green_dense_solve_cap_named(tmp_path, capsys, params, field):
    # validation only: a config above the cap never reaches a solve
    path = _write(tmp_path, "cfg.json", {"kind": "green", "params": params})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err and "unknowns" in err
    if field == "params.walk":
        assert "offsets" in err


def test_kind_help_lists_params_fields(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["green", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for field, text in [("walk", "required"), ("r0", "default 0"),
                        ("points", "required"), ("reps", "default 10000")]:
        line = next(ln for ln in out.splitlines()
                    if ln.split()[:1] == [f"params.{field}"])
        assert line.split(None, 1)[1] == text
