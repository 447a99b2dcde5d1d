import json
from pathlib import Path

import pytest

from rwre.cli import main, run, validate_config

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


def test_run_worker_count_invariance(tmp_path):
    cases = [
        ("regen", DRIFT_MODEL,
         {"n_paths": 4, "horizon": 3000, "margin": 10}, 4),
        ("quenched-mean", DIRICHLET_MODEL,
         {"n_grid": [8, 16], "n_env": 30, "m_walks": 4}, 2),
        ("clt", DIRICHLET_MODEL,
         {"n": 16, "m_walks": 32, "n_env": 2, "v": [0.6, 0.0],
          "D": [[0.25, 0.0], [0.0, 0.4]]}, 2),
    ]
    for kind, model, params, workers in cases:
        cfg = {"kind": kind, "model": model, "params": params,
               "master_seed": 6}
        m1 = run(cfg, out_dir=tmp_path / kind / "w1", workers=1)
        m2 = run(cfg, out_dir=tmp_path / kind / "w2", workers=workers)
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


def test_runtime_error_exit_code(tmp_path):
    # valid schema but failing at runtime: joint-regen from off-lattice start
    cfg = {"kind": "joint-regen", "model": DRIFT_MODEL,
           "params": {"x0": [1, 0], "reps": 2, "margin": 5}}
    path = _write(tmp_path, "jr.json", cfg)
    assert main(["joint-regen", "--config", path,
                 "--out", str(tmp_path / "jr")]) == 2
