"""Tiny-scale self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload untraced and traced at the tiny scale (a few seconds
each), checks that every metric is printed with its unit and that the
traced counts equal the values computed from the configs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, res = _bench(workload, 0)
    assert res["correct"] and res["failed"] == 0
    n = len(workloads.configs(workload, "tiny", SEED, 0))
    assert res["attempted"] >= 2 * n and res["attempted"] % n == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, m in res["metrics"].items():
        assert m["unit"] == run.END_TO_END[name]
        assert m["value"] > 0
    table = "\n".join(lines[:-1])
    for kind in workloads.kinds(workload):
        assert f"exp_s.{kind} " in table
    assert "fail_frac " in table


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_match_the_configs(workload):
    _, res = _bench(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.PER_LAYER)
    for name, m in res["metrics"].items():
        assert m["unit"] == run.PER_LAYER[name]
    cfgs = workloads.configs(workload, "tiny", SEED, 0)
    got = {name: m["value"] for name, m in res["metrics"].items()}
    assert got["walk.engine.walker_steps"] == \
        workloads.expected_walker_steps(cfgs)
    assert got["green.bound.chain_steps"] == \
        workloads.expected_bound_chain_steps(cfgs)
    assert got["walk.simulate.steps"] == \
        workloads.expected_simulate_steps(cfgs)
    assert got["cli.output_bytes"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bench / "reference_digests.json").write_bytes(
        (HERE / "reference_digests.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "own-env",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
