"""rwre-lab benchmark: one workload per invocation, run through rwre.cli.run.

    python3 perfbench/run.py --workload shared-env --seed 1 --seconds 20 --trace 0

Run from the repository root (``src/rwre`` must exist there).  Every
experiment runs in a worker interpreter with ``workers=1`` and BLAS threads
pinned to 1.  With ``--trace 0`` the result holds the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); the per-kind times (exp_s.<kind>) and
fail_frac are printed in the table above it.  With ``--trace 1`` it holds
the per-layer metrics of a traced run.  The last stdout line is the JSON
result; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference_digests.json"

SETUP_PROBES = 2       # set-up-only interpreters besides the measuring one
TIME_LIMIT_S = 170     # whole run, so that it ends within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rng.site_keys.keys": "count",
    "rng.site_keys.ns_per_key": "ns",
    "rng.stream_u01_array.calls": "count",
    "rng.stream_u01_array.ns_per_call": "ns",
    "environment.vectors.sites": "count",
    "environment.vectors.us_per_site": "us",
    "environment.vectors.reuse_ratio": "ratio",
    "environment.cum_at.calls": "count",
    "environment.cum_at.distinct_ratio": "ratio",
    "environment.cum_at.us_per_call": "us",
    "walk.engine.walker_steps": "count",
    "walk.engine.self_ns_per_walker_step": "ns",
    "walk.simulate.steps": "count",
    "walk.simulate.ns_per_step": "ns",
    "regen.detect.path_steps": "count",
    "regen.detect.ns_per_step": "ns",
    "pair.coupled_triple.calls": "count",
    "pair.coupled_triple.triples": "count",
    "pair.coupled_triple.ms.p50": "ms",
    "pair.coupled_triple.ms.p99": "ms",
    "pair.joint_regen.calls": "count",
    "pair.joint_regen.ms.p50": "ms",
    "pair.joint_regen.ms.p99": "ms",
    "pair.intersection_curve.self_s": "s",
    "clt.quenched_samples.s": "s",
    "clt.clt_check.s": "s",
    "envprocess.variation_proxy.self_s": "s",
    "envprocess.ergodic_average.self_s": "s",
    "green.mc.iterations": "count",
    "green.mc.us_per_iteration": "us",
    "green.ladder.s": "s",
    "green.solve.calls": "count",
    "green.solve.ms_per_call": "ms",
    "green.bound.chain_steps": "count",
    "green.bound.ns_per_chain_step": "ns",
    "green.exit.chain_steps": "count",
    "green.exit.ns_per_chain_step": "ns",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "tracing_overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"),
                "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                "VECLIB_MAXIMUM_THREADS": "1"})
    return env


def spawn(args: list, deadline: float) -> tuple:
    """Run the worker; returns (monotonic start time, its JSON result)."""
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args,
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "rwre" / "__init__.py").is_file():
        raise BenchError(f"no rwre sources under {ROOT / 'src'}")
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=out_root))
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scale", args.scale]
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                t0, res = spawn(common + ["--setup-only", "--out",
                                          str(out / f"probe{i}")], deadline)
                setup.append((res["ready"] - t0, res["slowdown"]))
        main_args = common + ["--seconds", str(args.seconds), "--trace",
                              str(args.trace), "--out", str(out / "main")]
        doc = json.loads(REFERENCE.read_text())
        if args.scale == "full" and args.seed == doc["seed"]:
            main_args += ["--reference", str(REFERENCE)]
        t0, res = spawn(main_args, deadline)
        setup.append((res["ready"] - t0, res["slowdown"]))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    if not Path(res["rwre"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported rwre from {res['rwre']}")
    res["setup"] = setup
    return res


def _untraced_table(res, failed) -> dict:
    """name -> (value, unit) of everything an untraced run prints."""
    passes = res["passes"]
    med = statistics.median
    table = {
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "setup_s": (med(t / f for t, f in res["setup"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    for kind in passes[0]["kind_s"]:
        table[f"exp_s.{kind}"] = (med(p["kind_s"][kind] for p in passes), "s")
    table["fail_frac"] = (len(failed) / len(res["experiments"]), "ratio")
    table["wall_s.as_measured"] = (med(p["raw_wall_s"] for p in passes), "s")
    table["setup_s.as_measured"] = (med(t for t, _ in res["setup"]), "s")
    return table


def report(args, res) -> dict:
    """Print the table and return the result object."""
    exps = res["experiments"]
    failed = [e for e in exps if e["problems"]]
    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    print(f"  machine: {m['cpus']} cpus ({m['cpus_usable']} usable), python "
          f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, threads "
          + " ".join(f"{k}={v}" for k, v in m["threads"].items()))
    if args.trace:
        table = {name: (res["layers"][name], unit)
                 for name, unit in PER_LAYER.items()}
    else:
        table = _untraced_table(res, failed)
        print(f"  times at reference speed (slowdown {res['slowdown']:.3f} "
              f"at set-up), median of {len(res['passes'])} passes; "
              f"{len(failed)} of {len(exps)} experiments failed")
    for name, (value, unit) in table.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:40s} {shown} {unit}")
    for e in failed:
        print(f"FAILED {e['kind']} ({e['label']}):", file=sys.stderr)
        for p in e["problems"]:
            print(f"  {p}", file=sys.stderr)
    for note in res["notes"]:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    return {"correct": not failed and not res["notes"],
            "attempted": len(exps), "failed": len(failed),
            "metrics": {name: {"value": table[name][0],
                               "unit": table[name][1]} for name in names}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: a seconds-long run for the self-test")
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        res = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
