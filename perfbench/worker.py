"""Run one workload in this (fresh) interpreter and print raw results.

Started by run.py, never by hand.  Set-up is everything from interpreter
start to the first timed experiment: the numpy/scipy/rwre imports, config
generation and validation, and one warm-up run of every kind at a tiny
size.  The last stdout line is a JSON object; with --setup-only it holds
only the monotonic time at which set-up finished and the machine's
slowdown against the reference speed, measured right after.

Untraced (--trace 0): passes for about --seconds, each with its own inputs,
timed per experiment.  Traced (--trace 1): the inputs of pass 0 four
times, alternately untraced and with spans around the rwre layers; the
two traced passes must give the same counts, and every pass the same
output digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy import special

import rwre
from rwre import cli

import checks
import tracer as tracing
import workloads

# Median reference_kernel() time on the machine the baseline was measured
# on; times are reported in seconds at that speed.
KERNEL_NOMINAL_S = 0.010
_KERNEL_U = np.linspace(0.01, 0.99, 12000)
_KERNEL_OUT = np.empty_like(_KERNEL_U)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and gammaincinv work.

    On shared virtual machines (the 2-vCPU KVM guest of the baseline in
    README.md) the CPU switches between speed regimes up to 1.7x apart
    that last seconds to minutes.  Timing this kernel next to each
    experiment measures the regime, so that times can be reported at one
    reference speed.  It allocates nothing and runs with the garbage
    collector off, so what the previous experiment left behind (heap,
    caches, pending collections) does not change its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(60000):
            s += i * i
        special.gammaincinv(4.0, _KERNEL_U, out=_KERNEL_OUT)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def machine() -> dict:
    """What the numbers and digests depend on besides the code."""
    return {"cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v, "") for v in THREAD_VARS}}


class Runner:
    """Runs configs through rwre.cli.run and keeps what the checks need."""

    def __init__(self, out: Path):
        self.out = out
        self.runs = []   # (cfg, out_dir, outputs or None, reference or None)
        self.errors = {}

    def run_pass(self, cfgs, label: str, ref=None) -> dict:
        """Run one pass; times in seconds as measured ("raw") and at the
        reference speed (each experiment scaled by the kernel times taken
        just before and just after it)."""
        kind_s, raw_s = {}, {}
        kernel = reference_kernel()
        for i, cfg in enumerate(cfgs):
            out_dir = self.out / label / str(i)
            t0 = time.perf_counter()
            try:
                # looked up on the module so that a traced cli.run is used
                manifest = cli.run(cfg, out_dir=out_dir, workers=1)
            except Exception:  # noqa: BLE001 -- counted as a failure
                manifest = None
                self.errors[len(self.runs)] = traceback.format_exc()
            dt = time.perf_counter() - t0
            after = reference_kernel()
            k = cfg["kind"]
            raw_s[k] = raw_s.get(k, 0.0) + dt
            kind_s[k] = kind_s.get(k, 0.0) + dt * 2 * KERNEL_NOMINAL_S / (
                kernel + after)
            kernel = after
            outputs = manifest["outputs"] if manifest else None
            self.runs.append((cfg, out_dir, outputs,
                              ref[i] if ref is not None else None))
        return {"wall_s": sum(kind_s.values()),
                "raw_wall_s": sum(raw_s.values()), "kind_s": kind_s}

    def problems(self) -> list:
        """One list of problems per experiment run, in run order."""
        out = []
        for j, (cfg, out_dir, outputs, ref) in enumerate(self.runs):
            if outputs is None:
                out.append([f"raised: {self.errors[j].strip()}"])
                continue
            try:
                p = checks.oracle_problems(cfg, out_dir)
            except (OSError, ValueError, KeyError, TypeError) as e:
                p = [f"outputs not as expected: {e!r}"]
            if ref is not None:
                p += checks.digest_problems(outputs, ref)
            out.append(p)
        return out


def _traced_pass(runner, cfgs, label, ref) -> tuple:
    """One pass with spans around the rwre layers; (wall_s, records)."""
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        first = len(runner.runs)
        wall = runner.run_pass(cfgs, label, ref)["wall_s"]
    finally:
        tracing.uninstall(undo)
    # the digested outputs; the manifest also holds the wall time
    out_bytes = sum((out_dir / name).stat().st_size
                    for _, out_dir, outputs, _ in runner.runs[first:]
                    for name in outputs or ())
    return wall, tracing.pass_records(tr, out_bytes)


def _trace(runner, cfgs, ref, result, notes) -> None:
    """Untraced and traced passes over the same inputs, alternating."""
    walls = {"u": [], "t": []}
    records = []
    for t in range(2):
        walls["u"].append(runner.run_pass(cfgs, f"u{t}", ref)["wall_s"])
        wall, rec = _traced_pass(runner, cfgs, f"t{t}", ref)
        walls["t"].append(wall)
        records.append(rec)
    n = len(cfgs)
    for j in range(n, len(runner.runs)):
        a, b = runner.runs[j % n][2], runner.runs[j][2]
        if a is not None and b is not None and a != b:
            notes.append(f"{runner.runs[j][0]['kind']} outputs of "
                         f"{runner.runs[j][1].parent.name} differ from the "
                         "first untraced pass")
    c0, c1 = tracing.counts(records[0]), tracing.counts(records[1])
    for name in sorted(c0):
        if c0[name] != c1[name]:
            notes.append(f"count {name} differs between traced passes: "
                         f"{c0[name]} != {c1[name]}")
    layers = tracing.layer_metrics(records)
    layers["tracing_overhead_s"] = (sum(walls["t"]) - sum(walls["u"])) / 2
    expected = {
        "walk.engine.walker_steps": workloads.expected_walker_steps(cfgs),
        "walk.simulate.steps": workloads.expected_simulate_steps(cfgs),
        "green.bound.chain_steps":
            workloads.expected_bound_chain_steps(cfgs)}
    for name, value in expected.items():
        if layers[name] != value:
            notes.append(f"count {name} = {layers[name]}, the configs "
                         f"give {value}")
    result["layers"] = layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True, choices=("full", "tiny"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (reference digests)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", default=None,
                    help="reference digests file; pass it for its seed only")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    w = args.workload

    def plan(p):
        return workloads.configs(w, args.scale, args.seed, p)

    # passes differ only in master_seed, so pass 0 validates them all
    for cfg in plan(0):
        errors = cli.validate_config(cfg)
        if errors:
            print(f"invalid benchmark config: {errors}", file=sys.stderr)
            return 3
    Runner(out / "warmup").run_pass(
        workloads.configs(w, "warmup", args.seed, "warmup"), "w")
    ready = time.monotonic()
    slowdown = sorted(reference_kernel() for _ in range(3))[1] \
        / KERNEL_NOMINAL_S
    if args.setup_only:
        print(json.dumps({"ready": ready, "slowdown": slowdown}))
        return 0

    reference = {}
    if args.reference:
        doc = json.loads(Path(args.reference).read_text())
        reference = doc["digests"].get(w, {})
    runner = Runner(out)
    result = {"ready": ready, "slowdown": slowdown, "machine": machine()}
    notes = []
    if args.trace:
        _trace(runner, plan(0), reference.get("0"), result, notes)
    else:
        # distinct inputs per pass, so no pass reuses another's environments
        passes = []

        def another_pass() -> bool:
            if args.passes:
                return len(passes) < args.passes
            # at least two; then only a pass that should end in time
            return len(passes) < 2 or (
                time.monotonic() - ready
                + max(p["raw_wall_s"] for p in passes) <= args.seconds)

        while another_pass():
            p = len(passes)
            passes.append(runner.run_pass(plan(p), f"p{p}",
                                          reference.get(str(p))))
        result["passes"] = passes
        n = len(plan(0))
        result["outputs_by_pass"] = [
            [r[2] for r in runner.runs[p * n:(p + 1) * n]]
            for p in range(len(passes))]
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = runner.problems()
    result["experiments"] = [
        {"kind": cfg["kind"], "label": str(out_dir.relative_to(out)),
         "problems": p}
        for (cfg, out_dir, _, _), p in zip(runner.runs, problems)]
    result["notes"] = notes
    result["rwre"] = str(Path(rwre.__file__).resolve())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
