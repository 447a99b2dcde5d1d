"""Run alternating parent/change pairs of perfbench/run.py and write
BENCH_<label>.json.

Each side is a git revision, extracted with ``git archive`` into a fresh
directory, or an existing directory holding a checkout.  One call runs
the workloads named after ``--workload`` (every workload BENCHMARK.json
declares when it is left out), one after another, and writes them all to
one file.  Pair i of a workload runs both sides at seed
``first_seed + i``; the side that goes first alternates from pair to pair,
so a drift in machine speed falls on both.  Every run is a fresh
``python3 perfbench/run.py`` process in its side's directory.  With
``--trace-seed`` each side also makes one traced run per workload, whose
per-layer numbers are recorded as measured.  For each
end-to-end metric and each per-kind ``exp_s.<kind>``, a workload records in
how many pairs the change read lower (``change_lower_in_pairs``).

A run that exits nonzero, or prints nothing, ends the session: the file is
still written with every run collected so far, the failed run is recorded
under ``failed_run`` (workload, side, seed, exit code and the last lines
of its stderr), its side is marked ``correct: false``, and the tool exits
with status 1.

Example, the commit against its parent, 10 pairs of each of two
workloads:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload killed-walk shared-env --pairs 10 --first-seed 501 \\
        --label chain-kernels --code "what the change does" --trace-seed 1
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
_ROW = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")
_STDERR_TAIL = 20


class RunFailed(Exception):
    """A perfbench run that exited nonzero or printed nothing; args[0] is
    its record."""


def checkout(rev: str, workdir: Path, side: str) -> Path:
    """A directory holding `rev`: the directory itself, or an extract of
    the git revision."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    dest = workdir / side
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(dirs: dict, side: str, workload: str, seed: int, seconds: int,
          trace: int) -> dict:
    """One perfbench run of a side: its printed rows, machine line and
    result, or RunFailed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=dirs[side], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RunFailed({
            "workload": workload, "side": side, "seed": seed, "trace": trace,
            "exit_code": proc.returncode,
            "stderr_tail": proc.stderr.splitlines()[-_STDERR_TAIL:]})
    rows = {}
    for line in lines:
        m = _ROW.match(line)
        if m:
            rows[m.group(1)] = float(m.group(2))
    machine = next(line.split("machine: ", 1)[1] for line in lines
                   if "machine: " in line)
    result = json.loads(lines[-1])
    return {"rows": rows, "machine": machine, "correct": result["correct"],
            "failed": result["failed"], "stderr": proc.stderr.strip()}


def _summary(per_seed: dict) -> dict:
    vals = list(per_seed.values())
    q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                   if len(vals) > 1 else vals * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "per_seed": {s: round(v, 4) for s, v in per_seed.items()}}


def _exp_rows(run: dict) -> tuple:
    """The run's per-kind experiment time rows, exp_s.<kind>, sorted."""
    return tuple(sorted(k for k in run["rows"] if k.startswith("exp_s.")))


def _side(runs: dict) -> dict:
    """Summaries of one side's runs, {seed: bench(...)}."""
    if not runs:
        return {"runs": 0}
    out = {"runs": len(runs),
           "correct": all(r["correct"] for r in runs.values()),
           "failed": sum(r["failed"] for r in runs.values())}
    for name in END_TO_END:
        out[name] = _summary({s: r["rows"][name] for s, r in runs.items()})
    kinds = _exp_rows(next(iter(runs.values())))
    out["exp_s"] = {k[len("exp_s."):]: _summary(
        {s: r["rows"][k] for s, r in runs.items()}) for k in kinds}
    return out


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "unknown"
    return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                 if line.startswith("model name")), "unknown")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="git revision or checkout directory")
    ap.add_argument("--change", required=True,
                    help="git revision or checkout directory")
    ap.add_argument("--workload", action="extend", nargs="+",
                    help="one or more workloads (default: every workload "
                         "of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pair i runs at this seed + i")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace-seed", type=int,
                    help="also make one traced run per side at this seed")
    ap.add_argument("--label", required=True)
    ap.add_argument("--code", default="", help="what the change does")
    ap.add_argument("--out", help="default: BENCH_<label>.json in the repo")
    args = ap.parse_args(argv)
    if not args.workload:
        bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.workload = [w["name"] for w in bench_json["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: checkout(getattr(args, side), Path(tmp), side)
                for side in SIDES}
        doc = collect(args, dirs)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    if "failed_run" in doc:
        failed = doc["failed_run"]
        print(f"failed: {failed['workload']} {failed['side']} seed "
              f"{failed['seed']}: exit {failed['exit_code']}\n"
              + "\n".join(failed["stderr_tail"]), file=sys.stderr)
        return 1
    return 0


def _entry(runs: dict, first: dict) -> dict:
    """A workload's record from its runs {side: {seed: bench(...)}} and the
    side that went first in each pair, {seed: side}; only pairs with both
    runs count in change_lower_in_pairs."""
    entry = {side: _side(runs[side]) for side in SIDES}
    paired = [s for s in first if all(s in runs[side] for side in SIDES)]
    names = END_TO_END + (_exp_rows(runs["change"][paired[-1]])
                          if paired else ())
    entry["change_lower_in_pairs"] = {name: "%d/%d" % (sum(
        runs["change"][s]["rows"][name] < runs["parent"][s]["rows"][name]
        for s in paired), len(paired)) for name in names}
    entry["first_in_pair"] = first
    return entry


def collect(args, dirs: dict) -> dict:
    """Every pair of every workload, then its traced runs; a failed run
    ends the collection with what was collected so far."""
    machine = None
    workloads, traced = {}, {}
    failed = None
    for w in args.workload:
        runs = {side: {} for side in SIDES}
        first = {}
        try:
            for i in range(args.pairs):
                seed = str(args.first_seed + i)
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first[seed] = order[0]
                for side in order:
                    r = bench(dirs, side, w, int(seed), args.seconds, 0)
                    runs[side][seed] = r
                    machine = machine or r["machine"]
                    print(f"{w} seed {seed} {side}: wall_s "
                          f"{r['rows']['wall_s']:.4f} correct "
                          f"{r['correct']}", flush=True)
            if args.trace_seed is not None:
                traced[w] = {}
                for side in SIDES:
                    r = bench(dirs, side, w, args.trace_seed, args.seconds, 1)
                    traced[w][side] = {"correct": r["correct"], **{
                        k: round(v, 4) for k, v in r["rows"].items()}}
        except RunFailed as e:
            failed = e.args[0]
        workloads[w] = _entry(runs, first)
        if failed:
            workloads[w][failed["side"]]["correct"] = False
            break
    seeds = f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}"
    return {
        "label": args.label,
        "code": args.code,
        "command": "python3 perfbench/run.py --workload <workload> "
                   "--seed <seed> --trace <0|1>",
        "protocol": (f"{args.pairs} alternating parent/change pairs per "
                     f"workload ({seeds}), the side that goes first "
                     f"alternating by pair, each run a fresh process in a "
                     f"clean checkout of its side; --seconds "
                     f"{args.seconds}; written by tools/bench_pairs.py"),
        "machine": {"perfbench": machine, "cpu_model": cpu_model()},
        "units": "wall_s, setup_s and exp_s in s at the benchmark's "
                 "reference speed, peak_rss_mb in MB; traced per-layer "
                 "numbers as measured",
        "workloads": workloads,
        **({"traced_seed_%d" % args.trace_seed: traced}
           if args.trace_seed is not None else {}),
        **({"failed_run": failed} if failed else {}),
    }


if __name__ == "__main__":
    sys.exit(main())
