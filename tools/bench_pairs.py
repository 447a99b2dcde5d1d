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


def bench(where: Path, workload: str, seed: int, seconds: int,
          trace: int) -> dict:
    """One perfbench run: its printed rows, machine line and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=where, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{where} {workload} seed {seed}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
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
    return 0


def collect(args, dirs: dict) -> dict:
    machine = None
    workloads, traced = {}, {}
    for w in args.workload:
        runs = {side: {} for side in SIDES}
        first = {}
        for i in range(args.pairs):
            seed = str(args.first_seed + i)
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first[seed] = order[0]
            for side in order:
                r = bench(dirs[side], w, int(seed), args.seconds, 0)
                runs[side][seed] = r
                machine = machine or r["machine"]
                print(f"{w} seed {seed} {side}: wall_s "
                      f"{r['rows']['wall_s']:.4f} correct {r['correct']}",
                      flush=True)
        entry = {side: _side(runs[side]) for side in SIDES}
        entry["change_lower_in_pairs"] = {name: "%d/%d" % (sum(
            runs["change"][s]["rows"][name] < runs["parent"][s]["rows"][name]
            for s in first), len(first))
            for name in END_TO_END + _exp_rows(runs["change"][seed])}
        entry["first_in_pair"] = first
        workloads[w] = entry
        if args.trace_seed is not None:
            traced[w] = {}
            for side in SIDES:
                r = bench(dirs[side], w, args.trace_seed, args.seconds, 1)
                traced[w][side] = {"correct": r["correct"], **{
                    k: round(v, 4) for k, v in r["rows"].items()}}
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
    }


if __name__ == "__main__":
    sys.exit(main())
