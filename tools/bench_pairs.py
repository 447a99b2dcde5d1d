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
how many pairs the change read lower (``change_lower_in_pairs``), and for
each end-to-end metric a ``verdict`` (see ``verdict``), its ``bound`` in
BENCHMARK.json read as a fraction of the parent's median, and a ``drift``
(see ``drift``), which records a consistent slowdown the bound allows.
The console shows the verdicts, any drift, and for each ``exp_s.<kind>``
its median on both sides and its ``change_lower_in_pairs``.
Each side also records per run the slowdown of perfbench's reference
kernel at set-up and the number of passes its times are the median of,
so a run slow as a whole shows beside its times.
Each side records its failed share, failed / attempted experiments over
all its runs, and a workload lists under ``rejects`` the rules beyond the
metric bounds that its runs break (see ``rejects``).

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
_TIMES = re.compile(r"times at reference speed \(slowdown (\S+) at set-up\), "
                    r"median of (\d+) passes")
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
    if proc.returncode or not proc.stdout.strip():
        raise RunFailed({
            "workload": workload, "side": side, "seed": seed, "trace": trace,
            "exit_code": proc.returncode,
            "stderr_tail": proc.stderr.splitlines()[-_STDERR_TAIL:]})
    return {**parse_run(proc.stdout), "stderr": proc.stderr.strip()}


def parse_run(stdout: str) -> dict:
    """What a perfbench run printed: its rows {name: value}, machine line
    and result, and for an untraced run the reference kernel's slowdown at
    set-up and the number of passes its times are the median of (None for
    a traced run, which prints neither).  A whole run slower or faster
    than the rest then shows in its slowdown."""
    lines = stdout.splitlines()
    rows = {}
    for line in lines:
        m = _ROW.match(line)
        if m:
            rows[m.group(1)] = float(m.group(2))
    machine = next(line.split("machine: ", 1)[1] for line in lines
                   if "machine: " in line)
    times = next(filter(None, map(_TIMES.search, lines)), None)
    result = json.loads(lines[-1])
    return {"rows": rows, "machine": machine, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "slowdown": float(times.group(1)) if times else None,
            "passes": int(times.group(2)) if times else None}


def _quartiles(vals: list) -> list:
    """[q1, median, q3] of vals, the median three times for one value."""
    return (statistics.quantiles(vals, n=4, method="inclusive")
            if len(vals) > 1 else vals * 3)


def verdict(parent: dict, change: dict, bound: float, better: str) -> str:
    """The verdict on one end-to-end metric of one workload, from each
    side's runs {seed: value}, bound a fraction of the parent's median and
    better "lower" or "higher":

    - 'worse': the change's median is worse than the parent's by more
      than bound;
    - 'unresolved': not worse, but the parent's quartile spread exceeds
      bound, unless every change run is better than every parent run;
    - 'gain': of at least 10 pairs (runs of both sides at one seed), the
      change is better in 9/10 or more, ties counting for neither, and
      the medians differ by more than the parent's quartile spread;
    - 'no regression': anything else.
    """
    sign = 1.0 if better == "lower" else -1.0   # lower is then better
    p = {s: sign * v for s, v in parent.items()}
    c = {s: sign * v for s, v in change.items()}
    q1, med, q3 = _quartiles(list(p.values()))
    change_med = statistics.median(c.values())
    allowed = bound * abs(med)
    if change_med - med > allowed:
        return "worse"
    if q3 - q1 > allowed and max(c.values()) >= min(p.values()):
        return "unresolved"
    if _consistently_lower(c, p, q3 - q1):
        return "gain"
    return "no regression"


def drift(parent: dict, change: dict, better: str) -> str:
    """The mirror of a 'gain' on one end-to-end metric of one workload,
    from each side's runs {seed: value}: 'slower' when, of at least 10
    pairs, the change is worse in 9/10 or more, ties counting for neither,
    and the medians differ by more than the parent's quartile spread; else
    'none'.  So a consistent slowdown inside the bound, which verdict
    calls 'no regression', is recorded too."""
    sign = 1.0 if better == "lower" else -1.0   # lower is then better
    p = {s: sign * v for s, v in parent.items()}
    c = {s: sign * v for s, v in change.items()}
    q1, _, q3 = _quartiles(list(p.values()))
    return "slower" if _consistently_lower(p, c, q3 - q1) else "none"


def _consistently_lower(low: dict, high: dict, spread: float) -> bool:
    """Of at least 10 pairs (runs {seed: value} of both at one seed), low
    is lower in 9/10 or more, ties counting for neither, and its median
    lower than high's by more than spread."""
    paired = [s for s in low if s in high]
    wins = sum(low[s] < high[s] for s in paired)
    return len(paired) >= 10 and 10 * wins >= 9 * len(paired) \
        and statistics.median(high.values()) \
        - statistics.median(low.values()) > spread


def _summary(per_seed: dict) -> dict:
    q1, med, q3 = _quartiles(list(per_seed.values()))
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "per_seed": {s: round(v, 4) for s, v in per_seed.items()}}


def _exp_rows(run: dict) -> tuple:
    """The run's per-kind experiment time rows, exp_s.<kind>, sorted."""
    return tuple(sorted(k for k in run["rows"] if k.startswith("exp_s.")))


def _side(runs: dict) -> dict:
    """Summaries of one side's runs, {seed: bench(...)}."""
    if not runs:
        return {"runs": 0}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    out = {"runs": len(runs),
           "correct": all(r["correct"] for r in runs.values()),
           "attempted": attempted, "failed": failed,
           "failed_share": failed / attempted if attempted else 0.0}
    for name in END_TO_END:
        out[name] = _summary({s: r["rows"][name] for s, r in runs.items()})
    kinds = _exp_rows(next(iter(runs.values())))
    out["exp_s"] = {k[len("exp_s."):]: _summary(
        {s: r["rows"][k] for s, r in runs.items()}) for k in kinds}
    if all(r.get("slowdown") is not None for r in runs.values()):
        out["slowdown"] = _summary({s: r["slowdown"]
                                    for s, r in runs.items()})
        out["passes"] = {s: r["passes"] for s, r in runs.items()}
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
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.workload:
        args.workload = [w["name"] for w in bench_json["workloads"]]
    metrics = {m["name"]: m for m in bench_json["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: checkout(getattr(args, side), Path(tmp), side)
                for side in SIDES}
        doc = collect(args, dirs, metrics)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    for w, entry in doc["workloads"].items():
        for name, text in entry.get("verdict", {}).items():
            print(f"{w} {name}: {text}")
        for line in kind_lines(w, entry):
            print(line)
        for name, text in entry.get("drift", {}).items():
            if text != "none":
                print(f"{w} {name}: drift {text}")
        for text in entry["rejects"]:
            print(f"{w} rejects: {text}")
    if "failed_run" in doc:
        failed = doc["failed_run"]
        print(f"failed: {failed['workload']} {failed['side']} seed "
              f"{failed['seed']}: exit {failed['exit_code']}\n"
              + "\n".join(failed["stderr_tail"]), file=sys.stderr)
        return 1
    return 0


def _entry(runs: dict, first: dict, metrics: dict) -> dict:
    """A workload's record from its runs {side: {seed: bench(...)}}, the
    side that went first in each pair, {seed: side}, and the end-to-end
    metrics of BENCHMARK.json by name; only pairs with both runs count in
    change_lower_in_pairs, and a verdict needs runs on both sides."""
    entry = {side: _side(runs[side]) for side in SIDES}
    paired = [s for s in first if all(s in runs[side] for side in SIDES)]
    names = END_TO_END + (_exp_rows(runs["change"][paired[-1]])
                          if paired else ())
    entry["change_lower_in_pairs"] = {name: "%d/%d" % (sum(
        runs["change"][s]["rows"][name] < runs["parent"][s]["rows"][name]
        for s in paired), len(paired)) for name in names}
    if all(runs[side] for side in SIDES):
        values = {name: [{s: r["rows"][name] for s, r in runs[side].items()}
                         for side in SIDES] for name in metrics}
        entry["verdict"] = {name: verdict(*values[name], m["bound"],
                                          m["better"])
                            for name, m in metrics.items()}
        entry["drift"] = {name: drift(*values[name], m["better"])
                          for name, m in metrics.items()}
    entry["rejects"] = rejects(runs, entry)
    entry["first_in_pair"] = first
    return entry


def kind_lines(workload: str, entry: dict) -> list:
    """One console line per exp_s.<kind> of a workload's record: the
    median on both sides and the pairs in which the change read lower, so
    a claim that one kind carries shows beside the verdicts."""
    sides = [entry[side].get("exp_s", {}) for side in SIDES]
    return [f"{workload} exp_s.{kind}: {sides[0][kind]['median']:.4f} -> "
            f"{sides[1][kind]['median']:.4f} s, lower in "
            f"{entry['change_lower_in_pairs'][f'exp_s.{kind}']} pairs"
            for kind in sides[1] if kind in sides[0]
            and f"exp_s.{kind}" in entry["change_lower_in_pairs"]]


def rejects(runs: dict, entry: dict) -> list:
    """The rejection rules beyond the metric bounds that a workload's runs
    break: every run of either side that printed correct: false, and a
    change whose failed share (failed / attempted over all its runs)
    exceeds the parent's."""
    out = [f"{side} seed {s}: correct false" for side in SIDES
           for s, r in runs[side].items() if not r["correct"]]
    share = {side: entry[side].get("failed_share", 0.0) for side in SIDES}
    if share["change"] > share["parent"]:
        out.append(f"failed share {share['change']:.4g} of the change "
                   f"exceeds the parent's {share['parent']:.4g}")
    return out


def collect(args, dirs: dict, metrics: dict) -> dict:
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
        workloads[w] = _entry(runs, first, metrics)
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
