"""Verdicts of tools/bench_pairs.py on synthetic parent/change runs."""

from pathlib import Path
import types

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    """tools/bench_pairs.py, executed from its source (no bytecode)."""
    mod = types.ModuleType("_bench_pairs")
    mod.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), mod.__dict__)
    return mod


def _runs(values) -> dict:
    """{seed: value} at seeds 1, 2, ..."""
    return {str(i + 1): v for i, v in enumerate(values)}


# the parent: median 1.0, quartiles 0.99625-1.00375 (spread 0.0075)
PARENT = [0.99, 0.995, 0.995, 1.0, 1.0, 1.0, 1.0, 1.005, 1.005, 1.01]


@pytest.mark.parametrize("parent, change, bound, better, want", [
    # median 1.3 against 1.0, over the 25% bound
    (PARENT, [1.3] * 10, 0.25, "lower", "worse"),
    # the same runs of a higher-is-better metric
    (PARENT, [0.7] * 10, 0.25, "higher", "worse"),
    # spread 0.0075 over a 0.5% bound, and a change run above a parent run
    (PARENT, [0.996] * 10, 0.005, "lower", "unresolved"),
    # ... unless every change run beats every parent run
    (PARENT, [0.98] * 10, 0.005, "lower", "gain"),
    # lower in 9/10 pairs, medians 0.05 apart against a 0.0075 spread
    (PARENT, [0.95] * 9 + [1.2], 0.25, "lower", "gain"),
    # lower in 8/10 pairs only
    (PARENT, [0.95] * 8 + [1.2, 1.2], 0.25, "lower", "no regression"),
    # lower in 10/10 pairs, but medians only 0.005 apart
    ([v + 0.006 for v in PARENT], [v + 0.001 for v in PARENT], 0.25,
     "lower", "no regression"),
    # ties count for neither side: 8 wins of 10 pairs
    (PARENT, [v - 0.05 for v in PARENT[:8]] + PARENT[8:], 0.25, "lower",
     "no regression"),
    # 5/5 wins: fewer than 10 pairs make no gain
    (PARENT[:5], [0.9] * 5, 0.25, "lower", "no regression"),
    # a small slowdown inside the bound
    (PARENT, [1.02] * 10, 0.25, "lower", "no regression"),
])
def test_verdict(parent, change, bound, better, want):
    assert _tool().verdict(_runs(parent), _runs(change), bound,
                           better) == want


@pytest.mark.parametrize("parent, change, better, want", [
    # 2% slower in 10/10 pairs, inside any bound: medians 0.02 apart
    # against a 0.0075 spread
    (PARENT, [1.02] * 10, "lower", "slower"),
    (PARENT, [v + 0.02 for v in PARENT], "lower", "slower"),
    # the same runs of a higher-is-better metric
    (PARENT, [0.98] * 10, "higher", "slower"),
    # worse in 9/10 pairs
    (PARENT, [1.05] * 9 + [0.9], "lower", "slower"),
    # worse in 8/10 pairs only
    (PARENT, [1.05] * 8 + [0.9, 0.9], "lower", "none"),
    # worse in 10/10 pairs, but medians only 0.005 apart
    ([v + 0.001 for v in PARENT], [v + 0.006 for v in PARENT], "lower",
     "none"),
    # ties count for neither side: 8 losses of 10 pairs
    (PARENT, [v + 0.05 for v in PARENT[:8]] + PARENT[8:], "lower", "none"),
    # 5/5 losses: fewer than 10 pairs make no drift
    (PARENT[:5], [1.1] * 5, "lower", "none"),
    # a gain is no drift
    (PARENT, [0.95] * 10, "lower", "none"),
])
def test_drift(parent, change, better, want):
    assert _tool().drift(_runs(parent), _runs(change), better) == want


def test_entry_records_a_slowdown_inside_the_bound_as_drift():
    tool = _tool()
    metrics = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
               "setup_s": {"name": "setup_s", "better": "lower",
                           "bound": 0.25}}

    def run(wall):
        return {"rows": {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 60.0},
                "correct": True, "attempted": 4, "failed": 0}

    runs = {"parent": {s: run(v) for s, v in _runs(PARENT).items()},
            "change": {s: run(1.02 * v) for s, v in _runs(PARENT).items()}}
    entry = tool._entry(runs, {s: "parent" for s in runs["parent"]}, metrics)
    assert entry["verdict"] == {"wall_s": "no regression",
                                "setup_s": "no regression"}
    assert entry["drift"] == {"wall_s": "slower", "setup_s": "none"}
    # a failed first run leaves one side empty: no drift either
    runs["change"] = {}
    assert "drift" not in tool._entry(runs, {"1": "change"}, metrics)


def test_entry_gives_every_end_to_end_metric_a_verdict():
    tool = _tool()
    metrics = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
               "setup_s": {"name": "setup_s", "better": "lower",
                           "bound": 0.25},
               "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower",
                               "bound": 0.1}}

    def run(wall):
        return {"rows": {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 60.0},
                "correct": True, "attempted": 4, "failed": 0}

    runs = {"parent": {s: run(v) for s, v in _runs(PARENT).items()},
            "change": {s: run(2 * v) for s, v in _runs(PARENT).items()}}
    first = {s: "parent" for s in runs["parent"]}
    entry = tool._entry(runs, first, metrics)
    assert entry["verdict"] == {"wall_s": "worse",
                                "setup_s": "no regression",
                                "peak_rss_mb": "no regression"}
    # a failed first run leaves one side empty: no verdict
    runs["change"] = {}
    assert "verdict" not in tool._entry(runs, {"1": "change"}, metrics)


def _counted_runs(parent, change) -> dict:
    """Runs {side: {seed: run}} from (correct, attempted, failed) triples,
    one per seed."""
    def run(correct, attempted, failed):
        return {"rows": {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 60.0},
                "correct": correct, "attempted": attempted, "failed": failed}
    return {side: {str(i + 1): run(*t) for i, t in enumerate(triples)}
            for side, triples in (("parent", parent), ("change", change))}


@pytest.mark.parametrize("parent, change, want", [
    # correct runs, no failure on either side
    ([(True, 4, 0)] * 2, [(True, 4, 0)] * 2, []),
    # a change run that printed correct: false
    ([(True, 4, 0)] * 2, [(True, 4, 0), (False, 4, 0)],
     ["change seed 2: correct false"]),
    # a parent run that printed correct: false is listed too
    ([(False, 4, 0), (True, 4, 0)], [(True, 4, 0)] * 2,
     ["parent seed 1: correct false"]),
    # 1 of 8 experiments failed against 0 of 8
    ([(True, 4, 0)] * 2, [(False, 4, 1), (True, 4, 0)],
     ["change seed 1: correct false",
      "failed share 0.125 of the change exceeds the parent's 0"]),
    # the same share on both sides is no rejection of the change
    ([(True, 4, 1), (True, 4, 0)], [(True, 4, 0), (True, 4, 1)], []),
    # nor is a smaller one
    ([(True, 4, 2)] * 2, [(True, 4, 1)] * 2, []),
])
def test_entry_lists_the_rejection_rules_its_runs_break(parent, change,
                                                        want):
    tool = _tool()
    runs = _counted_runs(parent, change)
    metrics = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}
    entry = tool._entry(runs, {s: "parent" for s in runs["parent"]}, metrics)
    assert entry["rejects"] == want
    shares = [sum(t[2] for t in side) / sum(t[1] for t in side)
              for side in (parent, change)]
    assert [entry[side]["failed_share"] for side in ("parent", "change")] \
        == shares


# what an untraced perfbench run prints, shortened
_UNTRACED = """\
perfbench shared-env seed=7 trace=0 scale=full
  machine: 2 cpus (2 usable), python 3.11.7, numpy 2.4.6, scipy 1.17.1
  times at reference speed (slowdown 1.224 at set-up), median of 17 \
passes; 0 of 34 experiments failed
  wall_s                                        0.145217 s
  setup_s                                        0.444088 s
  peak_rss_mb                                     60.4727 MB
  exp_s.clt                                     0.0802281 s
{"correct": true, "attempted": 34, "failed": 0, "metrics": {}}
"""


def test_parse_run_reads_the_slowdown_and_passes():
    tool = _tool()
    run = tool.parse_run(_UNTRACED)
    assert run["rows"] == {"wall_s": 0.145217, "setup_s": 0.444088,
                           "peak_rss_mb": 60.4727, "exp_s.clt": 0.0802281}
    assert (run["slowdown"], run["passes"]) == (1.224, 17)
    assert run["machine"].startswith("2 cpus")
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 34, 0)
    # a traced run prints no reference speed line
    traced = _UNTRACED.replace("trace=0", "trace=1").splitlines()
    del traced[2]
    run = tool.parse_run("\n".join(traced))
    assert (run["slowdown"], run["passes"]) == (None, None)
    assert run["rows"]["wall_s"] == 0.145217


def test_side_records_each_runs_slowdown_and_passes():
    tool = _tool()
    runs = {}
    for seed, slowdown in [("1", 1.2), ("2", 1.38), ("3", 1.21)]:
        run = tool.parse_run(_UNTRACED.replace("1.224", str(slowdown)))
        runs[seed] = run
    side = tool._side(runs)
    assert side["slowdown"] == {"median": 1.21, "q1": 1.205, "q3": 1.295,
                                "per_seed": {"1": 1.2, "2": 1.38, "3": 1.21}}
    assert side["passes"] == {"1": 17, "2": 17, "3": 17}
    # canned runs without the line (traced, or built by hand) record none
    for run in runs.values():
        run["slowdown"] = None
    assert "slowdown" not in tool._side(runs)


def test_kind_lines_print_each_kinds_medians_and_pairs():
    tool = _tool()
    metrics = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}

    def run(wall, joint, regen):
        return {"rows": {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 60.0,
                         "exp_s.joint-regen": joint, "exp_s.regen": regen},
                "correct": True, "attempted": 4, "failed": 0}

    runs = {"parent": {s: run(v, 0.146, 0.2) for s, v in
                       _runs(PARENT).items()},
            "change": {s: run(v - 0.1, 0.05, 0.2 + 0.01 * (int(s) % 2))
                       for s, v in _runs(PARENT).items()}}
    entry = tool._entry(runs, {s: "parent" for s in runs["parent"]}, metrics)
    assert tool.kind_lines("sequential", entry) == [
        "sequential exp_s.joint-regen: 0.1460 -> 0.0500 s, lower in 10/10 "
        "pairs",
        "sequential exp_s.regen: 0.2000 -> 0.2050 s, lower in 0/10 pairs"]
    # a side with no runs has no medians to print
    runs["change"] = {}
    assert tool.kind_lines("sequential", tool._entry(
        runs, {"1": "change"}, metrics)) == []
