"""Correctness checks on the files one ``rwre.cli.run`` call wrote.

Oracles hold for any seed: every number in the summary and the CSV tables
is finite, probabilities lie in [0, 1], the ladder formula agrees with the
exact linear solve within acceptance criterion 3's tolerance, and exit-time
reports a truncation count for every radius.  For the reference seed the
output digests must also equal the stored reference digests.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# acceptance criterion 3: |ladder - exact| < 1e-6
LADDER_TOL = 1e-6

# CSV columns that hold probabilities, per kind
_PROB_COLUMNS = {
    "clt": ("ks_pvalue",),
    "variation": ("i_hat", "ci_lo", "ci_hi"),
}


def _numbers(obj, path="results"):
    """(path, value) for every number in a summary, non-finite ones as
    the strings the CLI writes for them."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{path}[{i}]")
    elif isinstance(obj, bool):
        return
    elif isinstance(obj, (int, float)) or obj is None:
        yield path, obj
    elif obj in ("nan", "inf", "-inf"):
        yield path, float(obj)


def _prob(problems, name, value):
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        problems.append(f"{name} = {value!r} is not a probability")


def oracle_problems(cfg: dict, out_dir: Path) -> list:
    """Oracle violations in the outputs of one experiment."""
    problems = []
    kind = cfg["kind"]
    results = json.loads((out_dir / "summary.json").read_text())["results"]
    for path, value in _numbers(results):
        if value is None or not math.isfinite(value):
            problems.append(f"{path} = {value!r} is not a finite number")
    for table in sorted(out_dir.glob("*.csv")):
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for r, row in enumerate(rows):
            for col, cell in row.items():
                if cell == "":
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{table.name}[{r}].{col} = {cell}")
                elif col in _PROB_COLUMNS.get(kind, ()):
                    _prob(problems, f"{table.name}[{r}].{col}", value)
    if kind == "coupling":
        for row in results["per_start"]:
            _prob(problems, f"p_neq{row['x0']}", row["p_neq"])
    elif kind == "joint-regen":
        _prob(problems, "confirmed_fraction", results["confirmed_fraction"])
        for m, p in results["tail_P_Lambda_gt"].items():
            _prob(problems, f"tail_P_Lambda_gt[{m}]", p)
    elif kind == "green":
        err = results["max_ladder_vs_solve"]
        if not err < LADDER_TOL:
            problems.append(f"max_ladder_vs_solve = {err!r} >= {LADDER_TOL}")
    elif kind == "exit-time":
        truncated = results["truncated"]
        reps = cfg["params"]["reps"]
        for r in cfg["params"]["r_grid"]:
            n = truncated.get(str(r))
            if not (isinstance(n, int) and 0 <= n <= reps):
                problems.append(f"truncated[{r}] = {n!r} not a count in "
                                f"[0, {reps}]")
    return problems


def digest_problems(outputs: dict, reference: dict) -> list:
    """Files whose digest differs from the reference run."""
    return [f"{name}: digest {outputs.get(name)} != reference {ref}"
            for name, ref in sorted(reference.items())
            if outputs.get(name) != ref] + \
           [f"{name}: not in the reference run"
            for name in sorted(set(outputs) - set(reference))]
