"""Record the reference output digests used by the correctness gate.

    python3 perfbench/record_reference.py

Runs passes 0-4 of every workload at the reference seed (full scale) in a
worker and writes their output digests, with the numpy and scipy versions,
to perfbench/reference_digests.json.  Run it only when a change is meant
to alter outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

SEED = 1
PASSES = 5


def main() -> int:
    out_root = run.ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=out_root))
    digests, versions = {}, {}
    try:
        for w in run.WORKLOADS:
            _, res = run.spawn(
                ["--workload", w, "--seed", str(SEED), "--scale", "full",
                 "--passes", str(PASSES), "--out", str(out / w)],
                time.monotonic() + 600)
            bad = [e for e in res["experiments"] if e["problems"]]
            if bad:
                print(f"{w}: failing experiments, not recorded: {bad}",
                      file=sys.stderr)
                return 1
            digests[w] = {str(p): outs for p, outs in
                          enumerate(res["outputs_by_pass"])}
            versions = {k: res["machine"][k] for k in ("numpy", "scipy")}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    doc = {"seed": SEED, "versions": versions, "digests": digests}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
