"""Start-up cost: `import rwre` loads numpy and scipy.special only.

No kind loads scipy.stats or scipy.linalg: the CLT check's KS p-value is
computed in `rwre.ks`, and its null-space directions by numpy's SVD, both
from numpy and scipy.special.  Each check runs in a fresh interpreter,
because the test session itself may have loaded them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rwre
from rwre.cli import KINDS
from test_cli import _tiny

HEAVY = ("scipy.stats", "scipy.linalg")

# imports rwre and its CLI, runs the configs given as JSON on argv[1]
# into the directory argv[2], and prints which of HEAVY are loaded
_SCRIPT = """
import json, sys
import rwre, rwre.cli
for i, cfg in enumerate(json.loads(sys.argv[1])):
    rwre.cli.run(cfg, out_dir=f"{sys.argv[2]}/{i}", workers=1)
print(json.dumps([m for m in %r if m in sys.modules]))
""" % (HEAVY,)


def _loaded_after(configs, out_dir) -> set:
    src = str(Path(rwre.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(configs), str(out_dir)],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_import_and_non_clt_runs_skip_scipy_stats_and_linalg(tmp_path):
    assert _loaded_after([], tmp_path) == set()
    others = [_tiny(k) for k in KINDS if k != "clt"]
    assert len(others) == len(KINDS) - 1
    assert _loaded_after(others, tmp_path) == set()


def test_clt_run_loads_neither_scipy_stats_nor_linalg(tmp_path):
    assert _loaded_after([_tiny("clt")], tmp_path) == set()
