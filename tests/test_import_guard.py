"""Importing cfshrink runs none of the interval kernels.

The kernels are the expensive layer (`ipow_neg` sets up every envelope), so
work at import time would be paid by every process, before any request.
The check runs in a fresh interpreter: it loads `cfshrink.ivec` alone,
wraps the kernels with counters, then imports every other module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, importlib.util, json, pkgutil, sys

spec = importlib.util.find_spec("cfshrink")
pkg = importlib.util.module_from_spec(spec)
sys.modules["cfshrink"] = pkg  # the package, its __init__ not yet run
import cfshrink.ivec as ivec

counts = {}
for name in ("ipow_neg", "iexp", "iln", "_exp_one_sided", "_ln_one_sided"):
    counts[name] = 0

    def counted(*args, _fn=getattr(ivec, name), _name=name, **kwargs):
        counts[_name] += 1
        return _fn(*args, **kwargs)

    setattr(ivec, name, counted)
spec.loader.exec_module(pkg)
for info in pkgutil.iter_modules(pkg.__path__):
    importlib.import_module("cfshrink." + info.name)
print(json.dumps({"counts": counts, "modules": sorted(m for m in sys.modules if m.startswith("cfshrink"))}))
"""


def test_import_runs_no_interval_kernel():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    report = json.loads(out.splitlines()[-1])
    assert "cfshrink._transfer" in report["modules"] and "cfshrink.cli" in report["modules"]
    assert report["counts"] == {name: 0 for name in report["counts"]} and len(report["counts"]) == 5
