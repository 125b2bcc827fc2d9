"""The runtime needs nothing beyond the standard library.

A fresh interpreter, with networkx made unimportable, imports every
``repro`` module and runs a ``path-migration`` cell on a fat-tree under
general probing, which walks Yen's path search and the probe colouring.
No module it loads on the way may come from site-packages.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import importlib, pkgutil, sys, sysconfig
sys.modules["networkx"] = None  # importing it now raises ImportError
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
from repro.scenarios import ScenarioParams, run_scenario
record = run_scenario("path-migration", "general",
                      ScenarioParams(topology="fat-tree", flow_count=4))
assert record.completed, record.summary()
site = tuple(sysconfig.get_paths()[key] for key in ("purelib", "platlib"))
print(sorted(name for name, module in sys.modules.items()
             if name not in before and name.split(".")[0] != "repro"
             and (getattr(module, "__file__", None) or "").startswith(site)))
"""


def test_the_runtime_imports_no_third_party_package():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
