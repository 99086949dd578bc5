"""A serving process imports only what serving needs.

Each entry point that perfbench counts — ``repro serve`` (``repro.cli``
with ``repro.serve``), the ``repro fleet serve`` router
(``repro.fleet.cli``) and each fleet worker (``repro.fleet.worker``) —
is imported in a fresh interpreter.  Beyond the standard library it
may load numpy and ``repro`` alone, so no graph or scientific library,
and neither the experiment harness nor the join-order optimizer:
every module it pulls in costs every server, router and worker process
its memory for the whole of its life.  Each process's resident set is
printed (``pytest -s``), so a change shows where it moves memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The only packages outside the standard library a serving process
#: may load.
ALLOWED = {"numpy", "repro"}

#: ``repro`` packages no serving process may load.
FORBIDDEN = ("repro.experiments", "repro.optimizer")

#: Imports its arguments and reports the modules they added to
#: ``sys.modules`` (not those interpreter start-up loaded) and VmRSS.
PROBE = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
try:
    with open("/proc/self/status") as status:
        rss = next(line.split()[1] for line in status
                   if line.startswith("VmRSS:"))
except OSError:
    rss = None
print(json.dumps({"added": sorted(set(sys.modules) - before),
                  "total": len(sys.modules), "rss_kb": rss}))
"""


@pytest.mark.parametrize("entry_points", [
    ("repro.cli", "repro.serve"),
    ("repro.fleet.cli",),
    ("repro.fleet.worker",),
], ids=["serve", "fleet-router", "fleet-worker"])
def test_entry_point_loads_only_what_serving_needs(entry_points):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *entry_points],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    probe = json.loads(result.stdout)
    print(f"{' + '.join(entry_points)}: VmRSS {probe['rss_kb']} kB, "
          f"{probe['total']} modules")
    packages = {module.partition(".")[0] for module in probe["added"]}
    assert sorted(packages - ALLOWED - set(sys.stdlib_module_names)) == []
    assert [name for name in FORBIDDEN if name in probe["added"]] == []
