"""What a CLI process imports: the warm path loads neither numpy nor the simulator.

Each case runs in a fresh interpreter and checks ``sys.modules`` after the
work is done -- the module set, not wall time, so the gate is exact.

* A warm ``sweep run`` re-renders a campaign from a filled store.  Every
  point is a store hit, so the process must not load the discrete-event
  simulator (kernel, host cores, memory hierarchy, system builder),
  numpy (the functional crossbar model) or multiprocessing (only the
  process-pool backend fans out).
* A pinned perf config runs the whole timing path.  It must still leave
  numpy out: numpy backs only the functional layer
  (:mod:`repro.pim.crossbar`, :mod:`repro.pim.database`).
"""

import json
import os
import subprocess
import sys

import repro
from repro.api import ResultStore, run_campaign
from repro.api.sweep import get_campaign

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Modules the warm CLI path must never import, by exact name or prefix.
WARM_FORBIDDEN = ("numpy", "multiprocessing", "repro.system.builder",
                  "repro.sim.kernel", "repro.host", "repro.memory")

_WARM_SWEEP = """
import contextlib, io, json, sys
from repro.api import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    status = cli.main(["sweep", "run", "smoke", "--store", sys.argv[1]])
print(json.dumps({"status": status, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""

_PERF_CONFIG = """
import json, sys
from repro.api.perf import run_config
record = run_config("ycsb-c", repeats=1)
print(json.dumps({"stats_sha256": record["stats_sha256"],
                  "modules": sorted(sys.modules)}))
"""


def _run_fresh(script, *args):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(modules, forbidden):
    return sorted(m for m in modules
                  if any(m == f or m.startswith(f + ".") for f in forbidden))


def test_warm_sweep_run_loads_neither_numpy_nor_the_simulator(tmp_path):
    campaign = get_campaign("smoke")
    filled = run_campaign(campaign, store=ResultStore(str(tmp_path)))

    report = _run_fresh(_WARM_SWEEP, str(tmp_path))

    assert report["status"] == 0
    assert "backend dispatches: 0" in report["stdout"]
    assert f"digest: {filled.digest()}" in report["stdout"]
    assert _loaded(report["modules"], WARM_FORBIDDEN) == []


def test_pinned_perf_config_runs_without_numpy():
    report = _run_fresh(_PERF_CONFIG)

    with open(os.path.join(REPO_ROOT, "BENCH_kernel.json")) as handle:
        pinned = json.load(handle)["configs"]["ycsb-c"]["stats_sha256"]
    assert report["stats_sha256"] == pinned
    assert "repro.sim.kernel" in report["modules"]
    assert _loaded(report["modules"], ("numpy",)) == []
