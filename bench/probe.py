"""Set-up probe: one fresh interpreter imports ``repro.api`` and expands
a workload's campaign into hashed specs, timing both.

Usage: ``python3 bench/probe.py WORKLOAD SEED CUT`` (``CUT`` is 0 or 1).
Prints one JSON object: ``total_s``, ``import_s`` and ``expand_s``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

bench.ensure_repro_importable()
start = bench.cpu_clock()
import repro.api  # noqa: E402,F401
imported = bench.cpu_clock()
_, points = bench.campaign_for(sys.argv[1], int(sys.argv[2]),
                               sys.argv[3] == "1")
hashes = [point.experiment.spec_hash() for point in points]
end = bench.cpu_clock()
print(json.dumps({"total_s": end - start, "import_s": imported - start,
                  "expand_s": end - imported, "specs": len(hashes)}))
