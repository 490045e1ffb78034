"""Re-pin the benchmark's digests from the current tree.

Usage: ``python3 bench/pin.py`` runs every workload's campaign at the
default seed and rewrites ``bench/pins.json``: the campaign digest (what
``repro-bench sweep run CAMPAIGN`` prints) and one digest per point.
Re-pin only when a change to the modelled design is meant to move the
simulated results, and say so in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def main() -> int:
    bench.ensure_repro_importable()
    from repro.api import CampaignResult

    pins = {}
    for workload, name in bench.CAMPAIGNS.items():
        campaign, points = bench.campaign_for(workload, bench.DEFAULT_SEED)
        points, _, _ = bench.simulate(
            points, dict.fromkeys(bench.LAYER_TIMERS, 0.0))
        result = CampaignResult(campaign, points)
        if result.failed_points:
            raise SystemExit(f"{name}: {len(result.failed_points)} points "
                             "failed; nothing pinned")
        pins[workload] = {
            "campaign": name,
            "digest": result.digest(),
            "points": {p.name: bench.point_digest(p) for p in points},
        }
        print(f"{workload}: {name} {pins[workload]['digest']}")
    with open(bench.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
