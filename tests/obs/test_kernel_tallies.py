"""Pinned kernel dispatch tallies of the traced perf configs.

``obs["kernel"]`` counts, per run, the cycles that dispatched anything
and the events each scheduler tier (ring, wheel, heap) dispatched.  The
run loop derives these without per-event work, so this pins them
against values counted event by event: a change to how the loop drains
its tiers that moves any count fails here.
"""

import pytest

from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.api.perf import PERF_CONFIGS
from repro.sim.config import TraceConfig

#: config -> (cycles, ring_events, wheel_events, heap_events)
_TALLIES = {
    "ycsb-c": (29_269, 37_029, 46_849, 960),
    "tpch-q6": (11_765, 23_090, 26_545, 3_480),
    "litmus": (4_644, 5_195, 5_609, 200),
}


@pytest.mark.parametrize("name", sorted(_TALLIES))
def test_kernel_tallies_match_pins(name):
    res = execute_experiment(Experiment.from_dict(PERF_CONFIGS[name]),
                             trace=TraceConfig(enabled=True, ring_size=0))
    kernel = res.obs["kernel"]
    got = (kernel["cycles"], kernel["ring_events"], kernel["wheel_events"],
           kernel["heap_events"])
    assert got == _TALLIES[name]
    # Every executed event is dispatched from exactly one tier.
    assert sum(got[1:]) == res.events
