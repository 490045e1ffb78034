"""Tests of the repository benchmark itself, on cut-down workloads.

Each workload runs one point per sweep (``cut=True``), so the whole file
takes seconds; the full-size runs are what ``bench/run.py`` measures.
"""

import copy
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("repo_bench_run",
                                               BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

#: Cheapest settings that still exercise every code path.
SMALL = {"cut": True, "probes": 1}
SMALL_CLI = dict(SMALL, min_invocations=2, traced_invocations=1)


def small(workload):
    return SMALL_CLI if workload == "warm-cli" else SMALL


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.CAMPAIGNS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, notes = bench.measure(workload, bench.DEFAULT_SEED, 0,
                                  bool(trace), **small(workload))
    lines = bench.render(result, notes).splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = bench.per_layer_units() if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    elif workload == "warm-cli":
        assert last["metrics"]["store.hit_ratio"]["value"] == 1.0
        assert last["metrics"]["runner.dispatches"]["value"] == 0


def test_corrupted_pin_fails_the_point():
    pins = copy.deepcopy(bench.load_pins())
    _, cut = bench.campaign_for("openloop", bench.DEFAULT_SEED, cut=True)
    pins["openloop"]["points"][cut[0].name] = "0" * 16
    result, _ = bench.measure("openloop", bench.DEFAULT_SEED, 0, False,
                              pins=pins, **SMALL)
    assert result["failed"] > 0 and result["correct"] is False


def test_empty_store_fails_the_zero_dispatch_check():
    result, _ = bench.measure("warm-cli", bench.DEFAULT_SEED, 0, False,
                              fill=False, **SMALL_CLI)
    assert result["failed"] >= 1 and result["correct"] is False


def test_seed_rewrites_every_seeded_input():
    seed = 12345
    _, default = bench.campaign_for("openloop", bench.DEFAULT_SEED)
    _, seeded = bench.campaign_for("openloop", seed)
    assert [p.name for p in seeded] == [p.name for p in default]
    ycsb_seeds = {p.experiment.params_dict["seed"] for p in seeded}
    traffic_seeds = {p.experiment.config.traffic.seed for p in seeded}
    assert len(ycsb_seeds) == len(traffic_seeds) == len(seeded)
    _, again = bench.campaign_for("openloop", seed)
    assert ([p.experiment.spec_hash() for p in again]
            == [p.experiment.spec_hash() for p in seeded])
    _, fuzz = bench.campaign_for("warm-cli", seed)
    _, registered = bench.campaign_for("warm-cli", bench.DEFAULT_SEED)
    assert len(fuzz) == len(registered)
    # The scenario axis names each point by its generated program.
    assert ({p.experiment.variant for p in fuzz}
            .isdisjoint(p.experiment.variant for p in registered))


def test_pins_cover_every_point_at_full_size():
    pins = bench.load_pins()
    for workload in bench.CAMPAIGNS:
        _, points = bench.campaign_for(workload, bench.DEFAULT_SEED)
        assert sorted(pins[workload]["points"]) == sorted(p.name for p in points)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH_DIR.name) / "run.py"), "--workload",
         "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
