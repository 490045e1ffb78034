"""Tracked event-kernel performance benchmarks.

Runs every pinned configuration (see ``repro.api.perf``), asserts
run-to-run determinism, and checks the results against the digests
pinned in ``BENCH_kernel.json`` -- the digest comparison is machine
independent, so any change to what the simulator computes fails here
even on hardware with very different throughput.

Absolute events/sec regression gating is machine dependent and
therefore opt-in: set ``REPRO_PERF_STRICT=1`` (the CI workflow does) to
fail when throughput drops more than 30% below the checked-in baseline.
"""

import json
import os
import statistics

import pytest

from repro.api import perf

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_kernel.json")


#: The scaled-up pinned points (tracked since the timing-wheel PR).
SCALED_CONFIGS = ("ycsb-c-8core", "tpch-q6-sf2")

#: Seed-sized pinned points outside the --quick smoke; their digests are
#: gated through the scaled fixture so every pinned config is checked.
OTHER_CONFIGS = ("ycsb-mix", "tpch-q6")

#: Interleaved (silent, explicit) measurement pairs of the MSHR
#: overhead gate; odd, so the median is one measured pair's ratio.
MSHR_GATE_PAIRS = 5


@pytest.fixture(scope="module")
def quick_record():
    """One shared measurement of the quick configs (determinism is
    asserted inside run_config: a divergent repeat raises)."""
    return perf.run_suite(perf.QUICK_CONFIGS, repeats=2)


@pytest.fixture(scope="module")
def scaled_record():
    """One shared measurement of the scaled configs (8 cores / 2x TPC-H
    scale) -- the digest pins results at sizes the quick smoke misses --
    plus the seed-sized configs the quick smoke leaves out."""
    return perf.run_suite(SCALED_CONFIGS + OTHER_CONFIGS, repeats=2)


@pytest.fixture(scope="module")
def mshr_record():
    """ycsb-c with the MSHR knobs explicitly on: same simulation as the
    pinned ycsb-c, plus MshrFile bookkeeping and mshr_* stats."""
    return perf.run_suite(("ycsb-c-mshr8",), repeats=2)


@pytest.fixture(scope="module")
def openloop_record():
    """ycsb-c driven open-loop near the knee: the admission-queue path
    (ARRIVE markers, arrival catch-up, settle) plus traffic stats."""
    return perf.run_suite(("ycsb-c-openloop",), repeats=2)


@pytest.fixture(scope="module")
def bench_file():
    with open(BENCH_PATH) as fh:
        return json.load(fh)


def test_quick_configs_measure_sane_throughput(quick_record):
    for name, cur in quick_record["configs"].items():
        assert cur["events"] > 1000, name
        assert cur["run_time"] > 0, name
        assert cur["events_per_sec"] > 0, name


def test_results_match_checked_in_digests(quick_record, bench_file):
    """The simulation results of the pinned configs are pinned too:
    a kernel change that alters any statistic, run time or event count
    shows up as a digest mismatch (machine independent)."""
    for name, cur in quick_record["configs"].items():
        base = bench_file["configs"][name]
        assert cur["stats_sha256"] == base["stats_sha256"], (
            f"{name}: simulation results diverged from BENCH_kernel.json"
        )
        assert cur["events"] == base["events"], name
        assert cur["run_time"] == base["run_time"], name


def test_every_pinned_config_is_gated():
    """Each config in BENCH_kernel.json has its digest checked by one of
    this module's fixtures."""
    gated = (set(perf.QUICK_CONFIGS) | set(SCALED_CONFIGS)
             | set(OTHER_CONFIGS) | {"ycsb-c-mshr8", "ycsb-c-openloop"})
    assert gated == set(perf.PERF_CONFIGS)


def test_scaled_configs_match_checked_in_digests(scaled_record, bench_file):
    """The scaled-up pinned points (8-core YCSB-C, 2x-scale TPC-H Q6)
    are digest-pinned like the seed-sized ones, and so are the
    seed-sized ycsb-mix and tpch-q6."""
    for name, cur in scaled_record["configs"].items():
        base = bench_file["configs"][name]
        assert cur["stats_sha256"] == base["stats_sha256"], (
            f"{name}: simulation results diverged from BENCH_kernel.json"
        )
        assert cur["events"] == base["events"], name
        assert cur["run_time"] == base["run_time"], name


#: Pinned configs whose simulated design changed after the seed baseline
#: was measured, so no kernel reproduces the seed's digest any more.
#: The baseline keeps the seed measurement for the speedup columns.
MODEL_CHANGED_SINCE_BASELINE = {
    "ycsb-mix": "scope-relaxed LLC flush-vs-MSHR-fill race fix (3be1593)",
}


def test_optimized_kernel_reproduces_baseline_results(bench_file):
    """BENCH_kernel.json records the seed (heap-only) kernel's digests;
    they must equal the current kernel's (byte-identical results) for
    every config whose simulated design has not changed since."""
    for name, base in bench_file["baseline"]["configs"].items():
        cur = bench_file["configs"][name]
        if name in MODEL_CHANGED_SINCE_BASELINE:
            assert cur["stats_sha256"] != base["stats_sha256"], name
            continue
        assert cur["stats_sha256"] == base["stats_sha256"], name
        assert cur["events"] == base["events"], name
        assert cur["run_time"] == base["run_time"], name


def test_recorded_speedup_meets_target(bench_file):
    """The trajectory's acceptance bars, as measured interleaved on one
    machine and recorded at optimization time: the PR 2 hot-path
    overhaul's >=2x on YCSB-C vs the seed kernel, extended by the
    timing-wheel PR to >=2.4x cumulative (>=1.25x vs the PR 2 kernel,
    recorded in the description)."""
    assert bench_file["configs"]["ycsb-c"]["speedup_vs_baseline"] >= 2.4
    for name in SCALED_CONFIGS:
        assert bench_file["configs"][name]["speedup_vs_baseline"] >= 2.0, name


def test_mshr_config_matches_checked_in_digest(mshr_record, bench_file):
    """The explicit-MSHR twin is digest-pinned like every other config;
    its *simulated* behavior must equal the silent-default ycsb-c (same
    run time and event count -- the 8/64 entries and coalescing knobs
    reproduce the legacy hierarchy), with only the mshr_* stats added."""
    cur = mshr_record["configs"]["ycsb-c-mshr8"]
    base = bench_file["configs"]["ycsb-c-mshr8"]
    assert cur["stats_sha256"] == base["stats_sha256"], (
        "ycsb-c-mshr8: simulation results diverged from BENCH_kernel.json"
    )
    twin = bench_file["configs"]["ycsb-c"]
    assert cur["events"] == twin["events"]
    assert cur["run_time"] == twin["run_time"]
    assert cur["stats_sha256"] != twin["stats_sha256"]  # mshr_* stats only


def test_mshr_bookkeeping_overhead_is_bounded():
    """Hit-path overhead gate: with the MSHR stats on, ycsb-c must keep
    at least 80% of the silent-default throughput.  The two configs run
    in interleaved pairs (alternating which goes first) and the gate
    reads the median per-pair ratio, so load that drifts during the
    session hits both sides of a pair alike; the ratio is
    machine-independent unlike the absolute ev/s gates."""
    ratios = []
    for i in range(MSHR_GATE_PAIRS):
        pair = ("ycsb-c", "ycsb-c-mshr8")
        rate = {name: perf.run_config(name, repeats=1)["events_per_sec"]
                for name in (pair if i % 2 == 0 else pair[::-1])}
        ratios.append(rate["ycsb-c-mshr8"] / rate["ycsb-c"])
    ratio = statistics.median(ratios)
    assert ratio >= 0.8, (
        f"MSHR bookkeeping costs more than 20% of the hit path: median "
        f"explicit/silent throughput ratio {ratio:.3f} over "
        f"{MSHR_GATE_PAIRS} pairs ({', '.join(f'{r:.3f}' for r in ratios)})"
    )


def test_openloop_config_matches_checked_in_digest(openloop_record,
                                                   bench_file):
    """The open-loop twin of ycsb-c is digest-pinned like every other
    config.  Unlike the MSHR twin it simulates *different* behavior
    (arrivals pace the requests, so run time and event count differ from
    closed-loop ycsb-c), but the digest pins the whole traffic stats
    group: latency percentiles, queue depths and admission accounting
    cannot drift silently."""
    cur = openloop_record["configs"]["ycsb-c-openloop"]
    base = bench_file["configs"]["ycsb-c-openloop"]
    assert cur["stats_sha256"] == base["stats_sha256"], (
        "ycsb-c-openloop: simulation results diverged from "
        "BENCH_kernel.json"
    )
    assert cur["events"] == base["events"]
    assert cur["run_time"] == base["run_time"]


@pytest.mark.skipif(os.environ.get("REPRO_PERF_STRICT") != "1",
                    reason="machine-dependent; set REPRO_PERF_STRICT=1")
def test_events_per_sec_has_not_regressed(quick_record, bench_file):
    failures = perf.check_against_baseline(quick_record, bench_file,
                                           tolerance=0.30)
    assert not failures, failures
