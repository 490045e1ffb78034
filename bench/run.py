#!/usr/bin/env python3
"""The repository benchmark: paper-grid, open-loop and warm-CLI workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload grid --seed 0 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``bench/README.md`` for the workloads, the metric
definitions and the layer-to-metric map.

The benchmark drives the simulator only through its public calls and
times the spans around them here; nothing under ``src/`` is instrumented.
This module imports ``repro`` lazily, so the set-up probes
(``bench/probe.py``) that import it can time the package import itself.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH_DIR / "pins.json"

#: Every in-process timer reads the calling thread's CPU time.  On a
#: shared virtual machine wall time also counts the moments the host gives
#: the vCPU to another guest; CPU time counts only the work of the
#: program, and thread time leaves out that of numpy's BLAS threads.
#: Wall time only bounds how long a run lasts.
cpu_clock = time.thread_time

#: CPU seconds :func:`reference_work` takes on the reference host.  Every
#: end-to-end time is calibrated to it (:func:`calibrate`).
REFERENCE_S = 0.010

#: :func:`calibrate` scales timed work by the median of this many
#: reference readings on each side of it.
CALIBRATION_WINDOW = 4

#: The seed at which every campaign runs exactly as registered and the
#: pinned digests are checked.
DEFAULT_SEED = 0

#: Benchmark workload -> registered campaign it runs.
CAMPAIGNS = {"grid": "paper-grid", "openloop": "offered-load",
             "warm-cli": "litmus-fuzz"}

#: Models that guarantee correct PIM results: a stale read under one of
#: them is a failure.  Naive and sw-flush are the known-violating
#: controls.
CORRECT_MODELS = frozenset({"atomic", "store", "scope", "scope-relaxed"})

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7

#: Fewest CLI invocations per ``warm-cli`` run: p75 then has ten samples
#: beyond it.
MIN_INVOCATIONS = 40

#: Passes over the campaign per untraced run.  Each point is timed by its
#: fastest pass, which reads lower the more passes there are, so the count
#: is fixed rather than fitted to ``--seconds`` on the host's speed.  One
#: ``openloop`` pass already gives steady per-point times; ``grid``'s
#: points vary more, and its p75 needs two.
PASSES = {"grid": 2, "openloop": 1}

#: An untraced ``warm-cli`` run times its set-up's points again after
#: every this many invocations, to time the kernel across the whole run.
FILL_EVERY = 4

#: Untraced and traced CLI invocations per traced ``warm-cli`` run.
TRACED_INVOCATIONS = 10

#: The traced run profiles every third point of the campaign, twice.
PROFILE_STRIDE = 3

#: Source modules whose call counts and self-time shares are reported.
PROFILED_MODULES = (
    "sim.kernel", "sim.component", "sim.messages", "host.core",
    "host.entry_point", "memory.l1", "memory.llc", "memory.cache",
    "memory.mshr", "pim.module", "memory.memory_controller",
    "core.scope", "traffic.admission", "builtins",
)

#: Span timers reported by the traced run, in host CPU seconds.
LAYER_TIMERS = (
    "workloads.build_s", "system.build_s", "workloads.compile_s",
    "system.run_s", "system.collect_s", "store.put_s", "api.import_s",
    "api.expand_s", "store.open_s", "store.get_s", "api.digest_s",
    "analysis.report_s", "cli.main_s",
)

END_TO_END_UNITS = {
    "setup_s": "s", "points_per_s": "points/s", "events_per_s": "events/s",
    "invoke_s_p50": "s", "invoke_s_p75": "s", "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {name: "s" for name in LAYER_TIMERS}
    units.update({
        "host.reference_s": "s",
        "store.hit_ratio": "hits/lookups", "store.lookups": "count",
        "runner.dispatches": "count", "trace.overhead": "ratio",
        "sim.events": "count", "sim.cycles": "cycles",
        "total.calls_per_event": "calls/event",
    })
    for module in PROFILED_MODULES:
        units[f"{module}.calls_per_event"] = "calls/event"
        units[f"{module}.self_share"] = "share"
    return units


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


def ensure_repro_importable() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no simulator sources at {SRC}; run the "
                         "benchmark from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def campaign_for(workload: str, seed: int, cut: bool = False):
    """The workload's campaign and its points, re-seeded unless ``seed``
    is 0.

    A non-default seed rewrites three seeds.  Every YCSB ``params.seed``
    and every open-loop ``config.traffic.seed`` becomes a seed derived
    from ``seed`` and the point's name, so each point draws its own keys
    and arrivals.  The ``litmus-fuzz`` generator's batch seed becomes
    ``seed``.  TPC-H points have no seed.  ``cut`` keeps only the first
    value of every axis (one point per sweep), for the benchmark's own
    tests; point names and spec hashes are those of the full campaign.
    Returns ``(campaign, points)``.
    """
    from repro.api.sweep import Campaign, get_campaign

    campaign = get_campaign(CAMPAIGNS[workload])
    reseed = seed != DEFAULT_SEED
    if cut or (reseed and workload == "warm-cli"):
        data = campaign.to_dict()
        for sweep in data["sweeps"]:
            axes = {axis["name"]: axis for axis in sweep["axes"]}
            if reseed and "spec" in axes:
                from repro.fuzz.generate import generate_batch

                batch = generate_batch(seed=seed,
                                       count=len(axes["spec"]["values"]))
                axes["scenario"]["values"] = [p.digest()[:8] for p in batch]
                axes["spec"]["values"] = [p.to_dict() for p in batch]
            if cut:
                for axis in axes.values():
                    axis["values"] = axis["values"][:1]
        campaign = Campaign.from_dict(data)
    points = campaign.points()
    if reseed and workload != "warm-cli":
        points = [point._replace(experiment=reseeded(
            point.experiment, point_seed(seed, point.name)))
            for point in points]
    return campaign, points


def point_seed(seed: int, name: str) -> int:
    material = f"{seed}:{name}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


def reseeded(experiment, seed: int):
    """``experiment`` with its YCSB and open-loop arrival seeds set."""
    from dataclasses import replace

    from repro.api import freeze_params

    if experiment.workload == "ycsb":
        params = experiment.params_dict
        params["seed"] = seed
        experiment = replace(experiment, params=freeze_params(params))
    traffic = experiment.config.traffic
    if traffic.arrival != "closed":
        experiment = replace(experiment, config=replace(
            experiment.config, traffic=replace(traffic, seed=seed)))
    return experiment


def outcome(result):
    """What ``CampaignResult.digest`` hashes of one point's result."""
    return None if result is None else {
        "run_time": result.run_time,
        "stale_reads": result.stale_reads,
        "events": result.events,
        "stats": result.stats,
    }


def point_digest(point) -> str:
    """A pinnable digest of one point: its name, spec and outcome."""
    payload = {"name": point.name, "spec": point.experiment.spec_hash(),
               "result": outcome(point.result)}
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_pins():
    with open(PINS, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# measurement primitives
# ---------------------------------------------------------------------- #


class _Component:
    __slots__ = ("ident", "count", "peer")

    def __init__(self, ident):
        self.ident = ident
        self.count = 0
        self.peer = None

    def receive(self, value):
        self.count += 1
        return value + self.ident if value & 1 else self.count

    def send(self, value):
        return self.peer.receive(value)


def reference_work() -> int:
    """A fixed piece of pure-Python work, independent of ``src/``.

    Half arithmetic, half method calls between ``__slots__`` objects,
    the call-bound kind of work the simulator's time goes to.  On the
    reference host, the simulator's CPU time followed this mix as the
    host's speed drifted more closely than either half alone, or than
    heap, deque and allocation work.
    """
    total = 0
    for i in range(56000):
        total += i * i % 7
    components = [_Component(k) for k in range(8)]
    for k, component in enumerate(components):
        component.peer = components[(k + 3) & 7]
    for i in range(27000):
        total += components[i & 7].send(i)
    return total


#: Every :func:`reference_s` reading of the current run.
readings = []


def reference_s() -> float:
    """CPU seconds of one :func:`reference_work`, with the garbage
    collector off so that the program's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_clock()
        reference_work()
        readings.append(cpu_clock() - start)
        return readings[-1]
    finally:
        if enabled:
            gc.enable()


def calibrate(seconds, mark):
    """``seconds`` of CPU time as the reference host would take them.

    The host's speed drifts by up to 1.8x over minutes (README.md,
    "Calibration").  ``mark`` is ``len(readings)`` when the timed work
    started, just after a :func:`reference_s` reading; the work is scaled
    by how much slower than :data:`REFERENCE_S` the readings around it
    ran.  Call it once the readings after the work are taken.
    """
    nearby = readings[max(0, mark - CALIBRATION_WINDOW):
                      mark + CALIBRATION_WINDOW]
    return seconds * REFERENCE_S / statistics.median(nearby)


def probe_setup(workload: str, seed: int, cut: bool, probes: int):
    """Median calibrated ``(total, import, expand)`` seconds over fresh
    interpreters."""
    keys = ("total_s", "import_s", "expand_s")
    runs = []
    reference_s()
    for _ in range(probes):
        mark = len(readings)
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload,
             str(seed), "1" if cut else "0"],
            check=True, capture_output=True, text=True, env=child_env(),
            cwd=ROOT)
        runs.append((json.loads(out.stdout.strip().splitlines()[-1]), mark))
        reference_s()
    return tuple(statistics.median(calibrate(probe[key], mark)
                                   for probe, mark in runs)
                 for key in keys)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def simulate(points, layers, store=None):
    """Build, compile, run and collect every point, one after another.

    The serial engine ``sweep run`` executes, with a span around each
    public call: ``Experiment.build_workload``, ``System(...)``,
    ``workload.compile`` + ``System.load_programs``, ``System.run``,
    ``collect_result`` and, when a store rides, ``ResultStore.put``;
    ``layers`` sums host CPU seconds per layer.  Returns the point
    results, and per point its CPU seconds and its ``System.run`` CPU
    seconds, both calibrated by :func:`reference_s` readings taken
    between points.
    """
    from repro.api.sweep import PointResult
    from repro.system.builder import System
    from repro.system.simulation import collect_result

    clock = cpu_clock
    results, timed = [], []
    reference_s()
    for point in points:
        mark = len(readings)
        exp = point.experiment
        result = error = None
        t0 = clock()
        t_run = 0.0
        try:
            workload = exp.build_workload()
            t1 = clock()
            system = System(exp.config)
            t2 = clock()
            system.load_programs(workload.compile(system))
            t3 = clock()
            cycles = system.run(max_events=exp.max_events)
            t4 = clock()
            result = collect_result(system, cycles)
            t5 = clock()
            if store is not None:
                store.put(exp.spec_hash(), result, exp)
            t6 = clock()
        except Exception as exc:  # noqa: BLE001 - a failed point is data
            error = f"{type(exc).__name__}: {exc}"
            print(f"bench: point {point.name} raised {error}",
                  file=sys.stderr)
        else:
            t_run = t4 - t3
            for name, start, end in (
                    ("workloads.build_s", t0, t1), ("system.build_s", t1, t2),
                    ("workloads.compile_s", t2, t3),
                    ("system.run_s", t3, t4), ("system.collect_s", t4, t5),
                    ("store.put_s", t5, t6)):
                layers[name] += end - start
        timed.append((clock() - t0, t_run, mark))
        reference_s()
        results.append(PointResult(
            name=point.name, sweep=point.sweep, coords=point.coords,
            experiment=exp, result=result, error=error))
    point_s = [calibrate(elapsed, mark) for elapsed, _, mark in timed]
    run_s = [calibrate(t_run, mark) for _, t_run, mark in timed]
    return results, point_s, run_s


def module_of(filename: str) -> str:
    """cProfile source file -> dotted module under ``repro``."""
    if filename == "~":
        return "builtins"
    parts = Path(filename).parts
    if "repro" in parts:
        rel = parts[len(parts) - parts[::-1].index("repro"):]
        return ".".join(rel)[:-len(".py")] if rel else "other"
    return "other"


def profile_points(points):
    """cProfile attached around ``System.run`` only, over ``points``.

    Returns ``(calls per module, self seconds per module, events,
    calibrated run seconds, outcomes)``.
    """
    import pstats

    from repro.system.builder import System
    from repro.system.simulation import collect_result

    profiler = cProfile.Profile()
    events = 0
    timed = []
    outcomes = []
    reference_s()
    for point in points:
        exp = point.experiment
        workload = exp.build_workload()
        system = System(exp.config)
        system.load_programs(workload.compile(system))
        mark = len(readings)
        start = cpu_clock()
        profiler.enable()
        cycles = system.run(max_events=exp.max_events)
        profiler.disable()
        timed.append((cpu_clock() - start, mark))
        reference_s()
        result = collect_result(system, cycles)
        events += result.events
        outcomes.append(outcome(result))
    calls, self_s = {}, {}
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        module = module_of(filename)
        calls[module] = calls.get(module, 0) + row[1]
        self_s[module] = self_s.get(module, 0.0) + row[2]
    run_s = sum(calibrate(seconds, mark) for seconds, mark in timed)
    return calls, self_s, events, run_s, outcomes


def profile_twice(points, expected):
    """The traced run's self-check: profile ``points`` twice.

    Returns the first profile and whether every module's call count
    repeated exactly and the profiled outcomes equal ``expected``, the
    untraced ones.
    """
    first, second = profile_points(points), profile_points(points)
    consistent = True
    if first[0] != second[0]:
        print("bench: FAILED self-check: calls per module differ between "
              "two traced runs", file=sys.stderr)
        consistent = False
    if first[4] != expected:
        print("bench: FAILED profiled results differ from untraced ones",
              file=sys.stderr)
        consistent = False
    return first, consistent


def quartiles(values):
    """``(p50, p75)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #


def point_failures(campaign, points, pins, campaign_pin):
    """Names of failed points: raised, pin mismatch or a stale read
    under a correctness-guaranteeing model.  ``pins`` maps point name to
    digest (empty off the default seed); ``campaign_pin`` is compared
    with the whole campaign's digest when given."""
    failed = []
    for point in points:
        reason = None
        if point.error is not None:
            reason = "raised"
        elif point.name in pins and point_digest(point) != pins[point.name]:
            reason = "digest differs from its pin"
        # The simulator's stale-read counter compares each load with the
        # PIM version expected at compile time, which counts the PIM ops
        # of requests the admission queue later shed; on a point that
        # shed requests it is not a stale-result count (bench/README.md,
        # "Known defect").
        elif (point.experiment.config.model.value in CORRECT_MODELS
              and point.result.stale_reads > 0
              and not point.result.traffic.req_dropped):
            reason = f"{point.result.stale_reads} stale reads"
        if reason is not None:
            print(f"bench: FAILED {point.name}: {reason}", file=sys.stderr)
            failed.append(point.name)
    if campaign_pin is not None:
        from repro.api import CampaignResult

        digest = CampaignResult(campaign, points).digest()
        if digest != campaign_pin:
            print(f"bench: FAILED campaign digest {digest} != pin "
                  f"{campaign_pin}", file=sys.stderr)
            failed = [p.name for p in points]
    return failed


def pins_for(workload, seed, cut, pins):
    """``(point pins, campaign pin)`` that apply to this run."""
    if seed != DEFAULT_SEED:
        return {}, None
    entry = (pins if pins is not None else load_pins())[workload]
    return entry["points"], None if cut else entry["digest"]


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def run_simulation(workload, seed, trace, cut=False, pins=None,
                   probes=SETUP_PROBES):
    """``grid`` and ``openloop``: the campaign's points, serially.

    The untraced run makes :data:`PASSES` passes over the campaign and
    times each point by its fastest pass; the traced run makes one.
    """
    from repro.api import CampaignResult, ResultStore

    setup_s, import_s, expand_s = probe_setup(workload, seed, cut, probes)
    campaign, points = campaign_for(workload, seed, cut)
    point_pins, campaign_pin = pins_for(workload, seed, cut, pins)
    layers = dict.fromkeys(LAYER_TIMERS, 0.0)
    passes, failed = [], 0
    count = 1 if trace else PASSES[workload]
    scratch = tempfile.mkdtemp(prefix="store-", dir=WORK)
    try:
        while len(passes) < count:
            # The grid writes through to a fresh store, as
            # `sweep run paper-grid --store` does; the open loop runs
            # with no store.
            store = (ResultStore(tempfile.mkdtemp(dir=scratch))
                     if workload == "grid" else None)
            pass_results, pass_point_s, pass_run_s = simulate(
                points, layers, store)
            failed += len(point_failures(campaign, pass_results,
                                         point_pins, campaign_pin))
            if not passes:
                # Memory for one pass, as `sweep run` holds it; later
                # passes keep only their times.
                results = pass_results
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            passes.append((pass_point_s, pass_run_s))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    point_s = [min(col) for col in zip(*(p[0] for p in passes))]
    run_s = [min(col) for col in zip(*(p[1] for p in passes))]
    ok = [p.result for p in results if p.result is not None]
    events = sum(r.events for r in ok)
    attempted = len(points) * len(passes)
    if not trace:
        p50, p75 = quartiles(point_s)
        metrics = {
            "setup_s": setup_s,
            "points_per_s": len(points) / sum(point_s),
            "events_per_s": events / max(sum(run_s), 1e-9),
            "invoke_s_p50": p50,
            "invoke_s_p75": p75,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = [f"{len(passes)} pass(es) over {len(points)} points, each "
                 f"point timed by its fastest; invoke_s_* are per-point "
                 f"CPU seconds over {len(point_s)} samples"]
        return attempted, failed, metrics, notes

    from repro.analysis.report import campaign_markdown

    campaign_result = CampaignResult(campaign, results)
    t0 = cpu_clock()
    campaign_result.digest()
    t1 = cpu_clock()
    campaign_markdown(campaign_result)
    layers["api.digest_s"] = t1 - t0
    layers["analysis.report_s"] = cpu_clock() - t1
    layers["api.import_s"] = import_s
    layers["api.expand_s"] = expand_s

    sampled = [i for i in range(0, len(points), PROFILE_STRIDE)
               if results[i].result is not None]
    first, consistent = profile_twice(
        [points[i] for i in sampled],
        [outcome(results[i].result) for i in sampled])
    metrics = dict(layers)
    metrics.update({
        "store.hit_ratio": 0.0,
        "store.lookups": 0,
        "runner.dispatches": len(points),
        "trace.overhead": first[3] / max(sum(run_s[i] for i in sampled),
                                         1e-9),
        "sim.events": events,
        "sim.cycles": sum(r.run_time for r in ok),
    })
    metrics.update(profile_metrics(first))
    notes = [f"profiled {len(sampled)} of {len(points)} points twice; "
             f"calls per module repeat: {consistent}"]
    return attempted, failed + (0 if consistent else 1), metrics, notes


def profile_metrics(profile):
    calls, self_s, events, _, _ = profile
    total_s = sum(self_s.values()) or 1.0
    metrics = {"total.calls_per_event": sum(calls.values()) / events}
    for module in PROFILED_MODULES:
        metrics[f"{module}.calls_per_event"] = calls.get(module, 0) / events
        metrics[f"{module}.self_share"] = self_s.get(module, 0.0) / total_s
    return metrics


def invoke_cli(campaign_arg, store_dir, traced_out=None):
    """One fresh ``repro-bench sweep run`` process.

    Returns ``(seconds, exit code, stdout, peak RSS in MB)``: the CPU
    seconds, user and system, the process took from start to exit.
    """
    if traced_out is None:
        argv = [sys.executable, "-m", "repro.api.cli"]
    else:
        argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"),
                traced_out]
    argv += ["sweep", "run", campaign_arg, "--store", store_dir]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=child_env(),
                            cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read().decode("utf-8", "replace")
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = usage.ru_utime + usage.ru_stime
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024


def parse_cli(out):
    """``(digest, dispatches)`` from ``sweep run`` output."""
    digest = dispatches = None
    for line in out.splitlines():
        if line.startswith("digest: "):
            digest = line.split(": ", 1)[1].strip()
        elif line.startswith("backend dispatches: "):
            dispatches = int(line.split(": ", 1)[1])
    return digest, dispatches


def run_warm_cli(seed, deadline, trace, cut=False, pins=None,
                 probes=SETUP_PROBES, min_invocations=MIN_INVOCATIONS,
                 fill=True, traced_invocations=TRACED_INVOCATIONS):
    """``warm-cli``: fresh CLI processes re-render a filled store.

    The untraced run makes at least ``min_invocations`` invocations, and
    more until ``deadline`` (a ``time.perf_counter`` reading).
    """
    from repro.api import CampaignResult, ResultStore

    setup_s, import_s, expand_s = probe_setup("warm-cli", seed, cut, probes)
    campaign, points = campaign_for("warm-cli", seed, cut)
    point_pins, campaign_pin = pins_for("warm-cli", seed, cut, pins)
    scratch = tempfile.mkdtemp(prefix="warm-", dir=WORK)
    try:
        store_dir = os.path.join(scratch, "store")
        if seed == DEFAULT_SEED and not cut:
            campaign_arg = CAMPAIGNS["warm-cli"]
        else:
            campaign_arg = os.path.join(scratch, "campaign.json")
            with open(campaign_arg, "w", encoding="utf-8") as handle:
                json.dump(campaign.to_dict(), handle)
        layers = dict.fromkeys(LAYER_TIMERS, 0.0)
        filled, _, fill_run_s = simulate(
            points, layers, ResultStore(store_dir) if fill else None)
        failed = len(point_failures(campaign, filled, point_pins,
                                    campaign_pin))
        expected = CampaignResult(campaign, filled).digest()
        served_events = sum(p.result.events for p in filled
                            if p.result is not None)

        def check(code, out):
            digest, dispatches = parse_cli(out)
            reasons = []
            if code != 0:
                reasons.append(f"exit code {code}")
            if digest != expected:
                reasons.append(f"digest {digest} != {expected}")
            if dispatches != 0:
                reasons.append(f"{dispatches} backend dispatches")
            if reasons:
                print(f"bench: FAILED invocation: {'; '.join(reasons)}",
                      file=sys.stderr)
            return dispatches or 0, not reasons

        if not trace:
            raw, rss, fills = [], [], [fill_run_s]
            while (len(raw) < min_invocations
                   or time.perf_counter() < deadline):
                # The latest reading, which ended the fill or the last
                # invocation, is the one just before this invocation.
                mark = len(readings)
                secs, code, out, peak = invoke_cli(campaign_arg, store_dir)
                raw.append((secs, mark))
                reference_s()
                rss.append(peak)
                failed += 0 if check(code, out)[1] else 1
                # The invocations run no kernel: the kernel rate comes
                # from the set-up's points, run again between them and
                # each timed by its mean pass.
                if len(raw) % FILL_EVERY == 0:
                    fills.append(simulate(
                        points, dict.fromkeys(LAYER_TIMERS, 0.0))[2])
            times = [calibrate(secs, mark) for secs, mark in raw]
            p50, p75 = quartiles(times)
            run_s = [statistics.fmean(col) for col in zip(*fills)]
            metrics = {
                "setup_s": setup_s,
                "points_per_s": len(points) / p50,
                "events_per_s": served_events / max(sum(run_s), 1e-9),
                "invoke_s_p50": p50,
                "invoke_s_p75": p75,
                "peak_rss_mb": statistics.median(rss),
            }
            notes = [f"{len(times)} invocations of {len(points)} points; "
                     f"invoke_s_* over {len(times)} samples; kernel timed "
                     f"over {len(fills)} passes"]
            return len(points) + len(times), failed, metrics, notes

        untraced, traced, spans = [], [], []
        lookups = hits = dispatches = 0
        span_path = os.path.join(scratch, "spans.json")
        for _ in range(traced_invocations):
            secs, code, out, _ = invoke_cli(campaign_arg, store_dir)
            untraced.append(secs)
            failed += 0 if check(code, out)[1] else 1
            secs, code, out, _ = invoke_cli(campaign_arg, store_dir,
                                            traced_out=span_path)
            traced.append(secs)
            count, ok = check(code, out)
            failed += 0 if ok else 1
            dispatches += count
            with open(span_path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            spans.append(record["seconds"])
            lookups += record["lookups"]
            hits += record["hits"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    profile, consistent = profile_twice(
        points, [outcome(p.result) for p in filled])
    metrics = dict(layers)
    for name in ("api.expand_s", "store.open_s", "store.get_s",
                 "api.digest_s", "analysis.report_s", "cli.main_s"):
        metrics[name] = statistics.median(s.get(name, 0.0) for s in spans)
    metrics["api.import_s"] = import_s
    ok = [p for p in filled if p.result is not None]
    metrics.update({
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.lookups": lookups,
        "runner.dispatches": dispatches,
        "trace.overhead": (statistics.median(traced)
                           / statistics.median(untraced)),
        "sim.events": served_events,
        "sim.cycles": sum(p.result.run_time for p in ok),
    })
    metrics.update(profile_metrics(profile))
    notes = [f"{traced_invocations} traced and {traced_invocations} "
             f"untraced invocations; CLI timers are medians per "
             f"invocation; calls per module repeat: {consistent}"]
    attempted = len(points) + 2 * traced_invocations
    return attempted, failed + (0 if consistent else 1), metrics, notes


def measure(workload, seed, seconds, trace, **options):
    """Run one workload; returns the result object the command prints."""
    deadline = time.perf_counter() + seconds
    readings.clear()
    ensure_repro_importable()
    WORK.mkdir(exist_ok=True)
    if workload == "warm-cli":
        attempted, failed, values, notes = run_warm_cli(
            seed, deadline, trace, **options)
    else:
        attempted, failed, values, notes = run_simulation(
            workload, seed, trace, **options)
    values["host.reference_s"] = statistics.median(readings)
    notes.append(f"reference work: median {values['host.reference_s']:.6g} "
                 f"CPU seconds over {len(readings)} readings; end-to-end "
                 f"times are calibrated to {REFERENCE_S:g} s")
    units = per_layer_units() if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }, notes


def render(result, notes):
    """The human-readable lines, then the JSON result as the last line."""
    lines = list(notes)
    lines.append(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
                 f"failed/attempted ({result['failed']} of "
                 f"{result['attempted']})")
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    lines.append(json.dumps(result, sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=CAMPAIGNS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One client on one core: the reference readings, the points and the
    # CLI processes all run on the same vCPU, so the readings measure the
    # speed the work ran at, and numpy's BLAS threads in a CLI process
    # cannot spin on another core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, notes = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(render(result, notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
