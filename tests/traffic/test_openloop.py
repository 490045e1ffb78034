"""End-to-end open-loop runs: admission accounting and backend parity.

The bounded queue's books must balance exactly (every offered request is
admitted or dropped, every admitted request settles), and an open-loop
experiment must produce byte-identical result payloads on the Serial and
ProcessPool backends -- the digest gate EXPERIMENTS.md relies on.
"""

import pytest

from repro.api.backends import (
    ProcessPoolBackend,
    SerialBackend,
    execute_experiment,
)
from repro.api.experiment import Experiment
from repro.system.simulation import result_digest


def _experiment(model="scope", arrival="poisson", load=0.5, depth=16,
                **traffic):
    config = {"preset": "scaled", "model": model, "num_scopes": 4}
    if arrival != "closed":
        config["traffic"] = dict(
            {"arrival": arrival, "offered_load": load,
             "queue_depth": depth}, **traffic)
    return Experiment.from_dict({
        "workload": "ycsb",
        "params": {"num_ops": 20, "num_records": 2000,
                   "scan_fraction": 1.0, "seed": 11},
        "config": config,
        "variant": "test-openloop",
    })


def test_closed_loop_has_no_traffic_group():
    result = execute_experiment(_experiment(arrival="closed"))
    assert "traffic" not in result.stats
    assert not result.traffic


@pytest.mark.parametrize("arrival", ("poisson", "burst", "ramp"))
def test_admission_books_balance(arrival):
    result = execute_experiment(_experiment(arrival=arrival))
    t = result.traffic
    assert t.req_offered > 0
    assert t.req_offered == t.req_admitted + t.req_dropped
    assert t.req_completed == t.req_admitted
    assert t.latency_count == t.req_completed
    assert 0 < t.latency_p50 <= t.latency_p99 <= t.latency_p999
    assert t.latency_p999 <= t.latency_max


def test_unbounded_queue_never_drops():
    result = execute_experiment(_experiment(load=2.0, depth=None))
    t = result.traffic
    assert t.req_dropped == 0
    assert t.req_admitted == t.req_offered


def test_bounded_queue_sheds_under_overload():
    """~6x capacity with a 2-deep queue: drops must engage, and the
    books must still balance to the request."""
    result = execute_experiment(_experiment(load=2.0, depth=2))
    t = result.traffic
    assert t.req_dropped > 0
    assert t.req_offered == t.req_admitted + t.req_dropped
    assert t.req_completed == t.req_admitted
    assert t.queue_depth_max <= 2


def test_deeper_queue_drops_less():
    shallow = execute_experiment(_experiment(load=2.0, depth=2)).traffic
    deep = execute_experiment(_experiment(load=2.0, depth=8)).traffic
    assert deep.req_dropped < shallow.req_dropped
    assert deep.req_offered == shallow.req_offered


def test_latency_measured_from_arrival_not_issue():
    """Saturating load: queueing delay dominates, so the arrival-to-
    settle p50 must exceed the unloaded (low-load) p50 by a wide margin
    -- the distinction an issue-to-settle clock would erase."""
    light = execute_experiment(_experiment(load=0.05)).traffic
    heavy = execute_experiment(_experiment(load=2.0, depth=None)).traffic
    assert heavy.latency_p50 > 2 * light.latency_p50


def test_open_loop_is_deterministic():
    a = execute_experiment(_experiment())
    b = execute_experiment(_experiment())
    assert result_digest(a.to_dict()) == result_digest(b.to_dict())


def test_serial_and_pool_backends_byte_identical():
    exps = [_experiment(model=m) for m in ("naive", "scope")]
    serial = SerialBackend().run_all_settled(exps)
    pooled = ProcessPoolBackend(jobs=2).run_all_settled(exps)
    for s, p in zip(serial, pooled):
        assert s.stats["traffic"] == p.stats["traffic"]
        assert result_digest(s.to_dict()) == result_digest(p.to_dict())


def test_workload_without_requests_rejected():
    exp = Experiment.from_dict({
        "workload": "litmus",
        "params": {"rounds": 3, "threads": 2},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 4,
                   "traffic": {"arrival": "poisson", "offered_load": 0.5}},
        "variant": "test-openloop",
    })
    with pytest.raises(ValueError, match="admission requests"):
        execute_experiment(exp)
