"""Unit tests for the discrete-event kernel."""

import pytest

from repro.obs.trace import Tracer
from repro.sim.kernel import (
    SimulationError,
    Simulator,
    WHEEL_SLOTS,
)


def _traced_sim():
    """A simulator with a tracer attached, as the system builder does."""
    sim = Simulator()
    sim._trace = Tracer(ring_size=0)
    return sim


def _tally(sim):
    """The kernel dispatch tallies flushed so far: (cycles, ring, wheel,
    heap)."""
    k = sim._trace.export()["kernel"]
    return (k["cycles"], k["ring_events"], k["wheel_events"],
            k["heap_events"])


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "late")
    sim.schedule(1, order.append, "early")
    sim.schedule(3, order.append, "mid")
    sim.run()
    assert order == ["early", "mid", "late"]
    assert sim.now == 5


def test_same_cycle_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(7, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_schedule_during_run():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(2, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 6


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(10, hits.append, "x")
    sim.run()
    assert sim.now == 10 and hits == ["x"]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(3, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_clock():
    sim = _traced_sim()
    hits = []
    sim.schedule(5, hits.append, "a")
    sim.schedule(50, hits.append, "b")
    sim.schedule(5, sim.call_at_now, hits.append, "a-ring")
    sim.schedule(WHEEL_SLOTS + 20, hits.append, "c")
    sim.run(until=10)
    assert hits == ["a", "a-ring"]
    assert sim.now == 10
    assert sim.pending_events() == 2
    assert _tally(sim) == (1, 1, 2, 0)
    sim.run(until=10)  # nothing due by the bound: an empty run
    assert _tally(sim) == (1, 1, 2, 0)
    sim.run()
    assert hits == ["a", "a-ring", "b", "c"]
    assert _tally(sim) == (3, 1, 3, 1)


def test_max_events_guard():
    sim = _traced_sim()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    # The ring kick at cycle 0, then one wheel hop per cycle.
    assert _tally(sim) == (100, 1, 99, 0)


def test_stop_when_predicate():
    sim = _traced_sim()
    hits = []
    for i in range(10):
        sim.schedule(i + 1, hits.append, i)
    sim.run(stop_when=lambda: len(hits) >= 4)
    assert hits == [0, 1, 2, 3]
    assert _tally(sim) == (4, 0, 4, 0)
    sim.run()
    assert hits == list(range(10))
    assert _tally(sim) == (10, 0, 10, 0)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, nested)
    sim.run()


# --------------------------------------------------------------------- #
# zero-delay fast-dispatch ring
# --------------------------------------------------------------------- #


def test_zero_delay_events_skip_the_heap():
    sim = Simulator()
    sim.schedule(0, lambda: None)
    sim.call_at_now(lambda: None)
    assert sim.pending_events() == 2
    assert len(sim._queue) == 0  # both went to the dispatch ring
    sim.run()
    assert sim.events_executed == 2
    assert sim.now == 0


def test_ring_events_interleave_with_heap_in_scheduling_order():
    """Same-cycle events run in global scheduling order even when some
    sit in the heap (scheduled earlier with a delay) and some on the
    immediate-dispatch ring (scheduled at the cycle itself)."""
    sim = Simulator()
    order = []

    def runner():
        order.append("runner")
        sim.schedule(0, order.append, "ring")  # after the heap's a, b

    sim.schedule(5, runner)
    sim.schedule(5, order.append, "a")
    sim.schedule(5, order.append, "b")
    sim.run()
    assert order == ["runner", "a", "b", "ring"]


def test_call_at_now_chains_run_before_time_advances():
    sim = Simulator()
    order = []

    def chain(n):
        order.append(n)
        if n < 2:
            sim.call_at_now(chain, n + 1)

    sim.schedule(3, chain, 0)
    sim.schedule(4, order.append, "later")
    sim.run()
    assert order == [0, 1, 2, "later"]
    assert sim.now == 4


def test_ring_respects_until_bound():
    sim = Simulator()
    hits = []
    sim.schedule(0, hits.append, "now")
    sim.schedule(50, hits.append, "later")
    sim.run(until=10)
    assert hits == ["now"]
    assert sim.now == 10


def test_stop_flag_halts_after_current_event():
    sim = _traced_sim()
    hits = []
    sim.schedule(1, hits.append, "a")
    sim.schedule(2, lambda: (hits.append("stop"), sim.stop()))
    sim.schedule(3, hits.append, "c")
    sim.run()
    assert hits == ["a", "stop"]
    assert _tally(sim) == (2, 0, 2, 0)
    # The flag is consumed: a later run resumes normally.
    sim.run()
    assert hits == ["a", "stop", "c"]
    assert _tally(sim) == (3, 0, 3, 0)


def test_max_events_counts_ring_events():
    sim = _traced_sim()

    def forever():
        sim.call_at_now(forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=50)
    assert sim.events_executed == 50
    assert _tally(sim) == (1, 50, 0, 0)


def test_delay_tiers_route_to_wheel_and_heap():
    sim = Simulator()
    sim.schedule(WHEEL_SLOTS - 1, lambda: None)  # largest wheel delay
    assert len(sim._queue) == 0 and sim._wheel_count == 1
    sim.schedule(WHEEL_SLOTS, lambda: None)  # first heap delay
    assert len(sim._queue) == 1 and sim._wheel_count == 1
    assert sim.pending_events() == 2
    sim.run()
    assert sim.now == WHEEL_SLOTS
    assert sim.pending_events() == 0


def test_wheel_rollover_past_horizon():
    """A chain of max-wheel-delay hops wraps every bucket index at least
    twice; order and timestamps must survive the rollover."""
    sim = Simulator()
    ticks = []

    def hop(n):
        ticks.append((n, sim.now))
        if n < 5:
            sim.schedule(WHEEL_SLOTS - 1, hop, n + 1)

    sim.schedule(WHEEL_SLOTS - 1, hop, 0)
    sim.run()
    assert ticks == [(i, (i + 1) * (WHEEL_SLOTS - 1)) for i in range(6)]
    assert sim.now == 6 * (WHEEL_SLOTS - 1)


def test_same_slot_different_cycles_do_not_collide():
    """Two events whose cycles map to the same wheel slot (delay d now,
    delay d again d cycles later) execute at their own cycles."""
    sim = Simulator()
    hits = []
    d = 10

    def first():
        hits.append(sim.now)
        sim.schedule(d, lambda: hits.append(sim.now))

    sim.schedule(d, first)
    sim.run()
    assert hits == [d, 2 * d]


def test_run_until_inside_wheel_horizon():
    """``until`` landing between two wheel entries stops the clock there
    and leaves the later entry pending for the next run."""
    sim = _traced_sim()
    hits = []
    sim.schedule(5, hits.append, "early")
    sim.schedule(50, hits.append, "late")  # both within the wheel
    sim.run(until=10)
    assert hits == ["early"]
    assert sim.now == 10
    assert sim.pending_events() == 1
    assert _tally(sim) == (1, 0, 1, 0)
    sim.run()
    assert hits == ["early", "late"]
    assert sim.now == 50
    assert _tally(sim) == (2, 0, 2, 0)


def test_schedule_at_current_cycle_rides_the_ring():
    sim = Simulator()
    order = []

    def at_five():
        order.append("event")
        sim.schedule_at(sim.now, order.append, "same-cycle")

    sim.schedule(5, at_five)
    sim.schedule(6, order.append, "next-cycle")
    sim.run()
    assert order == ["event", "same-cycle", "next-cycle"]


def test_wheel_heap_and_ring_interleave_in_scheduling_order():
    """At one cycle, events from all three tiers run in global
    scheduling (sequence) order: the wheel and heap entries -- scheduled
    in earlier cycles -- merge by sequence number, and ring entries
    (created at the cycle itself) come last."""
    sim = Simulator()
    target = WHEEL_SLOTS + 7  # reachable by both heap and wheel delays
    order = []

    def runner():
        order.append("wheel-early")
        sim.schedule(0, order.append, "ring")  # youngest: runs last

    # Scheduled first (lowest seq), lands on the heap (delay > horizon).
    sim.schedule_at(target, order.append, "heap-a")
    # Scheduled second, via the wheel (delay < horizon after advancing).
    sim.schedule(WHEEL_SLOTS - 3, sim.schedule_at, target, runner)
    # Scheduled third, another heap entry at the same cycle.
    sim.schedule_at(target, order.append, "heap-b")
    sim.run()
    # Sequence numbers: heap-a and heap-b drew theirs at cycle 0; the
    # wheel entry drew its own only at cycle WHEEL_SLOTS-3 (when the
    # trampoline called schedule_at), so it is younger than both heap
    # entries; the ring entry, created at `target` itself, is youngest.
    assert order == ["heap-a", "heap-b", "wheel-early", "ring"]
    assert sim.now == target


def test_stop_mid_cycle_preserves_wheel_entries():
    """stop() between two same-cycle wheel events must not lose the
    second one (exercises the run loop's leftover-bucket bookkeeping)."""
    sim = _traced_sim()
    hits = []
    sim.schedule(3, lambda: (hits.append("a"), sim.stop()))
    sim.schedule(3, hits.append, "b")
    sim.run()
    assert hits == ["a"]
    assert sim.pending_events() == 1
    # The leftover entry is not counted as dispatched.
    assert _tally(sim) == (1, 0, 1, 0)
    sim.run()
    assert hits == ["a", "b"]
    assert sim.now == 3
    # Each run counts the cycle it dispatched in: the split cycle twice.
    assert _tally(sim) == (2, 0, 2, 0)


def test_stop_mid_cycle_resumes_each_tier_in_order():
    """A stop() at every point of a cycle that holds heap, wheel and
    ring events resumes in the same order as one uninterrupted run, and
    the tallies count every event once."""
    target = WHEEL_SLOTS + 7
    expected = ["heap-a", "heap-b", "wheel-a", "wheel-b", "ring-a",
                "ring-b"]
    for stop_after in range(len(expected)):
        sim = _traced_sim()
        order = []

        def hit(label):
            order.append(label)
            if label.startswith("wheel"):
                sim.call_at_now(hit, "ring" + label[-2:])
            if len(order) == stop_after + 1:
                sim.stop()

        sim.schedule_at(target, hit, "heap-a")
        sim.schedule_at(target, hit, "heap-b")
        sim.schedule(WHEEL_SLOTS - 3, sim.schedule_at, target, hit, "wheel-a")
        sim.schedule(WHEEL_SLOTS - 3, sim.schedule_at, target, hit, "wheel-b")
        sim.run()
        assert order == expected[:stop_after + 1]
        sim.run()
        assert order == expected
        assert sim.pending_events() == 0
        cycles, ring, wheel, heap = _tally(sim)
        assert (ring, wheel, heap) == (2, 4, 2)
        # The trampoline cycle, then the target cycle once per run that
        # dispatched in it (the last stop leaves nothing to resume).
        assert cycles == (2 if stop_after == len(expected) - 1 else 3)


def test_stop_when_sees_live_events_executed():
    """The run loop batches the event counter, but syncs it before
    every stop_when call -- a predicate reading it must see the live
    value, not the start-of-run one."""
    sim = Simulator()
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    sim.run(stop_when=lambda: sim.events_executed >= 4)
    assert sim.events_executed == 4


def test_pending_events_mid_run_counts_current_bucket():
    """pending_events() called from inside an event must include the
    un-executed remainder of the current cycle's wheel bucket."""
    sim = Simulator()
    seen = []
    sim.schedule(3, lambda: seen.append(sim.pending_events()))
    sim.schedule(3, lambda: None)
    sim.schedule(3, lambda: None)
    sim.run()
    assert seen == [2]


def test_events_executed_is_deterministic_across_runs():
    """The same schedule replayed on a fresh simulator executes the same
    number of events, with service chains coalesced the same way."""

    def build_and_run():
        sim = Simulator()
        hits = []

        def serve(n):
            hits.append(sim.now)
            if n:
                sim.schedule(2, serve, n - 1)
                sim.call_at_now(hits.append, sim.now)

        sim.schedule(1, serve, 20)
        sim.schedule(WHEEL_SLOTS + 5, hits.append, "far")
        sim.run()
        return sim.events_executed, hits

    first_events, first_hits = build_and_run()
    second_events, second_hits = build_and_run()
    assert first_events == second_events
    assert first_hits == second_hits
