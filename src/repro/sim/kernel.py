"""Event queue and simulator loop: a three-tier scheduler.

The simulator is a discrete-event kernel; time is measured in *clock
cycles* of the host processor (3.6 GHz in the paper's Table II) and
converting to seconds is the job of the reporting layer.  Pending events
live in one of three tiers, picked by their delay at scheduling time:

* **ring** (delay 0) -- the continuation trampolines that dominate
  pipeline simulations (``offer`` -> ``_serve``, ``unblock`` -> retry)
  go onto an immediate-dispatch FIFO drained at the current cycle;
* **wheel** (delay 1..255) -- a timing wheel of ``WHEEL_SLOTS`` per-cycle
  buckets indexed by ``cycle & WHEEL_MASK``.  Service intervals, link and
  cache latencies and DRAM/PIM access times all land here, so the
  short-delay traffic that used to dominate the heap is O(1) to insert
  and O(1) to drain;
* **heap** (delay >= ``WHEEL_SLOTS``) -- far-future events (PIM op
  execution, long scans) fall back to a classic ``(time, seq, callback,
  args)`` priority queue.

Ring and wheel entries are plain ``(callback, args)`` pairs; only heap
entries carry a sequence number, to break ties among themselves.  The
tiers need none between them, because within one cycle they always run
in global scheduling order when drained heap first, then the wheel
bucket, then the ring:

* a heap entry due at cycle t was scheduled at or before t-256, a wheel
  entry due at t at or after t-255, so every heap entry is older;
* ring entries are created at the current cycle itself, so they are the
  youngest.

Because a wheel insert never reaches delay ``WHEEL_SLOTS``, a bucket
only ever holds entries for one cycle at a time, and the time-advance
scan visits each passed slot exactly once -- O(total cycles) over a run,
bounded by the heap head when the wheel is sparse.

The entry format and the wheel geometry are private to this module:
components schedule only through :meth:`Simulator.schedule` and
:meth:`Simulator.call_at_now`.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Optional

#: Timing-wheel size (power of two).  Delays 1..WHEEL_SLOTS-1 ride the
#: wheel; the bound must stay above the largest common latency in the
#: timing model (DRAM/PIM accesses: 200 cycles).
WHEEL_SLOTS = 256
WHEEL_MASK = WHEEL_SLOTS - 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Simulator:
    """Discrete-event simulator with integer cycle timestamps.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5, hits.append, "a")
    >>> sim.schedule(3, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5
    """

    __slots__ = ("now", "_queue", "_ring", "_wheel", "_wheel_count", "_seq",
                 "_events_executed", "_running", "_stop", "_trace")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._ring: deque = deque()
        self._wheel: list = [deque() for _ in range(WHEEL_SLOTS)]
        self._wheel_count: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._running = False
        self._stop = False
        # Observability hook (a Tracer, or None).  The run loop reads it
        # once, on exit, to flush the dispatch-tier tallies.
        self._trace = None

    @property
    def events_executed(self) -> int:
        """Number of events the kernel has executed so far.

        The run loop batches this counter and syncs it on exit (and
        before every ``stop_when`` call); a component callback reading
        it *mid-run* sees the value as of the start of the run.
        """
        return self._events_executed

    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Events scheduled at the same cycle run in scheduling order, which
        keeps runs deterministic.  The delay picks the tier: 0 -> ring,
        1..WHEEL_SLOTS-1 -> wheel, anything further -> heap.
        """
        if delay <= 0:
            # Debug-only guard (compiled out under ``python -O``, like an
            # assert): a negative delay is always a component bug, and
            # the optimized run loop should not pay for the check.
            if __debug__ and delay < 0:
                raise SimulationError(f"negative delay {delay!r}")
            self._ring.append((callback, args))
        elif delay < WHEEL_SLOTS:
            self._wheel[(self.now + delay) & WHEEL_MASK].append(
                (callback, args))
            self._wheel_count += 1
        else:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._queue, (self.now + delay, seq, callback, args))

    def call_at_now(self, callback: Callable, *args: Any) -> None:
        """Fast path for ``schedule(0, ...)``: no delay validation at all."""
        self._ring.append((callback, args))

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        self.schedule(time - self.now, callback, *args)

    def stop(self) -> None:
        """Stop the run loop after the event currently executing.

        Cheaper than a ``stop_when`` predicate: callers that know the
        stopping condition flipped (e.g. the last core finished) set the
        flag from inside their event instead of the kernel polling a
        Python callable after every event.
        """
        self._stop = True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run events until the queues drain or a bound is hit.

        Args:
            until: stop once the next event would be later than this cycle.
            max_events: safety valve against runaway simulations.
            stop_when: predicate checked after every event; ``True`` stops.

        With a tracer attached, the run's dispatch-tier tallies are
        flushed to ``Tracer.kernel_tally`` once, on exit.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        # Local aliases: this loop is the hottest code in the package.
        queue = self._queue
        ring = self._ring
        wheel = self._wheel
        mask = WHEEL_MASK
        pop = heapq.heappop
        ring_popleft = ring.popleft
        start = events = self._events_executed
        now = self.now
        limit = sys.maxsize if max_events is None else max_events
        # The current bucket's size is fixed once its cycle starts
        # (callbacks can never schedule onto the wheel at the current
        # cycle), so `_wheel_count` is deducted once per cycle, and the
        # entries left on an early exit are restored.  `taken` sums
        # those deductions: it yields the wheel-tier tally for free.
        bucket = wheel[now & mask]
        taken = len(bucket)
        self._wheel_count -= taken
        # Likewise no callback can push a heap entry at the current
        # cycle, so whether the heap head is due now is known at each
        # cycle start and changes only when the heap is popped.
        heap_at_now = bool(queue) and queue[0][0] == now
        heap_n = 0
        # Cycles that dispatched at least one event: every accepted time
        # advance dispatches, and so does the starting cycle if anything
        # is due at it.
        cycles = 0
        self._running = True
        try:
            if until is not None and now > until:
                return
            if heap_at_now or bucket or ring:
                cycles = 1
            while True:
                # -- select exactly one event: heap, wheel, ring ------- #
                if heap_at_now:
                    _, _, cb, args = pop(queue)
                    heap_n += 1
                    if not queue or queue[0][0] != now:
                        heap_at_now = False
                elif bucket:
                    cb, args = bucket.popleft()
                elif ring:
                    cb, args = ring_popleft()
                else:
                    # -- advance time (or finish) --------------------- #
                    # (`bucket` itself is only reassigned past the
                    # `until` check: the early return must leave the
                    # drained current bucket for the exit bookkeeping.)
                    if self._wheel_count:
                        # The next nonempty bucket is at most
                        # WHEEL_SLOTS-1 slots ahead; stop early at the
                        # heap head so a sparse wheel never over-scans.
                        t = now + 1
                        nxt = wheel[t & mask]
                        if queue:
                            heap_time = queue[0][0]
                            while not nxt and t != heap_time:
                                t += 1
                                nxt = wheel[t & mask]
                            heap_at_now = t == heap_time
                        else:
                            while not nxt:
                                t += 1
                                nxt = wheel[t & mask]
                    elif queue:
                        t = queue[0][0]
                        nxt = wheel[t & mask]
                        heap_at_now = True
                    else:
                        return
                    if until is not None and t > until:
                        self.now = until
                        return
                    self.now = now = t
                    bucket = nxt
                    n = len(bucket)
                    self._wheel_count -= n
                    taken += n
                    cycles += 1
                    continue
                # -- dispatch + the one shared post-event epilogue ---- #
                # (Counted before the call, so an event whose callback
                # raises still counts as executed.  Most callbacks are
                # zero-arg service/step trampolines; the plain call
                # skips the *-unpack calling convention.)
                events += 1
                if args:
                    cb(*args)
                else:
                    cb()
                if events >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at cycle {self.now}"
                    )
                if self._stop:
                    self._stop = False
                    return
                if stop_when is not None:
                    # The predicate may read events_executed: sync the
                    # deferred counter before calling it (costs nothing
                    # on runs without a predicate).
                    self._events_executed = events
                    if stop_when():
                        return
        finally:
            # Synced once on exit (normal, stop, or an exception out of a
            # callback): nothing in the timing model reads these mid-run,
            # and the per-event attribute stores are measurable at this
            # loop's temperature.  Un-executed entries of the current
            # bucket (early stop) are re-counted.
            leftover = len(bucket)
            self._events_executed = events
            self._wheel_count += leftover
            self._running = False
            trace = self._trace
            if trace is not None:
                wheel_n = taken - leftover
                trace.kernel_tally(cycles, events - start - wheel_n - heap_n,
                                   wheel_n, heap_n)

    def pending_events(self) -> int:
        """Number of events waiting (dispatch ring + wheel + heap)."""
        count = len(self._queue) + len(self._ring) + self._wheel_count
        if self._running:
            # The run loop pre-deducts the current cycle's bucket from
            # the wheel count; its un-executed entries are still queued.
            count += len(self._wheel[self.now & WHEEL_MASK])
        return count
