"""Fault-tolerant distributed work queue over the persistent store.

One campaign, N machines: the coordinator shards a batch of experiment
specs into point-range *tasks* published as atomic files under the
store's ``queue/`` tree; any number of ``repro-bench worker --store DIR``
processes -- on this host, a CI matrix, or a fleet sharing a filesystem
-- pull tasks by atomically acquiring time-limited *leases*, execute the
points with write-through persistence into the content-addressed store,
and heartbeat their lease after every point.  The coordinator reaps
expired leases (crash/straggler recovery), re-offers the work with
capped exponential backoff plus jitter, runs any task no worker touches
itself (graceful degradation to local execution), and assembles the
final settled outcomes by hydrating the store.

The whole protocol reuses the store's lock-free discipline
(:func:`~repro.api.store.atomic_write_json` publication,
:func:`~repro.api.store.try_create_json` claims, tolerant reads) and
leans on one property for correctness: **simulations are deterministic
and results are content-addressed**, so duplicate execution -- a
straggler finishing after its lease was reaped, two workers racing one
task file -- is always benign.  Leases only bound wasted work; they are
never load-bearing for correctness, which is why an N-worker campaign
with injected faults still produces a campaign digest byte-identical to
a serial run (the CI chaos gate).

Failure taxonomy
----------------

===============  ==============================================  ========
kind             detected by                                     handling
===============  ==============================================  ========
deterministic    worker reports ``ExperimentFailure`` (the spec  never retried;
                 itself cannot build or the simulation raises)   isolated per point
transient        lease expires (worker killed/hung), or an       re-offered with
                 "ok" point is missing/corrupt in the store      capped backoff
straggler        lease expires while the worker still runs       re-offered; the
                                                                 late result is
                                                                 idempotent
lost             transient retries exhausted ``max_attempts``    settled failure,
                                                                 marked retryable
===============  ==============================================  ========

Fault injection
---------------

Set ``REPRO_CHAOS`` in a worker's environment to inject faults (used by
the tests and the CI chaos job):

* ``kill-after=N`` -- hard-exit (``os._exit``) after N executed points,
  lease still held: a crash.
* ``hang-after=N[:S]`` -- sleep S seconds (default 3600) after N
  executed points, then exit without reporting: a straggler that blows
  through its lease.
* ``corrupt-after=N`` -- corrupt the Nth store write (payload tampered,
  recorded sha256 left stale): a partial/torn write the store's
  read-path quarantine must catch.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import random
import shutil
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.backends import (
    ExecutionBackend,
    ExperimentFailure,
    SerialBackend,
    Settled,
    execute_experiment_settled,
)
from repro.api.experiment import Experiment
from repro.api.store import (
    ResultStore,
    atomic_write_json,
    read_json,
    try_create_json,
)
from repro.obs.telemetry import TelemetryWriter
from repro.sim.config import TraceConfig

__all__ = [
    "CHAOS_ENV",
    "ChaosPlan",
    "Coordinator",
    "QueueWorker",
    "backoff_delay",
    "queue_status",
    "run_worker",
]

logger = logging.getLogger("repro.workqueue")

#: Schema tags of the three queue file kinds.
TASK_SCHEMA = "repro-queue-task/1"
LEASE_SCHEMA = "repro-queue-lease/1"
DONE_SCHEMA = "repro-queue-done/1"
MANIFEST_SCHEMA = "repro-queue-manifest/1"

#: Directory under the store root holding all queue state.
QUEUE_DIR = "queue"

#: Environment variable carrying a worker fault-injection directive.
CHAOS_ENV = "REPRO_CHAOS"


def _queue_root(store: ResultStore) -> str:
    return os.path.join(store.root, QUEUE_DIR)


def backoff_delay(attempt: int, base_s: float, cap_s: float,
                  rng: Optional[random.Random] = None) -> float:
    """Capped exponential backoff with up to +25% jitter.

    ``attempt`` counts completed failures (1 for the first retry).  The
    jitter decorrelates coordinators re-offering many shards at once so
    a recovering fleet is not hit by a synchronized thundering herd.
    """
    if attempt < 1:
        return 0.0
    delay = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    jitter = (rng.random() if rng is not None else random.random())
    return delay * (1.0 + 0.25 * jitter)


# ---------------------------------------------------------------------- #
# fault injection
# ---------------------------------------------------------------------- #


class ChaosPlan:
    """A parsed ``REPRO_CHAOS`` directive driving one worker's faults."""

    def __init__(self, kind: Optional[str] = None, after: int = 0,
                 hang_s: float = 3600.0) -> None:
        self.kind = kind
        self.after = after
        self.hang_s = hang_s
        self.points_executed = 0
        self.writes = 0

    @classmethod
    def from_env(cls) -> "ChaosPlan":
        text = os.environ.get(CHAOS_ENV, "").strip()
        if not text:
            return cls()
        key, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"bad {CHAOS_ENV} directive {text!r}: "
                             f"expected kind=N")
        kind = key.strip()
        if kind not in ("kill-after", "hang-after", "corrupt-after"):
            raise ValueError(f"unknown {CHAOS_ENV} kind {kind!r}")
        count, _, hang = value.partition(":")
        return cls(kind=kind, after=int(count),
                   hang_s=float(hang) if hang else 3600.0)

    @property
    def active(self) -> bool:
        return self.kind is not None

    def on_store_write(self, store: ResultStore, spec_hash: str) -> None:
        """Chaos hook after one write-through: maybe corrupt it."""
        if self.kind != "corrupt-after":
            return
        self.writes += 1
        if self.writes != self.after:
            return
        path = store.path(spec_hash)
        entry = read_json(path)
        if entry is None or "result" not in entry:
            return
        entry["result"]["run_time"] = entry["result"].get("run_time", 0) + 1
        atomic_write_json(path, entry)  # sha256 left stale: now corrupt
        logger.warning("chaos: corrupted store entry for spec %s", spec_hash)

    def on_point_executed(self) -> None:
        """Chaos hook after one point: maybe crash or start straggling."""
        if self.kind not in ("kill-after", "hang-after"):
            return
        self.points_executed += 1
        if self.points_executed < self.after:
            return
        if self.kind == "kill-after":
            logger.warning("chaos: hard-exiting after %d points", self.after)
            os._exit(137)
        logger.warning("chaos: hanging %.0fs after %d points",
                       self.hang_s, self.after)
        time.sleep(self.hang_s)
        os._exit(0)


# ---------------------------------------------------------------------- #
# run publication (coordinator side)
# ---------------------------------------------------------------------- #


def _publish_run(store: ResultStore, experiments: Sequence[Experiment],
                 shard_size: int, lease_s: float,
                 trace: Optional[TraceConfig] = None,
                 ) -> Tuple[str, List[str]]:
    """Shard ``experiments`` into task files; returns (run_dir, shards).

    Every task file is complete and self-describing -- a worker needs no
    other state to execute it -- and published atomically, so a worker
    scanning mid-publication sees only whole tasks.  The manifest is
    written last and marks the run fully published.

    A ``trace`` overlay rides in the task file (never in the specs), so
    workers trace their points without the spec hashes -- the store keys
    and campaign digests -- changing.
    """
    from repro.api.sweep import shard_slices

    run_id = f"{int(time.time()):010d}-{os.urandom(4).hex()}"
    run_dir = os.path.join(_queue_root(store), run_id)
    shards: List[str] = []
    slices = shard_slices(len(experiments), shard_size)
    for index, sl in enumerate(slices):
        shard = f"{index:04d}"
        shards.append(shard)
        task = {
            "schema": TASK_SCHEMA,
            "run": run_id,
            "shard": shard,
            "attempt": 0,
            "not_before": 0.0,
            "lease_s": lease_s,
            "fingerprint": store.fingerprint,
            "points": [
                {"spec_hash": e.spec_hash(), "experiment": e.to_dict()}
                for e in experiments[sl]
            ],
        }
        if trace is not None:
            task["trace"] = dataclasses.asdict(trace)
        atomic_write_json(os.path.join(run_dir, "tasks", f"{shard}.json"),
                          task)
    atomic_write_json(os.path.join(run_dir, "manifest.json"), {
        "schema": MANIFEST_SCHEMA,
        "run": run_id,
        "created": time.time(),
        "shards": len(shards),
        "points": len(experiments),
        "fingerprint": store.fingerprint,
    })
    return run_dir, shards


def _shard_paths(run_dir: str, shard: str) -> Tuple[str, str, str]:
    return (os.path.join(run_dir, "tasks", f"{shard}.json"),
            os.path.join(run_dir, "leases", f"{shard}.json"),
            os.path.join(run_dir, "done", f"{shard}.json"))


# ---------------------------------------------------------------------- #
# worker
# ---------------------------------------------------------------------- #


class QueueWorker:
    """Pulls queue tasks from a store and executes them write-through.

    Args:
        store: the shared store (tasks live under ``<root>/queue/``).
        worker_id: stable identity recorded in leases and done reports;
            defaults to ``<hostname>-<pid>``.
        poll_s: idle sleep between queue scans.
        chaos: fault-injection plan; defaults to ``$REPRO_CHAOS``.

    The lease duration is dictated by each task file (the coordinator
    owns the expiry policy); a worker heartbeats after every point and
    abandons the task the moment it no longer owns the lease -- its
    partial progress survives in the store either way.
    """

    def __init__(self, store: ResultStore, worker_id: Optional[str] = None,
                 poll_s: float = 0.5,
                 chaos: Optional[ChaosPlan] = None) -> None:
        self.store = store
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_s = poll_s
        self.chaos = chaos if chaos is not None else ChaosPlan.from_env()
        self.tasks_done = 0
        self.points_run = 0
        #: Structured JSONL telemetry (``repro-bench queue tail``);
        #: observability only, never load-bearing for the protocol.
        self.telemetry = TelemetryWriter(store.root, self.worker_id)

    # -- queue scan ------------------------------------------------------ #

    def _claimable_tasks(self) -> List[Tuple[str, dict]]:
        """Every (run_dir, task) currently claimable, publication order."""
        root = _queue_root(self.store)
        if not os.path.isdir(root):
            return []
        now = time.time()
        out: List[Tuple[str, dict]] = []
        for run_id in sorted(os.listdir(root)):
            run_dir = os.path.join(root, run_id)
            tasks_dir = os.path.join(run_dir, "tasks")
            if not os.path.isdir(tasks_dir):
                continue
            for filename in sorted(os.listdir(tasks_dir)):
                if not filename.endswith(".json") \
                        or filename.startswith(".tmp-"):
                    continue
                task = read_json(os.path.join(tasks_dir, filename))
                if task is None or task.get("schema") != TASK_SCHEMA:
                    continue
                shard = task.get("shard", "")
                _, lease_path, done_path = _shard_paths(run_dir, shard)
                if os.path.exists(done_path) or os.path.exists(lease_path):
                    continue  # finished, or someone else's; never steal
                if float(task.get("not_before", 0.0)) > now:
                    continue  # backing off after a transient failure
                if task.get("fingerprint") != self.store.fingerprint:
                    logger.warning(
                        "worker %s: skipping shard %s/%s built for engine "
                        "fingerprint %s (mine is %s)", self.worker_id,
                        task.get("run"), shard, task.get("fingerprint"),
                        self.store.fingerprint)
                    continue
                out.append((run_dir, task))
        return out

    # -- lease lifecycle ------------------------------------------------- #

    def _acquire(self, run_dir: str, task: dict) -> Optional[dict]:
        """Try to claim one task; returns the held lease or ``None``."""
        _, lease_path, _ = _shard_paths(run_dir, task["shard"])
        lease_s = float(task.get("lease_s", 30.0))
        lease = {
            "schema": LEASE_SCHEMA,
            "shard": task["shard"],
            "worker": self.worker_id,
            "nonce": os.urandom(8).hex(),
            "acquired": time.time(),
            "lease_s": lease_s,
            "deadline": time.time() + lease_s,
        }
        return lease if try_create_json(lease_path, lease) else None

    def _heartbeat(self, run_dir: str, lease: dict) -> bool:
        """Renew the lease; ``False`` if ownership was lost (reaped)."""
        _, lease_path, _ = _shard_paths(run_dir, lease["shard"])
        current = read_json(lease_path)
        if current is None or current.get("nonce") != lease["nonce"]:
            return False
        lease["deadline"] = time.time() + float(lease["lease_s"])
        atomic_write_json(lease_path, lease)
        return True

    # -- execution ------------------------------------------------------- #

    def process_task(self, run_dir: str, task: dict, lease: dict) -> bool:
        """Execute one claimed task; ``True`` if the done report landed."""
        run_id, shard = task.get("run"), task["shard"]
        trace_dict = task.get("trace")
        trace = TraceConfig(**trace_dict) if trace_dict else None
        self.telemetry.emit("start", run=run_id, shard=shard,
                            points=len(task["points"]),
                            attempt=task.get("attempt", 0))
        outcomes: Dict[str, dict] = {}
        for point in task["points"]:
            spec_hash = point["spec_hash"]
            if self.store.get(spec_hash) is not None:
                outcomes[spec_hash] = {"status": "ok"}  # idempotent skip
                self.telemetry.emit("point", run=run_id, shard=shard,
                                    spec=spec_hash[:12], status="cached")
                continue
            experiment = Experiment.from_dict(point["experiment"])
            outcome = execute_experiment_settled(experiment, store=self.store,
                                                 trace=trace)
            self.points_run += 1
            if isinstance(outcome, ExperimentFailure):
                # Deterministic: the spec itself fails; report as data.
                outcomes[spec_hash] = {"status": "failed",
                                       "error": outcome.error}
                status = "failed"
            else:
                outcomes[spec_hash] = {"status": "ok"}
                self.chaos.on_store_write(self.store, spec_hash)
                status = "ok"
            self.telemetry.emit("point", run=run_id, shard=shard,
                                spec=spec_hash[:12], status=status)
            self.chaos.on_point_executed()
            if not self._heartbeat(run_dir, lease):
                logger.warning(
                    "worker %s: lost lease on shard %s/%s, abandoning "
                    "(%d/%d points done; progress is in the store)",
                    self.worker_id, run_id, shard,
                    len(outcomes), len(task["points"]))
                self.telemetry.emit("abandon", run=run_id, shard=shard,
                                    done=len(outcomes),
                                    points=len(task["points"]))
                return False
            self.telemetry.emit("heartbeat", run=run_id, shard=shard,
                                done=len(outcomes),
                                points=len(task["points"]))
        _, lease_path, done_path = _shard_paths(run_dir, task["shard"])
        atomic_write_json(done_path, {
            "schema": DONE_SCHEMA,
            "shard": task["shard"],
            "worker": self.worker_id,
            "attempt": task.get("attempt", 0),
            "outcomes": outcomes,
        })
        try:
            os.unlink(lease_path)
        except OSError:
            pass
        self.tasks_done += 1
        self.telemetry.emit("finish", run=run_id, shard=shard,
                            points=len(task["points"]))
        logger.info("worker %s: completed shard %s/%s (%d points)",
                    self.worker_id, run_id, shard,
                    len(task["points"]))
        return True

    def _sweep(self) -> int:
        """One pass over the queue; returns how many tasks were run."""
        processed = 0
        for run_dir, task in self._claimable_tasks():
            lease = self._acquire(run_dir, task)
            if lease is None:
                continue  # lost the claim race
            self.telemetry.emit("claim", run=task.get("run"),
                                shard=task["shard"],
                                points=len(task["points"]),
                                attempt=task.get("attempt", 0))
            logger.info("worker %s: claimed shard %s/%s (%d points)",
                        self.worker_id, task.get("run"), task["shard"],
                        len(task["points"]))
            self.process_task(run_dir, task, lease)
            processed += 1
        return processed

    def run(self, once: bool = False, max_idle_s: Optional[float] = None,
            max_tasks: Optional[int] = None) -> int:
        """The worker loop; returns the number of tasks completed.

        ``once`` drains what is claimable right now and returns;
        ``max_idle_s`` bounds how long the worker polls an empty queue
        before exiting; ``max_tasks`` caps the work taken.
        """
        idle_since = time.time()
        while True:
            processed = self._sweep()
            if processed:
                idle_since = time.time()
            if max_tasks is not None and self.tasks_done >= max_tasks:
                return self.tasks_done
            if once and not processed:
                return self.tasks_done
            if max_idle_s is not None \
                    and time.time() - idle_since >= max_idle_s:
                return self.tasks_done
            if not processed:
                time.sleep(self.poll_s)


def run_worker(store: ResultStore, **kwargs) -> int:
    """Convenience wrapper: build a :class:`QueueWorker` and run it."""
    run_opts = {k: kwargs.pop(k) for k in ("once", "max_idle_s", "max_tasks")
                if k in kwargs}
    return QueueWorker(store, **kwargs).run(**run_opts)


# ---------------------------------------------------------------------- #
# coordinator
# ---------------------------------------------------------------------- #


class _ShardState:
    """Coordinator-side bookkeeping for one published task."""

    __slots__ = ("shard", "spec_hashes", "attempt", "claimable_since",
                 "finished", "outcomes")

    def __init__(self, shard: str, spec_hashes: List[str],
                 now: float) -> None:
        self.shard = shard
        self.spec_hashes = spec_hashes
        self.attempt = 0
        self.claimable_since = now
        self.finished = False
        self.outcomes: Dict[str, dict] = {}


class Coordinator:
    """Drives one distributed batch: publish, supervise, assemble.

    Args:
        store: the shared store the queue and the results live in.
        shard_size: points per published task.
        lease_s: lease duration workers are granted (must exceed the
            longest single point; workers heartbeat per point).
        poll_s: supervision loop cadence.
        grace_s: how long a claimable task may sit untouched before the
            coordinator executes it locally.  This single knob covers
            both degradation (no workers ever join -> after ``grace_s``
            the whole batch runs locally) and recovery (a re-offered
            task no worker picks up ends up executed by the
            coordinator).
        max_attempts: total tries per task before its unfinished points
            settle as lost.
        backoff_base_s / backoff_cap_s: retry backoff envelope.
        fallback: backend for local execution of unclaimed tasks
            (default :class:`~repro.api.backends.SerialBackend`; a
            process pool with ``timeout_s`` adds hung-point protection).
        rng: jitter source (tests pin it).
    """

    def __init__(self, store: ResultStore, shard_size: int = 4,
                 lease_s: float = 30.0, poll_s: float = 0.25,
                 grace_s: float = 10.0, max_attempts: int = 4,
                 backoff_base_s: float = 0.5, backoff_cap_s: float = 30.0,
                 fallback: Optional[ExecutionBackend] = None,
                 rng: Optional[random.Random] = None) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.shard_size = shard_size
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.grace_s = grace_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.rng = rng if rng is not None else random.Random()
        self.telemetry = TelemetryWriter(store.root, "coordinator")
        #: Per-run execution-side state (set by :meth:`run`).
        self._trace: Optional[TraceConfig] = None
        self._progress: Optional[Callable[[int], None]] = None
        #: Supervision counters (tests and ``--distributed`` reporting).
        self.stats = {
            "shards": 0,
            "worker_shards": 0,
            "local_shards": 0,
            "expired_leases": 0,
            "retries": 0,
            "deterministic_failures": 0,
            "lost_points": 0,
        }

    # -- supervision steps ----------------------------------------------- #

    def _reap_expired_lease(self, run_dir: str, state: _ShardState,
                            now: float) -> bool:
        """Reap an expired lease; ``True`` if the shard was re-offered.

        The lease file is removed (the straggler, if it still runs,
        notices at its next heartbeat and abandons) and the task is
        re-published with a bumped attempt and a jittered
        ``not_before`` so the retry backs off instead of thrashing.
        """
        task_path, lease_path, _ = _shard_paths(run_dir, state.shard)
        lease = read_json(lease_path)
        if lease is None or float(lease.get("deadline", 0.0)) > now:
            return False
        try:
            os.unlink(lease_path)
        except OSError:
            return False  # the worker finished or another reap won
        self.stats["expired_leases"] += 1
        self.telemetry.emit("reap", shard=state.shard,
                            worker=lease.get("worker", "?"))
        logger.warning(
            "coordinator: lease on shard %s by worker %s expired; "
            "re-dispatching", state.shard, lease.get("worker", "?"))
        self._schedule_retry(task_path, state, now)
        return True

    def _schedule_retry(self, task_path: str, state: _ShardState,
                        now: float) -> None:
        state.attempt += 1
        self.stats["retries"] += 1
        delay = backoff_delay(state.attempt, self.backoff_base_s,
                              self.backoff_cap_s, self.rng)
        self.telemetry.emit("retry", shard=state.shard,
                            attempt=state.attempt, delay=round(delay, 3))
        state.claimable_since = now + delay
        task = read_json(task_path)
        if task is None:
            return
        task["attempt"] = state.attempt
        task["not_before"] = now + delay
        atomic_write_json(task_path, task)

    def _collect_done(self, run_dir: str, state: _ShardState,
                      now: float) -> None:
        """Validate a done report against the store; settle or retry.

        A point the report marks failed is a deterministic failure --
        final.  A point marked ok must actually be hydratable from the
        store; if it is not (a corrupt write was quarantined, a file was
        lost), the report is discarded and the shard re-offered, because
        the failure is environmental, not the spec's.
        """
        task_path, _, done_path = _shard_paths(run_dir, state.shard)
        done = read_json(done_path)
        if done is None or done.get("schema") != DONE_SCHEMA:
            return
        outcomes = done.get("outcomes", {})
        missing = [
            h for h in state.spec_hashes
            if outcomes.get(h, {}).get("status") == "ok"
            and self.store.get(h) is None
        ]
        incomplete = [h for h in state.spec_hashes if h not in outcomes]
        if missing or incomplete:
            logger.warning(
                "coordinator: shard %s report by %s is unusable (%d ok "
                "points missing from the store, %d unreported); "
                "re-dispatching", state.shard, done.get("worker", "?"),
                len(missing), len(incomplete))
            try:
                os.unlink(done_path)
            except OSError:
                pass
            self._schedule_retry(task_path, state, now)
            return
        state.finished = True
        state.outcomes = {h: outcomes[h] for h in state.spec_hashes}
        if done.get("worker") != "coordinator":
            self.stats["worker_shards"] += 1
        if self._progress is not None:
            self._progress(len(state.spec_hashes))

    def _run_locally(self, run_dir: str, task: dict,
                     state: _ShardState) -> None:
        """Execute one unclaimed task through the fallback backend."""
        _, lease_path, done_path = _shard_paths(run_dir, state.shard)
        lease = {
            "schema": LEASE_SCHEMA,
            "shard": state.shard,
            "worker": "coordinator",
            "nonce": os.urandom(8).hex(),
            "acquired": time.time(),
            # Only this coordinator reaps leases, so its own cannot be
            # stolen; the nominal deadline just keeps the file honest.
            "deadline": time.time() + max(self.lease_s, 3600.0),
        }
        if not try_create_json(lease_path, lease):
            return  # a worker claimed it between the scan and now
        self.stats["local_shards"] += 1
        self.telemetry.emit("local", shard=state.shard,
                            points=len(task["points"]))
        logger.info("coordinator: running shard %s locally (%d points)",
                    state.shard, len(task["points"]))
        experiments = [Experiment.from_dict(p["experiment"])
                       for p in task["points"]]
        settled = self.fallback.run_all_settled(experiments,
                                                store=self.store,
                                                trace=self._trace)
        outcomes = {}
        for point, outcome in zip(task["points"], settled):
            if isinstance(outcome, ExperimentFailure):
                status = {"status": "failed", "error": outcome.error}
                if outcome.retryable:
                    # e.g. a pool timeout: environmental, so leave the
                    # point unreported and let the retry path decide.
                    status = {"status": "timeout", "error": outcome.error}
                outcomes[point["spec_hash"]] = status
            else:
                outcomes[point["spec_hash"]] = {"status": "ok"}
        atomic_write_json(done_path, {
            "schema": DONE_SCHEMA,
            "shard": state.shard,
            "worker": "coordinator",
            "attempt": task.get("attempt", 0),
            "outcomes": {h: s for h, s in outcomes.items()
                         if s["status"] != "timeout"},
        })
        try:
            os.unlink(lease_path)
        except OSError:
            pass

    # -- the supervision loop -------------------------------------------- #

    def run(self, experiments: Sequence[Experiment],
            trace: Optional[TraceConfig] = None,
            progress: Optional[Callable[[int], None]] = None,
            ) -> List[Settled]:
        """Execute a batch through the queue; settled, input order.

        ``trace`` rides in the published task files so every executor --
        remote worker or local fallback -- applies the same
        observability overlay; ``progress`` is called with a point count
        each time a shard settles.
        """
        experiments = list(experiments)
        if not experiments:
            return []
        self._trace = trace
        self._progress = progress
        run_dir, shards = _publish_run(self.store, experiments,
                                       self.shard_size, self.lease_s,
                                       trace=trace)
        from repro.api.sweep import shard_slices

        now = time.time()
        states: List[_ShardState] = [
            _ShardState(shard,
                        [e.spec_hash() for e in experiments[sl]], now)
            for shard, sl in zip(
                shards, shard_slices(len(experiments), self.shard_size))
        ]
        self.stats["shards"] = len(states)
        self.telemetry.emit("publish", run=os.path.basename(run_dir),
                            shards=len(states), points=len(experiments))
        logger.info(
            "coordinator: published run %s (%d points in %d shards) under "
            "%s", os.path.basename(run_dir), len(experiments), len(states),
            _queue_root(self.store))
        try:
            self._supervise(run_dir, states)
            return self._assemble(experiments, states)
        finally:
            self._trace = None
            self._progress = None
            shutil.rmtree(run_dir, ignore_errors=True)

    def _supervise(self, run_dir: str, states: List[_ShardState]) -> None:
        while True:
            now = time.time()
            pending = False
            for state in states:
                if state.finished:
                    continue
                task_path, lease_path, done_path = _shard_paths(
                    run_dir, state.shard)
                if os.path.exists(done_path):
                    self._collect_done(run_dir, state, now)
                    if state.finished:
                        continue
                if state.attempt >= self.max_attempts:
                    # Retries exhausted: settle what the store has, mark
                    # the rest lost.
                    state.finished = True
                    state.outcomes = {}
                    if self._progress is not None:
                        self._progress(len(state.spec_hashes))
                    continue
                pending = True
                if os.path.exists(lease_path):
                    self._reap_expired_lease(run_dir, state, now)
                elif now >= state.claimable_since + self.grace_s:
                    task = read_json(task_path)
                    if task is not None:
                        self._run_locally(run_dir, task, state)
            if not pending and all(s.finished for s in states):
                return
            if pending:
                time.sleep(self.poll_s)

    def _assemble(self, experiments: Sequence[Experiment],
                  states: List[_ShardState]) -> List[Settled]:
        """Hydrate the final outcome of every input point, in order."""
        failures: Dict[str, ExperimentFailure] = {}
        for state in states:
            for spec_hash, outcome in state.outcomes.items():
                if outcome.get("status") == "failed":
                    failures[spec_hash] = ExperimentFailure(
                        outcome.get("error", "unknown failure"))
        out: List[Settled] = []
        hydrated = self.store.get_many(
            {e.spec_hash() for e in experiments})
        for experiment in experiments:
            spec_hash = experiment.spec_hash()
            if spec_hash in hydrated:
                out.append(hydrated[spec_hash])
            elif spec_hash in failures:
                self.stats["deterministic_failures"] += 1
                out.append(failures[spec_hash])
            else:
                self.stats["lost_points"] += 1
                out.append(ExperimentFailure(
                    f"point {spec_hash} lost after {self.max_attempts} "
                    f"attempts (workers kept crashing, hanging or "
                    f"corrupting the write); transient, safe to retry",
                    retryable=True))
        return out


# ---------------------------------------------------------------------- #
# inspection (repro-bench queue status)
# ---------------------------------------------------------------------- #


def queue_status(store: ResultStore) -> List[Dict[str, object]]:
    """Per-run shard/lease/done inventory of the queue under a store."""
    root = _queue_root(store)
    if not os.path.isdir(root):
        return []
    now = time.time()
    out: List[Dict[str, object]] = []
    for run_id in sorted(os.listdir(root)):
        run_dir = os.path.join(root, run_id)
        if not os.path.isdir(run_dir):
            continue
        manifest = read_json(os.path.join(run_dir, "manifest.json")) or {}

        def _count(sub: str, suffix: str = ".json") -> int:
            directory = os.path.join(run_dir, sub)
            if not os.path.isdir(directory):
                return 0
            return len([f for f in os.listdir(directory)
                        if f.endswith(suffix)
                        and not f.startswith(".tmp-")])

        leases_dir = os.path.join(run_dir, "leases")
        active = expired = 0
        if os.path.isdir(leases_dir):
            for filename in os.listdir(leases_dir):
                if not filename.endswith(".json") \
                        or filename.startswith(".tmp-"):
                    continue
                lease = read_json(os.path.join(leases_dir, filename))
                if lease is None:
                    continue
                if float(lease.get("deadline", 0.0)) > now:
                    active += 1
                else:
                    expired += 1
        out.append({
            "run": run_id,
            "points": manifest.get("points", "?"),
            "shards": _count("tasks"),
            "done": _count("done"),
            "active_leases": active,
            "expired_leases": expired,
            "fingerprint": manifest.get("fingerprint", "?"),
            "created": manifest.get("created"),
        })
    return out
