"""Pluggable execution backends for experiment sweeps.

A backend has one method, :meth:`ExecutionBackend.run_all_settled`,
the only execution contract: it turns a list of
:class:`~repro.api.experiment.Experiment` specs into a list of settled
outcomes, **in order** -- a result per success, an
:class:`ExperimentFailure` per failed point.  (``Runner.run_all`` raises
:class:`RuntimeError` only after the whole batch has settled.)
Three implementations ship:

* :class:`SerialBackend` -- run in-process, one after another;
* :class:`ProcessPoolBackend` -- fan the sweep across worker processes
  with :mod:`multiprocessing`.  Simulations are deterministic and share
  nothing, so results are identical to the serial backend's -- only the
  wall clock changes (roughly divided by the core count);
* :class:`WorkQueueBackend` -- shard it across ``repro-bench worker``s.

Backends execute *specs*, not workload objects: the worker rebuilds the
workload from the registry inside the child process, so only plain data
crosses the process boundary.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.api.experiment import Experiment
from repro.sim.config import TraceConfig
from repro.system.simulation import SimulationResult, run_workload

#: Progress callback for settled batches: called with the number of
#: points that just finished (usually 1; a distributed shard at once).
ProgressFn = Callable[[int], None]


def execute_experiment(experiment: Experiment,
                       trace: Optional[TraceConfig] = None) -> SimulationResult:
    """Run one experiment spec to completion (the single-run engine).

    ``trace`` is an *execution-side* observability overlay: the spec --
    and therefore its hash, the store key and every pinned digest -- is
    untouched; only the built system gets the tracing config.  Tracing
    never perturbs simulation state, so the result differs from an
    untraced run only by the extra ``obs`` payload.
    """
    config = experiment.config
    if trace is not None:
        config = dataclasses.replace(config, trace=trace)
    workload = experiment.build_workload()
    return run_workload(
        config, workload, max_events=experiment.max_events
    )


@dataclass
class ExperimentFailure:
    """One failed point of a settled batch.

    Plain data (a traceback string), so it crosses the process-pool
    boundary exactly like a result does.  ``retryable`` separates the
    failure taxonomy the work queue acts on: ``False`` means the *spec*
    failed (a deterministic error that would fail identically on any
    retry -- never retried, isolated per point), ``True`` means the
    *environment* failed (a hung point hitting the pool timeout, a point
    lost to worker crashes) and re-running it may well succeed.
    """

    error: str
    retryable: bool = False


#: What one point of a settled batch yields.
Settled = Union[SimulationResult, ExperimentFailure]


def execute_experiment_settled(experiment: Experiment, store=None,
                               trace: Optional[TraceConfig] = None) -> Settled:
    """Run one spec, converting any failure into :class:`ExperimentFailure`.

    This is the per-point isolation primitive of campaign execution: a
    workload that cannot even be built (bad parameters) or a simulation
    that dies mid-run reports as data instead of aborting the batch.

    With a ``store``, the *executing worker* persists its own success,
    so a campaign killed mid-batch keeps every point that finished.
    Store I/O failure never fails the point.  The store pickles as plain
    data, so the same function drives the serial path and the pool.
    """
    try:
        result = execute_experiment(experiment, trace=trace)
    except Exception:  # noqa: BLE001 - the point is to report, not crash
        return ExperimentFailure(traceback.format_exc())
    if store is not None:
        try:
            store.put(experiment.spec_hash(), result, experiment)
        except OSError:
            pass
    return result


class ExecutionBackend:
    """How a Runner turns specs into outcomes (serially, in-process)."""

    name = "abstract"

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        """Execute every experiment; failures isolate to their point.

        ``store`` (a :class:`~repro.api.store.ResultStore`) turns on
        per-point write-through: each success is persisted by the worker
        that computed it, as it finishes.  ``trace`` overlays an
        observability config on execution without touching the specs (see
        :func:`execute_experiment`).  ``progress`` is called with the
        number of points that just settled, as they settle.
        """
        settled: List[Settled] = []
        for experiment in experiments:
            settled.append(execute_experiment_settled(
                experiment, store=store, trace=trace))
            if progress is not None:
                progress(1)
        return settled


class SerialBackend(ExecutionBackend):
    """Run experiments one by one in the calling process."""

    name = "serial"


def backend_for(jobs: int,
                timeout_s: Optional[float] = None) -> ExecutionBackend:
    """The natural backend for a worker count: a pool above one job.

    A per-point ``timeout_s`` forces the pool even at one job -- a
    timeout is only enforceable on work running in a child process the
    parent can abandon.
    """
    if jobs > 1 or timeout_s is not None:
        return ProcessPoolBackend(jobs=jobs, timeout_s=timeout_s)
    return SerialBackend()


class ProcessPoolBackend(ExecutionBackend):
    """Fan experiments across a :mod:`multiprocessing` worker pool.

    Points go to workers one at a time, which balances best when run
    times differ wildly across a sweep.  A batch needing one worker and
    no timeout runs in the calling process.

    Args:
        jobs: worker count; defaults to the machine's CPU count.
        timeout_s: per-point wall-clock budget.  A point that exceeds it
            settles as a retryable :class:`ExperimentFailure` instead of
            wedging the whole shard; the hung child is killed when the
            pool closes.  The budget is measured from when the batch
            starts waiting on that point, so it bounds wait-per-point,
            not total wall.
    """

    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout_s = timeout_s

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        experiments = list(experiments)
        workers = min(self.jobs, len(experiments))
        if not experiments or (workers == 1 and self.timeout_s is None):
            return super().run_all_settled(experiments, store=store,
                                           trace=trace, progress=progress)
        fn = functools.partial(execute_experiment_settled, store=store,
                               trace=trace)
        ctx = self._context()
        # Exiting the `with` terminates the pool, killing any child
        # still stuck on a timed-out point.  Points are collected (and
        # reported to ``progress``) in input order as they finish.
        with ctx.Pool(processes=workers) as pool:
            pending = [pool.apply_async(fn, (e,)) for e in experiments]
            settled: List[Settled] = []
            for experiment, result in zip(experiments, pending):
                try:
                    settled.append(result.get(self.timeout_s))
                except ctx.TimeoutError:
                    settled.append(ExperimentFailure(
                        f"point {experiment.spec_hash()} exceeded the "
                        f"{self.timeout_s}s per-point timeout (hung "
                        f"simulation or starved worker); killed with the "
                        f"pool", retryable=True))
                if progress is not None:
                    progress(1)
            return settled

    @staticmethod
    def _context():
        # Prefer fork: workers inherit the imported simulator for free and
        # no __main__ re-import is needed (spawn breaks under pytest).
        # Imported here so that processes which never fan out (every
        # serial or warm-store CLI call) do not pay for multiprocessing.
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )


class WorkQueueBackend(ExecutionBackend):
    """Distribute a settled batch across ``repro-bench worker`` fleets.

    The batch is sharded into lease-protected task files under the
    store's ``queue/`` tree (see :mod:`repro.api.workqueue`); any worker
    pointed at the same store pulls shards and persists results
    write-through.  The coordinator embedded in this backend re-leases
    expired shards, retries transient failures with capped backoff, and
    degrades to local execution through ``fallback`` when no workers
    pick tasks up within the grace period -- so ``--distributed`` never
    needs a fleet to make progress, it only goes faster with one.

    Keyword arguments mirror :class:`~repro.api.workqueue.Coordinator`.
    """

    name = "work-queue"

    def __init__(self, store, **coordinator_kwargs) -> None:
        from repro.api.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self._kwargs = coordinator_kwargs
        #: The last run's supervision counters (set by run_all_settled).
        self.last_stats: Optional[dict] = None

    def _coordinator(self):
        from repro.api.workqueue import Coordinator

        return Coordinator(self.store, **self._kwargs)

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None,
                        trace: Optional[TraceConfig] = None,
                        progress: Optional[ProgressFn] = None) -> List[Settled]:
        if store is not None and (os.path.realpath(store.root)
                                  != os.path.realpath(self.store.root)):
            raise ValueError(
                f"WorkQueueBackend is bound to store {self.store.root!r} "
                f"but the batch was dispatched with store {store.root!r}; "
                f"the queue and the results must share one store")
        coordinator = self._coordinator()
        settled = coordinator.run(experiments, trace=trace,
                                  progress=progress)
        self.last_stats = dict(coordinator.stats)
        return settled
