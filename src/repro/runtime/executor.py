"""Trial execution: one engine, serial or process-pool-parallel.

The contract every executor honours: given the same :class:`TrialTask`
and the same :class:`~repro.runtime.spec.TrialBatch` list,
:meth:`Executor.execute` returns the same
:class:`~repro.runtime.spec.TrialResult` list in the same (batch)
order.  Parallelism changes wall-clock only, never records — each
trial's randomness is fully determined by its spec's derived seed, so
there is no shared RNG state to race on.

There is one way to run a trial: build (or cache-fetch) the spec's
instance, then call ``protocol(instance, spec.seed)``; the protocol
derives its public coins from that seed itself.  The unit of work is a
``TrialBatch``: ``run_trials(..., batch=True)`` groups the specs by grid
point and ``batch=False`` makes every spec a batch of one.  A batch
keeps no instance alive past its trial (reuse across trials is the
:class:`~repro.runtime.cache.InstanceCache`'s job), and parallel
sharding is by whole batch, so the records are byte-identical either
way.

``ParallelExecutor`` distributes batches over a ``ProcessPoolExecutor``
and supports every start method:

* **fork** (the fast path where available): protocol and instance
  callables are typically closures (every Table 1 row builds them
  inline), which do not pickle; instead of pickling them per call, the
  active task is parked in a module global immediately before the pool
  forks, so workers inherit it through copy-on-write and only the small
  ``TrialBatch`` / ``TrialResult`` dataclasses ever cross the pipe.
* **spawn / forkserver** (Windows, macOS, and Python 3.14's default):
  the task is pickled *once* and shipped to each worker through the
  pool initializer, which parks it in the same module global — the
  per-batch traffic is identical to the fork path.  Tasks that do not
  pickle (closure-built) fall back to serial execution transparently;
  module-level callables (and the picklable callables in
  :mod:`repro.analysis.experiments`) parallelise everywhere.

The engine's one policy is a :class:`RetryPolicy` or ``None``.
``run_trials`` passes ``None`` unless it is given a ``retry=``,
``journal=``, ``resume=`` or ``fault_plan=``, and without a policy a
trial exception propagates with its original type.  A policy adds the
fault-tolerance layer:

* per-trial **error capture** — a trial that raises becomes a
  ``status="error"`` :class:`TrialResult` instead of killing the sweep;
* a **wall-clock watchdog** (``RetryPolicy.timeout``) per batch — a
  hung trial times out instead of stalling the sweep forever (in
  parallel mode the hung worker's pool is killed and rebuilt, because a
  running pool worker cannot be cancelled);
* **bounded deterministic retry-with-backoff** — failed batches are
  re-run up to ``RetryPolicy.max_attempts`` times with a fixed
  (jitter-free) backoff schedule; because trials are pure functions of
  their specs, retries can change wall-clock but never records;
* **pool rebuild** on ``BrokenProcessPool`` (a worker died), with
  graceful **degradation to serial** execution once
  ``RetryPolicy.max_pool_rebuilds`` is exhausted;
* incremental **journaling**: each completed batch's ok-results are
  durably appended to the :class:`~repro.runtime.journal.RunJournal`
  the moment they exist, so a crash loses at most the in-flight batch.
"""

from __future__ import annotations

import abc
import contextlib
import inspect
import logging
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import InstanceCache
from repro.runtime.journal import RunJournal
from repro.runtime.spec import TrialBatch, TrialResult, TrialSpec, batch_specs

if TYPE_CHECKING:  # circular-import-free type-only reference
    from repro.runtime.faults import FaultPlan

__all__ = [
    "TrialTask",
    "RetryPolicy",
    "TrialTimeout",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_workers",
    "default_executor",
    "run_trials",
    "shared_cache",
]

_LOGGER = logging.getLogger(__name__)


class TrialTimeout(RuntimeError):
    """A supervised unit of work exceeded its wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised engine responds to failure.

    ``max_attempts`` bounds runs per unit of work (a batch: one grid
    point, or one trial with ``batch=False``); ``backoff_base * backoff_factor**i`` seconds
    separate attempt ``i`` from attempt ``i+1`` — a fixed, jitter-free
    schedule, so failure handling is as deterministic as the trials
    themselves.  ``timeout`` (seconds per attempt, ``None`` = no
    watchdog) is the hang guard; in parallel mode a timeout kills and
    rebuilds the pool, and after ``max_pool_rebuilds`` rebuilds the
    remaining work degrades to in-process serial execution.  ``sleep``
    is injectable so tests can run the schedule without waiting it out.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    timeout: float | None = None
    max_pool_rebuilds: int = 3
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise ValueError("backoff terms must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-running after attempt ``attempt``."""
        return self.backoff_base * self.backoff_factor ** attempt

#: Any callable mapping an ``EdgePartition``-like instance and a seed to an
#: object exposing ``total_bits`` and ``found`` (e.g. ``DetectionResult``).
ProtocolFn = Callable[..., object]
InstanceFn = Callable[[int, float, int], object]
MetricsFn = Callable[[TrialSpec, object, object], dict]


class TrialTask:
    """Executes one spec: build (or fetch) the instance, run the protocol.

    Parameters
    ----------
    instance_fn:
        ``(n, d, seed) -> instance``; must close over anything else it
        needs (epsilon, ...), mirroring the historical ``run_sweep``
        contract.  A builder that declares a ``k`` keyword parameter is
        instead called ``(n, d, seed, k=spec.k)`` so one builder can
        serve k-sweeps.
    protocol:
        ``(instance, seed) -> outcome`` where the outcome exposes
        ``total_bits`` and ``found``.  It is always called with exactly
        those two arguments and derives its public coins from ``seed``.
    cache / instance_key:
        When both are given, instances are memoised under
        ``(instance_key, n, d, k, seed)`` so other tasks with the same
        key reuse them; pick one key per instance *construction*.
    metrics:
        Optional ``(spec, instance, outcome) -> dict`` hook whose result
        lands in ``TrialResult.extras`` (picklable primitives only).
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted by
        the supervised entries only — the deterministic fault-injection
        seam the recovery machinery is tested through.
    """

    def __init__(self, instance_fn: InstanceFn, protocol: ProtocolFn, *,
                 cache: InstanceCache | None = None,
                 instance_key: str | None = None,
                 metrics: MetricsFn | None = None,
                 fault_plan: "FaultPlan | None" = None) -> None:
        self.instance_fn = instance_fn
        self.protocol = protocol
        self.cache = cache
        self.instance_key = instance_key
        self.metrics = metrics
        self.fault_plan = fault_plan
        try:
            self._pass_k = "k" in inspect.signature(instance_fn).parameters
        except (TypeError, ValueError):  # builtins / C callables
            self._pass_k = False

    def cache_key(self, spec: TrialSpec) -> tuple:
        return (
            self.instance_key, spec.n, spec.d, spec.k,
            spec.effective_instance_seed,
        )

    def _build(self, spec: TrialSpec) -> object:
        seed = spec.effective_instance_seed
        if self._pass_k:
            return self.instance_fn(spec.n, spec.d, seed, k=spec.k)
        return self.instance_fn(spec.n, spec.d, seed)

    def build_instance(self, spec: TrialSpec) -> object:
        if self.cache is not None and self.instance_key is not None:
            return self.cache.get_or_build(
                self.cache_key(spec), lambda: self._build(spec)
            )
        return self._build(spec)

    def _run_one(self, spec: TrialSpec) -> TrialResult:
        """One trial; its instance is released when the trial returns."""
        with obs_trace.span("trial", point=spec.point_index,
                            trial=spec.trial_index, n=spec.n), \
                obs_metrics.timer("trial.seconds"):
            with obs_trace.span("build"):
                instance = self.build_instance(spec)
            with obs_trace.span("protocol"):
                outcome = self.protocol(instance, spec.seed)
        extras = (
            self.metrics(spec, instance, outcome)
            if self.metrics is not None else None
        )
        return TrialResult.from_outcome(
            spec,
            bits=outcome.total_bits,
            found=outcome.found,
            extras=extras,
        )

    def run_batch(self, batch: TrialBatch) -> list[TrialResult]:
        """Run one batch's trials in spec order.

        Exceptions escape with their original type.
        """
        return self._run_batch(batch, None)

    def run_batch_supervised(self, batch: TrialBatch, *,
                             attempt: int = 0) -> list[TrialResult]:
        """:meth:`run_batch` with per-trial fault injection and error
        capture.

        A failure inside one trial (fault, instance build, protocol,
        metrics hook) yields an error record for that trial only; the
        batch's other trials still run.  Successful trials produce
        records identical to :meth:`run_batch`.
        """
        return self._run_batch(batch, attempt)

    def _run_batch(self, batch: TrialBatch,
                   attempt: int | None) -> list[TrialResult]:
        """The loop behind both batch entries; ``attempt=None`` is the
        unsupervised one."""
        attrs = {} if attempt is None else {"attempt": attempt}
        if batch.specs:
            # The grid point's coordinates, so a trace alone says which
            # point a batch's cost belongs to.
            first = batch.specs[0]
            attrs.update(n=first.n, d=first.d, k=first.k)
        with obs_trace.span("batch", point=batch.point_index,
                            trials=len(batch.specs), **attrs):
            results: list[TrialResult] = []
            for spec in batch.specs:
                try:
                    if attempt is not None and self.fault_plan is not None:
                        self.fault_plan.apply(spec, attempt)
                    results.append(self._run_one(spec))
                except Exception as error:
                    if attempt is None:
                        raise
                    results.append(TrialResult.from_error(spec, error))
            return results


def _single(spec: TrialSpec) -> TrialBatch:
    """A batch of one — the unit ``batch=False`` runs each spec as."""
    return TrialBatch(point_index=spec.point_index, specs=(spec,))


def resolve_workers(workers: int | None = None) -> int:
    """Worker-count policy: explicit arg > ``REPRO_WORKERS`` env > serial.

    Zero or negative means "all cores".
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


class Executor(abc.ABC):
    """Runs batches of trials; subclasses choose how, never what."""

    @abc.abstractmethod
    def execute(self, task: TrialTask, batches: Iterable[TrialBatch], *,
                retry: RetryPolicy | None = None,
                journal: RunJournal | None = None) -> list[TrialResult]:
        """Run every batch, returning the results in batch order.

        ``retry=None`` runs :meth:`TrialTask.run_batch` and lets a trial
        exception propagate.  A :class:`RetryPolicy` runs
        :meth:`TrialTask.run_batch_supervised` under a wall-clock
        watchdog with bounded retry, and appends each resolved batch to
        ``journal`` when one is given.
        """


class SerialExecutor(Executor):
    """In-process execution — the reference the parallel path must match."""

    def execute(self, task: TrialTask, batches: Iterable[TrialBatch], *,
                retry: RetryPolicy | None = None,
                journal: RunJournal | None = None) -> list[TrialResult]:
        return _run_serial(task, batches, retry, journal)


# The task a ParallelExecutor is currently running.  Fork workers
# inherit it via copy-on-write; spawn workers receive it pickled through
# the pool initializer below.
_ACTIVE_TASK: TrialTask | None = None


def _run_active_batch(payload: tuple[TrialBatch, int | None]
                      ) -> tuple[list[TrialResult], dict | None]:
    """The pool workers' entry: one batch, one attempt.

    Returns ``(results, metrics_snapshot)``: the snapshot is the worker
    registry's delta since its last shipment (``None`` when metrics are
    off), which the parent process folds into its own registry as the
    results come home — see :mod:`repro.obs.metrics`.
    """
    batch, attempt = payload
    if _ACTIVE_TASK is None:
        raise RuntimeError("no active task in worker; pool misconfigured")
    obs_metrics.worker_sync()
    results = (
        _ACTIVE_TASK.run_batch(batch) if attempt is None
        else _ACTIVE_TASK.run_batch_supervised(batch, attempt=attempt)
    )
    return results, obs_metrics.ship()


def _install_pickled_task(payload: bytes) -> None:
    """Spawn-worker initializer: unpickle the task into the shared slot.

    A spawned worker imports everything fresh, so unlike a fork worker
    it does not inherit the driver's metrics registry; when the driver
    had one, install a fresh registry here so the worker's counts are
    collected and shipped home all the same.
    """
    global _ACTIVE_TASK
    _ACTIVE_TASK, metrics_on = pickle.loads(payload)
    if metrics_on and obs_metrics.get_metrics() is None:
        obs_metrics.set_metrics(obs_metrics.MetricsRegistry())


def _task_name(task: TrialTask) -> str:
    """A human-readable task identity for degradation warnings."""

    def name(fn: object) -> str:
        return getattr(fn, "__qualname__", None) or repr(fn)

    return (
        f"TrialTask(protocol={name(task.protocol)}, "
        f"instance_fn={name(task.instance_fn)})"
    )


# ----------------------------------------------------------------------
# Supervision helpers (shared by the serial and parallel loops)
# ----------------------------------------------------------------------

def _call_with_timeout(fn: Callable[[], object],
                       timeout: float | None) -> object:
    """Run ``fn`` with a wall-clock budget, in-process.

    With a timeout, ``fn`` runs on a daemon worker thread and a hang
    surfaces as :class:`TrialTimeout` after ``timeout`` seconds — the
    abandoned thread finishes (or sleeps out its injected hang) in the
    background, and its late result is discarded.  This is the only way
    to put a watchdog on in-process execution; parallel supervision
    instead waits on pool futures and kills the hung worker's pool.
    """
    if timeout is None:
        return fn()
    box: dict[str, object] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as error:  # re-raised on the caller's thread
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TrialTimeout(f"no result within {timeout}s")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


def _kill_pool(pool: _PoolExecutor) -> None:
    """Forcibly tear down a pool that may contain hung or dead workers.

    ``shutdown`` alone never terminates a *running* worker, so a hung
    trial would pin its process forever; terminate the children first
    (via the executor's process table), then release the executor's
    resources without waiting on them.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.terminate()
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)


def _rebind_coordinates(batch: TrialBatch,
                        outcome: Sequence[TrialResult]) -> list[TrialResult]:
    """Rebuild worker-returned records on the driver's own spec objects.

    Exactly what a driver-side ``TrialResult.from_outcome`` call would
    reference: within a grid point the specs share coordinate objects
    (one ``d`` float per point), so the pickled byte stream of the final
    record *list* matches serial execution no matter how the records
    were split across futures on the way home.
    """
    return [
        replace(
            result,
            point_index=spec.point_index, trial_index=spec.trial_index,
            n=spec.n, d=spec.d, k=spec.k, seed=spec.seed,
        )
        for spec, result in zip(batch.specs, outcome)
    ]


def _timeout_results(batch: TrialBatch,
                     retry: RetryPolicy) -> list[TrialResult]:
    message = f"trial timed out after {retry.timeout}s"
    return [
        TrialResult.from_error(spec, message, status="timeout")
        for spec in batch.specs
    ]


def _worker_lost_results(batch: TrialBatch) -> list[TrialResult]:
    return [
        TrialResult.from_error(spec, "worker process died (pool broken)")
        for spec in batch.specs
    ]


def _journal_batch(journal: RunJournal | None, batch: TrialBatch,
                   results: Sequence[TrialResult]) -> None:
    if journal is None:
        return
    for spec, result in zip(batch.specs, results):
        journal.record(spec, result)


def _supervise_serial(task: TrialTask, batch: TrialBatch,
                      retry: RetryPolicy,
                      journal: RunJournal | None) -> list[TrialResult]:
    """The in-process attempt loop: timeout, capture, backoff, retry."""
    outcome: list[TrialResult] = []
    for attempt in range(retry.max_attempts):
        if attempt:
            obs_trace.event("retry", attempt=attempt)
            obs_metrics.inc("retry.attempts")
            retry.sleep(retry.backoff(attempt - 1))
        try:
            outcome = _call_with_timeout(
                lambda: task.run_batch_supervised(batch, attempt=attempt),
                retry.timeout,
            )
        except TrialTimeout:
            obs_trace.event("timeout", attempt=attempt,
                            timeout=retry.timeout)
            outcome = _timeout_results(batch, retry)
            continue
        if all(result.ok for result in outcome):
            break
    _journal_batch(journal, batch, outcome)
    return outcome


def _run_serial(task: TrialTask, batches: Iterable[TrialBatch],
                retry: RetryPolicy | None,
                journal: RunJournal | None) -> list[TrialResult]:
    """The in-process loop: the reference semantics, and what the pool
    falls back to."""
    results: list[TrialResult] = []
    for batch in batches:
        if retry is None:
            results.extend(task.run_batch(batch))
        else:
            results.extend(_supervise_serial(task, batch, retry, journal))
    return results


class ParallelExecutor(Executor):
    """Fan batches out over a process pool.

    ``workers=None`` means all cores.  ``start_method=None`` picks
    ``fork`` where the platform offers it and ``spawn`` otherwise
    (Windows, macOS defaults, Python 3.14+); passing ``"fork"`` /
    ``"spawn"`` / ``"forkserver"`` pins it.  Falls back to serial
    execution when there is nothing to parallelise (one worker, one
    batch), when re-entered from within another parallel run (the shared
    task slot is single-occupancy), or when a spawn-method pool is asked
    to run a task that does not pickle.
    """

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None) -> None:
        self.workers = (
            resolve_workers(workers) if workers is not None
            else (os.cpu_count() or 1)
        )
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"start method {start_method!r} not available here "
                    f"(choose from {available})"
                )
        self.start_method = start_method

    def _resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        available = multiprocessing.get_all_start_methods()
        env = os.environ.get("REPRO_START_METHOD", "").strip()
        if not env:
            return "fork" if "fork" in available else "spawn"
        if env not in available:
            raise ValueError(
                f"REPRO_START_METHOD={env!r} not available here "
                f"(choose from {available})"
            )
        return env

    def execute(self, task: TrialTask, batches: Iterable[TrialBatch], *,
                retry: RetryPolicy | None = None,
                journal: RunJournal | None = None) -> list[TrialResult]:
        """The pool loop.

        Without a policy every batch is submitted once and the first
        failure ``future.result()`` raises — a trial exception or a
        ``BrokenProcessPool`` — propagates to the caller.

        With a policy, work proceeds in *waves*: every unresolved batch
        is submitted to the pool, results are collected in batch order
        with the watchdog's per-batch budget, and failed batches re-enter
        the next wave with an incremented attempt counter (after the
        backoff pause).  A timeout or a dead worker poisons the pool —
        running workers cannot be cancelled — so the pool is killed and
        rebuilt between waves, up to ``retry.max_pool_rebuilds`` times;
        after that the remaining batches degrade to the in-process serial
        loop (where ``kill`` faults downgrade to ``raise``, and the sweep
        still finishes with structured error records at worst).

        A wave-wide ``BrokenProcessPool`` cannot be attributed to one
        batch, so every batch still unresolved in that wave is charged an
        attempt — this keeps the faulty batch's counter advancing (and
        fault plans deterministic) at the price of innocent batches
        occasionally burning an attempt alongside it.
        """
        global _ACTIVE_TASK
        batch_list = list(batches)
        workers = min(self.workers, len(batch_list))
        if workers <= 1 or _ACTIVE_TASK is not None:
            return _run_serial(task, batch_list, retry, journal)
        method = self._resolve_start_method()
        pool_kwargs: dict = {}
        if method != "fork":
            # Spawned workers import this module fresh: ship the task
            # once, pickled, through the initializer.  Closure-built
            # tasks cannot travel that way — run them serially.
            try:
                payload = pickle.dumps(
                    (task, obs_metrics.get_metrics() is not None)
                )
            except Exception as error:
                _LOGGER.warning(
                    "%s does not pickle under start method %r (%s); "
                    "falling back to serial execution — records are "
                    "identical but parallelism is disabled for this run",
                    _task_name(task), method, error,
                )
                return _run_serial(task, batch_list, retry, journal)
            pool_kwargs = {
                "initializer": _install_pickled_task,
                "initargs": (payload,),
            }
        context = multiprocessing.get_context(method)

        def make_pool() -> _PoolExecutor:
            return _PoolExecutor(max_workers=workers, mp_context=context,
                                 **pool_kwargs)

        _ACTIVE_TASK = task
        pool: _PoolExecutor | None = make_pool()
        rebuilds = 0
        # batch index -> attempt counter; resolved batches leave the map.
        remaining: dict[int, int] = {i: 0 for i in range(len(batch_list))}
        results: dict[int, list[TrialResult]] = {}
        last_outcome: dict[int, list[TrialResult]] = {}
        try:
            while remaining:
                if pool is None:
                    _LOGGER.warning(
                        "process pool could not be revived after %d "
                        "rebuild(s); degrading %d batch(es) to serial "
                        "execution", rebuilds, len(remaining),
                    )
                    obs_trace.event("degrade_serial", units=len(remaining),
                                    rebuilds=rebuilds)
                    obs_metrics.inc("pool.degrade_serial")
                    for i in sorted(remaining):
                        results[i] = _supervise_serial(
                            task, batch_list[i], retry, journal
                        )
                    remaining.clear()
                    break
                futures = {
                    i: pool.submit(
                        _run_active_batch,
                        (batch_list[i], None if retry is None else attempt),
                    )
                    for i, attempt in sorted(remaining.items())
                }
                break_kind: str | None = None  # None | "timeout" | "broken"
                failed: list[int] = []
                for i in sorted(futures):
                    future = futures[i]
                    batch = batch_list[i]
                    if break_kind is not None and not future.done():
                        # The pool is going down; this batch never got to
                        # run — it re-enters the next wave at the same
                        # attempt (except after a worker death, charged
                        # below to keep fault counters advancing).
                        future.cancel()
                        if break_kind == "broken":
                            failed.append(i)
                            last_outcome[i] = _worker_lost_results(batch)
                        continue
                    try:
                        wait = (
                            None if retry is None or future.done()
                            else retry.timeout
                        )
                        outcome, shipped = future.result(timeout=wait)
                        obs_metrics.absorb(shipped)
                    except Exception as error:
                        if retry is None:
                            raise
                        failed.append(i)
                        if isinstance(error, _FuturesTimeout):
                            break_kind = break_kind or "timeout"
                            obs_trace.event("timeout", unit=i,
                                            timeout=retry.timeout)
                            last_outcome[i] = _timeout_results(batch, retry)
                        elif isinstance(error, BrokenExecutor):
                            break_kind = "broken"
                            obs_trace.event("worker_lost", unit=i)
                            obs_metrics.inc("pool.worker_lost")
                            last_outcome[i] = _worker_lost_results(batch)
                        else:  # defensive: capture happens worker-side
                            last_outcome[i] = [
                                TrialResult.from_error(spec, error)
                                for spec in batch.specs
                            ]
                        continue
                    outcome = _rebind_coordinates(batch, outcome)
                    if all(result.ok for result in outcome):
                        results[i] = outcome
                        _journal_batch(journal, batch, outcome)
                        del remaining[i]
                    else:
                        failed.append(i)
                        last_outcome[i] = outcome
                # Resolve or re-queue this wave's failures.
                backoff_from = None
                for i in failed:
                    attempt = remaining[i]
                    if attempt + 1 >= retry.max_attempts:
                        results[i] = last_outcome[i]
                        _journal_batch(journal, batch_list[i], last_outcome[i])
                        del remaining[i]
                    else:
                        remaining[i] = attempt + 1
                        obs_trace.event("retry", unit=i, attempt=attempt + 1)
                        obs_metrics.inc("retry.attempts")
                        backoff_from = (
                            attempt if backoff_from is None
                            else max(backoff_from, attempt)
                        )
                if break_kind is not None:
                    _kill_pool(pool)
                    rebuilds += 1
                    obs_trace.event("pool_rebuild", kind=break_kind,
                                    rebuilds=rebuilds)
                    obs_metrics.inc("pool.rebuilds")
                    pool = (
                        make_pool() if rebuilds <= retry.max_pool_rebuilds
                        else None
                    )
                if remaining and backoff_from is not None:
                    retry.sleep(retry.backoff(backoff_from))
            return [
                result
                for i in range(len(batch_list))
                for result in results[i]
            ]
        finally:
            _ACTIVE_TASK = None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


@contextlib.contextmanager
def shared_cache(workers: int | None = None,
                 max_entries: int = 128) -> Iterator[InstanceCache]:
    """Yield an :class:`InstanceCache` matched to the execution mode.

    Serial runs get a memory-only cache (same-process reuse suffices).
    Parallel runs add a temporary disk tier: instances a worker builds
    die with the worker, so only the disk tier lets the workers of a
    *later* sweep reuse what an earlier sweep generated.  The directory
    is removed when the context exits.
    """
    if resolve_workers(workers) <= 1:
        yield InstanceCache(max_entries=max_entries)
        return
    with tempfile.TemporaryDirectory(prefix="repro-instance-cache-") as tmp:
        yield InstanceCache(max_entries=max_entries, disk_dir=tmp)


def default_executor(workers: int | None = None) -> Executor:
    """Serial for one worker, parallel otherwise (after env resolution)."""
    count = resolve_workers(workers)
    return SerialExecutor() if count <= 1 else ParallelExecutor(count)


def _deal_batches(batches: Sequence[TrialBatch],
                  flat: list[TrialResult],
                  spec_list: Sequence[TrialSpec]) -> list[TrialResult]:
    """Deal batch-grouped results back out in input spec order (a no-op
    for batches of one and for the usual point-major spec lists)."""
    if len(batches) <= 1 or len(batches) == len(spec_list):
        return flat
    queues: dict[int, deque[TrialResult]] = {}
    position = 0
    for group in batches:
        queues[group.point_index] = deque(
            flat[position:position + len(group.specs)]
        )
        position += len(group.specs)
    return [queues[spec.point_index].popleft() for spec in spec_list]


def run_trials(protocol: ProtocolFn, instance_fn: InstanceFn,
               specs: Sequence[TrialSpec], *,
               workers: int | None = None,
               executor: Executor | None = None,
               cache: InstanceCache | None = None,
               instance_key: str | None = None,
               metrics: MetricsFn | None = None,
               batch: bool = False,
               retry: RetryPolicy | None = None,
               journal: RunJournal | str | os.PathLike | None = None,
               resume: bool = False,
               fault_plan: "FaultPlan | None" = None) -> list[TrialResult]:
    """One-call convenience: wrap the callables in a task and execute.

    ``batch=True`` runs one :class:`~repro.runtime.spec.TrialBatch` per
    grid point (one unit of work, so one parallel task and one retry
    unit per point); ``batch=False`` runs every spec as a batch of one.
    Both return the same records in the same (input spec) order.

    Fault-tolerance knobs.  With none of them the engine runs without a
    policy and a trial exception propagates with its original type; any
    of them supervises the run:

    retry:
        A :class:`RetryPolicy` — error capture, per-batch wall-clock
        timeout, bounded deterministic retry-with-backoff, pool rebuild
        on worker death, serial degradation when the pool cannot be
        revived.  Defaults to a single attempt when another knob
        engages supervision.
    journal:
        A :class:`~repro.runtime.journal.RunJournal` (or a path one is
        opened at — and closed again — for the duration of the call).
        Every completed ok-result is durably appended as it exists.
    resume:
        With a journal: specs already recorded are *not* re-run; their
        journaled results are returned verbatim, byte-identical to what
        an uninterrupted run would have produced.
    fault_plan:
        A :class:`~repro.runtime.faults.FaultPlan` injecting
        deterministic failures (raise / hang / kill-worker) into chosen
        trials — the CI seam that proves every recovery path above.
    """
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    task = TrialTask(instance_fn, protocol, cache=cache,
                     instance_key=instance_key, metrics=metrics,
                     fault_plan=fault_plan)
    chosen = executor if executor is not None else default_executor(workers)
    policy = retry
    if policy is None and (journal is not None or fault_plan is not None):
        policy = RetryPolicy(max_attempts=1)
    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    journal_obj: RunJournal | None = (
        RunJournal(journal) if owns_journal else journal  # type: ignore[arg-type]
    )
    spec_list = list(specs)
    try:
        with obs_trace.span("run_trials", specs=len(spec_list), batch=batch):
            replayed: dict[int, TrialResult] = {}
            if resume and journal_obj is not None:
                for index, spec in enumerate(spec_list):
                    recorded = journal_obj.get(spec)
                    if recorded is not None:
                        # Rebuild the record on the caller's own spec
                        # coordinate objects, exactly as a live
                        # ``TrialResult.from_outcome`` would — this keeps
                        # the within-point object sharing (and hence the
                        # pickled byte stream of the whole record list)
                        # identical to an uninterrupted run.
                        replayed[index] = replace(
                            recorded,
                            point_index=spec.point_index,
                            trial_index=spec.trial_index,
                            n=spec.n, d=spec.d, k=spec.k, seed=spec.seed,
                        )
            if replayed:
                obs_metrics.inc("journal.replayed", len(replayed))
                obs_trace.event("resume", replayed=len(replayed),
                                pending=len(spec_list) - len(replayed))
            pending_indices = [
                i for i in range(len(spec_list)) if i not in replayed
            ]
            pending = [spec_list[i] for i in pending_indices]
            batches = (
                batch_specs(pending) if batch
                else [_single(spec) for spec in pending]
            )
            fresh = _deal_batches(
                batches,
                chosen.execute(task, batches, retry=policy,
                               journal=journal_obj),
                pending,
            )
    finally:
        if owns_journal and journal_obj is not None:
            journal_obj.close()
    results = fresh
    if replayed:
        by_index = {**dict(zip(pending_indices, fresh)), **replayed}
        results = [by_index[i] for i in range(len(spec_list))]
    registry = obs_metrics.get_metrics()
    if registry is not None:
        for result in results:
            registry.inc(f"trial.{result.status}")
    return results
