"""Deterministic runtime fault injection for the execution engine.

Every recovery path in :mod:`repro.runtime.executor` — error capture,
the timeout watchdog, retry-with-backoff, pool rebuild after a worker
death — needs to be exercised on demand in CI, not discovered in
production.  A :class:`FaultPlan` is the seam: a picklable, frozen
description of *which* trials fail, *how*, and for *how many attempts*,
threaded onto a :class:`~repro.runtime.executor.TrialTask` via its
``fault_plan=`` keyword.  Passing one to ``run_trials`` gives the
engine a retry policy; the plan is consulted only by the supervised
batch entry (:meth:`~repro.runtime.executor.TrialTask.run_batch_supervised`),
once per trial and attempt.

Determinism comes from being attempt-indexed rather than stateful: a
fault fires iff the trial's coordinates match and the supervisor-passed
attempt number is below the fault's ``attempts`` budget.  No counters,
no clocks, no per-process state — the same plan produces the same
failure schedule in serial, fork, and spawn execution.

Fault kinds:

* ``"raise"`` — raise :class:`InjectedFault` inside the trial; the
  supervised task captures it as a ``status="error"`` result, which the
  supervisor retries with backoff.
* ``"hang"`` — sleep for ``hang_seconds``; the supervisor's wall-clock
  watchdog times the attempt out (and, in parallel mode, kills and
  rebuilds the pool, since a hung worker cannot be cancelled).
* ``"kill"`` — hard-exit the worker process (``os._exit``), the
  ``BrokenProcessPool`` scenario.  In-process execution (serial, or the
  degraded-to-serial path) downgrades it to ``"raise"`` — killing the
  driver would take the supervisor down with it, which is exactly what
  the fault exists to prove cannot happen to the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.runtime.spec import TrialSpec

__all__ = ["Fault", "FaultPlan", "InjectedFault"]


class InjectedFault(RuntimeError):
    """The exception a ``"raise"`` (or downgraded ``"kill"``) fault throws."""


_KINDS = ("raise", "hang", "kill")


@dataclass(frozen=True)
class Fault:
    """One failure rule: where it strikes, what it does, how long it lasts.

    ``point_index`` / ``trial_index`` of ``None`` are wildcards; a fault
    with both ``None`` strikes every trial.  ``attempts`` is the number
    of supervisor attempts the fault survives: the default ``1`` fails
    the first attempt and lets the retry succeed, ``attempts >=
    max_attempts`` makes the trial permanently fail (surfacing as a
    structured error result rather than a dead sweep).
    """

    kind: str
    point_index: int | None = None
    trial_index: int | None = None
    attempts: int = 1
    hang_seconds: float = 30.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be positive, got {self.attempts}")
        if self.hang_seconds < 0:
            raise ValueError(
                f"hang_seconds must be non-negative, got {self.hang_seconds}"
            )

    def matches(self, spec: TrialSpec, attempt: int) -> bool:
        if attempt >= self.attempts:
            return False
        if self.point_index is not None and spec.point_index != self.point_index:
            return False
        if self.trial_index is not None and spec.trial_index != self.trial_index:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A picklable schedule of injected failures.

    Applied by the supervised task immediately before a trial's real
    work; the first matching fault fires.  Plans are frozen dataclasses
    of primitives, so they ship to spawn workers exactly like the task
    that carries them.
    """

    faults: tuple[Fault, ...]

    def __init__(self, faults: tuple[Fault, ...] | list[Fault] = ()) -> None:
        object.__setattr__(self, "faults", tuple(faults))

    def apply(self, spec: TrialSpec, attempt: int) -> None:
        """Fire the first fault matching ``(spec, attempt)``, if any."""
        for fault in self.faults:
            if not fault.matches(spec, attempt):
                continue
            if fault.kind == "hang":
                time.sleep(fault.hang_seconds)
                return
            if fault.kind == "kill" and _in_worker_process():
                os._exit(86)
            raise InjectedFault(
                f"{fault.message} (kind={fault.kind}, "
                f"point={spec.point_index}, trial={spec.trial_index}, "
                f"attempt={attempt})"
            )

    def __bool__(self) -> bool:
        return bool(self.faults)


def _in_worker_process() -> bool:
    """True when running inside a multiprocessing child.

    ``os._exit`` in the driver process would kill the whole sweep —
    the one outcome the fault harness exists to rule out — so ``kill``
    faults only hard-exit genuine pool workers.
    """
    return multiprocessing.parent_process() is not None
