"""Process-local metrics: counters, gauges, and timing histograms.

A :class:`MetricsRegistry` is a plain in-process accumulator — no
threads, no sockets, no background flushing.  Instrumented code calls
the module-level helpers (:func:`inc`, :func:`gauge`, :func:`observe`,
:func:`timer`), which are no-ops costing one global load and a ``None``
check unless a registry has been installed via :func:`set_metrics` /
:func:`use_metrics`.  Nothing here ever touches a random number
generator, so enabling metrics cannot perturb any record.

Cross-process story: registries do not magically span processes.
Instead :meth:`MetricsRegistry.snapshot` renders the whole registry as
a JSON-faithful dict and :meth:`MetricsRegistry.merge` folds such a
snapshot back in, so parallel workers ship their registries back to the
driver alongside their ``TrialResult``s (the executors do this
automatically whenever metrics are active) and the driver aggregates.
Histogram merging is bucket-count addition — associative and
commutative, so the merge order across workers never changes the
aggregate (asserted in ``tests/test_obs.py``).

Timing histograms use power-of-two second buckets (``math.frexp``
exponents): ``observe("x", dt)`` increments the bucket whose range
covers ``dt`` and tracks count/sum/min/max exactly.  Coarse by design —
the histogram answers "where did the time go", the trace answers "in
which call".
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from typing import Iterator

__all__ = [
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "inc",
    "gauge",
    "observe",
    "timer",
]


class MetricsRegistry:
    """Counters, gauges, and timing histograms with snapshot/merge."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins on merge)."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into timing histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {
                "count": 0, "sum": 0.0,
                "min": math.inf, "max": -math.inf,
                "buckets": {},
            }
        hist["count"] += 1
        hist["sum"] += seconds
        if seconds < hist["min"]:
            hist["min"] = seconds
        if seconds > hist["max"]:
            hist["max"] = seconds
        # Bucket = binary exponent of the duration: bucket e covers
        # [2^(e-1), 2^e) seconds.  Zero/negative land in a dedicated
        # underflow bucket so merge stays total.
        exp = math.frexp(seconds)[1] if seconds > 0.0 else None
        key = str(exp) if exp is not None else "underflow"
        buckets = hist["buckets"]
        buckets[key] = buckets.get(key, 0) + 1

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager observing the enclosed wall-clock duration."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a JSON-faithful dict (deep copy)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "count": h["count"], "sum": h["sum"],
                    "min": h["min"], "max": h["max"],
                    "buckets": dict(h["buckets"]),
                }
                for name, h in self.histograms.items()
            },
        }

    def merge(self, snapshot: "dict | MetricsRegistry") -> None:
        """Fold a snapshot (or another registry) into this one.

        Counters and histogram counts/sums add; gauges take the
        incoming value (last write wins); histogram min/max widen.
        Addition of counts is associative, so merging worker snapshots
        in any grouping yields the same aggregate.
        """
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(snapshot.get("gauges", {}))
        for name, incoming in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = {
                    "count": 0, "sum": 0.0,
                    "min": math.inf, "max": -math.inf,
                    "buckets": {},
                }
            hist["count"] += incoming["count"]
            hist["sum"] += incoming["sum"]
            hist["min"] = min(hist["min"], incoming["min"])
            hist["max"] = max(hist["max"], incoming["max"])
            buckets = hist["buckets"]
            for key, count in incoming["buckets"].items():
                buckets[key] = buckets.get(key, 0) + count

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def reset(self) -> None:
        """Zero every counter, gauge, and histogram."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, "
            f"histograms={len(self.histograms)})"
        )


# ----------------------------------------------------------------------
# The active registry: one module global, read by every instrumented
# call site.  ``None`` (the default) short-circuits everything.
# ----------------------------------------------------------------------
_ACTIVE: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` (metrics off)."""
    return _ACTIVE


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry | None) -> Iterator[None]:
    """Install ``registry`` for the duration of the block."""
    previous = set_metrics(registry)
    try:
        yield
    finally:
        set_metrics(previous)


def inc(name: str, value: float = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.inc(name, value)


def gauge(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.observe(name, seconds)


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_TIMER = _NullTimer()


def timer(name: str):
    """A timing context — free when metrics are off."""
    if _ACTIVE is None:
        return _NULL_TIMER
    return _ACTIVE.timer(name)


# ----------------------------------------------------------------------
# Worker-process hooks used by the executors
# ----------------------------------------------------------------------

def worker_sync() -> None:
    """Reconcile an inherited registry with the current process.

    A fork-started worker inherits the driver's active registry
    (copy-on-write), including every count the driver accumulated
    before the fork; shipping that back would double-count.  Called at
    worker-task entry: the first call in a child process resets the
    inherited copy, so the worker accumulates (and ships) only its own
    deltas.  A no-op in the driver and on every later call.
    """
    registry = _ACTIVE
    if registry is not None and registry._pid != os.getpid():
        registry.reset()
        registry._pid = os.getpid()


def ship() -> dict | None:
    """Snapshot-and-reset the worker's registry for the trip home.

    Returns ``None`` when metrics are off (the common case — nothing
    extra crosses the pipe).  Resetting after the snapshot makes the
    shipped snapshots *deltas*: the driver merges every one of them and
    the totals come out exact regardless of chunking.
    """
    registry = _ACTIVE
    if registry is None:
        return None
    snapshot = registry.snapshot()
    registry.reset()
    return snapshot


def absorb(snapshot: dict | None) -> None:
    """Driver-side: merge a worker-shipped snapshot into the active
    registry (no-op for ``None`` or when metrics are off)."""
    if snapshot is not None and _ACTIVE is not None:
        _ACTIVE.merge(snapshot)
