"""The benchmark's three workloads, each one pass of user-visible work.

Every workload takes the workload seed and hands the program only what
the seed generates (sweep seeds, hence instances and coins).  Why each
workload exists is recorded in ``perfbench/README.md``:

* ``table1-quick``   — ``generate_table1(quick=True, workers=1)``, the
  headline user command; public coins dominate (T1-R1).
* ``sparse-sim-low`` — the T1-R2a protocol on n = 50 000 hosts, serial;
  instance build dominates and coins barely register.
* ``sim-full-w2``    — full-mode T1-R2a/b/c, X-1 and X-2 at two workers
  with a disk-tier cache and a journal, then a ``resume=True`` replay;
  exercises the runtime layer (fork pool, pickles, journal I/O).
"""

from __future__ import annotations

import contextlib
import functools
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import ResultTap

__all__ = ["Pass", "WORKLOADS", "REPLAY", "run_workload"]

#: Rows of the sim-full-w2 workload (``repro.analysis.table1`` names).
SIM_FULL_ROWS = (
    "row_sim_low_upper",
    "row_sim_high_upper",
    "row_oblivious",
    "row_exact_baseline",
    "row_subgraph_patterns",
)

#: sparse-sim-low: host size, degree, players, trials of the T1-R2a sweep.
SPARSE_N, SPARSE_D, SPARSE_K, SPARSE_TRIALS = 50_000, 6.0, 3, 3

#: Label prefix of the records a resume replay returns.
REPLAY = "replay:"


@dataclass
class Pass:
    """What one pass of a workload measured."""

    wall_s: float = 0.0
    row_s: dict[str, float] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    resume_s: float = 0.0


class _RowClock:
    """Wraps Table 1 row functions: wall clock, report and record label."""

    def __init__(self, tap: ResultTap, passed: Pass) -> None:
        self.tap = tap
        self.passed = passed
        self.prefix = ""
        self.caches: list = []

    def wrap(self, row_fn):
        @functools.wraps(row_fn)
        def clocked(*args, **kwargs):
            self.caches.append(kwargs.get("cache"))
            label = self.prefix + row_fn.__name__
            self.tap.label = label
            start = time.perf_counter()
            report = row_fn(*args, **kwargs)
            row = self.prefix + report.row_id
            self.passed.row_s[row] = time.perf_counter() - start
            self.passed.measured[row] = report.measured
            self.tap.relabel(label, row)
            return report

        return clocked

    def cache_stats(self) -> dict:
        caches = {id(c): c for c in self.caches if c is not None}
        if len(caches) != 1:
            raise RuntimeError(f"expected one shared cache, saw {len(caches)}")
        return next(iter(caches.values())).stats()


def table1_quick(seed: int, tap: ResultTap, workdir: Path,
                 workers: int) -> Pass:
    """``generate_table1(quick=True, workers=1)``, clocked per row.

    The entries of ``ALL_ROWS`` are swapped for clocked copies for the
    duration of the call (eleven calls), so the wall clock is that of
    the real entry point, shared cache and rendering included.
    """
    from repro.analysis import table1

    passed = Pass()
    clock = _RowClock(tap, passed)
    originals = list(table1.ALL_ROWS)
    table1.ALL_ROWS[:] = [clock.wrap(fn) for fn in originals]
    try:
        start = time.perf_counter()
        table1.generate_table1(quick=True, seed=seed, workers=workers)
        passed.wall_s = time.perf_counter() - start
    finally:
        table1.ALL_ROWS[:] = originals
    if len(passed.row_s) != len(originals):
        raise RuntimeError(
            f"generate_table1 ran {len(passed.row_s)} of the "
            f"{len(originals)} rows in ALL_ROWS"
        )
    passed.cache = clock.cache_stats()
    return passed


def _sim_low(partition, seed: int, *, shared=None):
    # Looked up at call time so the traced run's span wrapper applies.
    from repro.core import simultaneous_low

    return simultaneous_low.find_triangle_sim_low(
        partition, simultaneous_low.SimLowParams(epsilon=0.2, delta=0.2),
        seed=seed, shared=shared,
    )


def sparse_sim_low(seed: int, tap: ResultTap, workdir: Path,
                   workers: int) -> Pass:
    """T1-R2a's protocol at n = 50 000, serial, auto backend, no cache."""
    from repro.analysis import experiments, table1

    tap.label = "sparse-sim-low"
    start = time.perf_counter()
    sweep = experiments.run_sweep(
        _sim_low,
        table1.far_disjoint_instance(epsilon=0.2, k=SPARSE_K),
        [(SPARSE_N, SPARSE_D, SPARSE_K)], trials=SPARSE_TRIALS, seed=seed,
        workers=workers,
    )
    wall = time.perf_counter() - start
    return Pass(wall_s=wall,
                measured={"sparse-sim-low": sweep.points[0].detection_rate})


def sim_full(seed: int, tap: ResultTap, workdir: Path, workers: int) -> Pass:
    """Full-mode simultaneous rows with journal and cache, then a replay.

    ``workers=2`` is the workload; the gate reruns it with
    ``workers=1`` under tracing.  Both use a disk-tier instance cache
    and a fresh journal directory inside ``workdir``.
    """
    from repro.analysis import table1
    from repro.runtime import InstanceCache

    passed = Pass()
    clock = _RowClock(tap, passed)
    rows = [clock.wrap(getattr(table1, name)) for name in SIM_FULL_ROWS]
    with contextlib.ExitStack() as stack:
        journal_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="journal-", dir=workdir))
        cache_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="cache-", dir=workdir))
        cache = InstanceCache(disk_dir=cache_dir)
        start = time.perf_counter()
        for row_fn in rows:
            row_fn(quick=False, seed=seed, workers=workers, cache=cache,
                   journal_dir=journal_dir)
        fresh_end = time.perf_counter()
        clock.prefix = REPLAY
        for row_fn in rows:
            row_fn(quick=False, seed=seed, workers=workers, cache=cache,
                   journal_dir=journal_dir, resume=True)
        end = time.perf_counter()
    passed.wall_s = end - start
    passed.resume_s = end - fresh_end
    passed.cache = cache.stats()
    return passed


WORKLOADS = {
    "table1-quick": table1_quick,
    "sparse-sim-low": sparse_sim_low,
    "sim-full-w2": sim_full,
}


def run_workload(name: str, seed: int, tap: ResultTap, workdir: Path,
                 workers: int) -> Pass:
    return WORKLOADS[name](seed, tap, workdir, workers)
