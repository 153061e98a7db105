"""End-to-end benchmark of the Table 1 reproduction, with a per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload table1-quick --seed 0 --seconds 10 --trace 0

``--trace 0`` repeats the workload untraced until ``--seconds`` have
passed (at least once) and reports the end-to-end metrics: ``wall_s``
(median pass), ``setup_s`` (median of several fresh processes timed to
their first row call) and ``peak_rss_mib``.  ``--trace 1`` runs the same
untraced passes, then one serial pass with a span around every layer
entry point, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the run (git
sha, cores, load, versions, backends, seed, calibration loop, records
digest, each row's measured value).

Every run checks the outputs: every reported triangle (or pattern copy)
is one of its instance; T1-R1's triangle-free controls report none; no
trial fails; and on ``sim-full-w2`` the two-worker records are
pickle-equal to the serial traced run's and the resume replay returns
the fresh records.  A failed check prints ``"correct": false`` and
exits with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from layers import (
    SELF_TIME_KEYS,
    ResultTap,
    SelfTimer,
    import_all_repro_modules,
    instrumented,
)
from workloads import REPLAY, run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Row ids of Table 1, in ``ALL_ROWS`` order: one ``analysis.row.<id>_s``
#: metric each.
TABLE1_ROWS = ("T1-R1", "T1-R2a", "T1-R2b", "T1-R2c", "X-1", "X-2",
               "T1-R3", "T1-R4", "T1-R5", "T1-R6", "L4.5")

#: Workers of the untraced passes; traced passes always run serially.
UNTRACED_WORKERS = {"table1-quick": 1, "sparse-sim-low": 1, "sim-full-w2": 2}

SETUP_PROBES = 9

#: A second seed, not used while the benchmark was written: a claimed
#: gain must also hold with ``--seed HELD_OUT_SEED``.
HELD_OUT_SEED = 20261017


class WarningCounter(logging.Handler):
    """Counts warnings of the ``repro`` logger instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.by_logger: Counter[str] = Counter()
        self.eps_shortfall = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.by_logger[record.name] += 1
        if record.getMessage().startswith("far_instance("):
            self.eps_shortfall += 1


def calibration_s() -> float:
    """A fixed pure-Python loop, timed: the speed of this interpreter here."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over ``src/repro``'s Python files: identifies non-git checkouts."""
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_seconds(workers: int, env: dict) -> list[float]:
    """Launch-to-first-row time of fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(workers)],
            env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(probe.stdout.split()[0]) - start)
    return times


def peak_rss_mib() -> float:
    """Larger of this process's and its children's peak RSS.

    A supervised pool is shut down without waiting, so its workers are
    joined here first: only waited-for children count in the usage.
    """
    for child in multiprocessing.active_children():
        child.join(60)
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def fresh_record_lists(tap) -> list[bytes]:
    return [pickle.dumps(records) for label, records in tap.records
            if not label.startswith(REPLAY)]


def check(name: str, taps, traced_tap) -> list[str]:
    """The correctness gate: a list of violated conditions (empty: pass)."""
    problems = []
    for tap in taps + ([traced_tap] if traced_tap is not None else []):
        rows = tap.rows()
        records = tap.all_records()
        bad = [r for r in records if not r.ok]
        if bad:
            problems.append(f"{len(bad)} of {len(records)} trials failed: "
                            f"{bad[0].error}")
        if any(r.found for r in rows.get("T1-R1", [])):
            problems.append("T1-R1 reported a triangle on a triangle-free "
                            "control")
        fresh = [(label, recs) for label, recs in tap.records
                 if not label.startswith(REPLAY)]
        replay = [(label[len(REPLAY):], recs) for label, recs in tap.records
                  if label.startswith(REPLAY)]
        if replay and replay != fresh:
            problems.append("the resume replay returned other records than "
                            "the fresh run")
    if traced_tap is not None:
        reference = fresh_record_lists(traced_tap)
        for tap in taps:
            if fresh_record_lists(tap) != reference:
                what = ("two-worker" if name == "sim-full-w2"
                        else "untraced")
                problems.append(f"{what} records are not pickle-equal to "
                                "the serial traced run's")
    return problems


def layer_metrics(timer, traced, untraced, untraced_wall: float,
                  warnings: int, failed_share: float
                  ) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for key in SELF_TIME_KEYS:
        metrics[key] = (timer.self_s[key], "s")
    metrics["runtime.overhead_s"] = (
        traced.wall_s - timer.attributed_s(), "s")
    for key in ("graphs.generate_calls", "comm.randomness.rank_evals",
                "comm.randomness.pred_evals", "comm.randomness.subset_draws",
                "comm.players.harvest_calls", "comm.coordinator.rounds",
                "core.referee_calls", "runtime.journal_appends",
                "runtime.batches"):
        metrics[key] = (timer.counts[key], "count")
    metrics["graphs.instance_bytes"] = (
        timer.counts["graphs.instance_bytes"], "bytes")
    metrics["graphs.eps_shortfall_warnings"] = (warnings, "count")
    metrics["runtime.cache_hits"] = (traced.cache.get("hits", 0), "count")
    metrics["runtime.cache_misses"] = (traced.cache.get("misses", 0), "count")
    metrics["runtime.resume_s"] = (traced.resume_s, "s")
    metrics["runtime.max_batch_s"] = (timer.max_s["runtime.batch_s"], "s")
    metrics["runtime.failed_share"] = (failed_share, "ratio")
    for row in TABLE1_ROWS:
        metrics[f"analysis.row.{row}_s"] = (untraced.row_s.get(row, 0.0), "s")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced_wall,
                                       "ratio")
    metrics["trace.traced_wall_s"] = (traced.wall_s, "s")
    return metrics


def run(args, workdir: Path) -> int:
    sys.path.insert(0, str(SRC))
    tempfile.tempdir = str(workdir)
    env = dict(os.environ, TMPDIR=tempfile.tempdir)

    started = time.perf_counter()
    import numpy

    import_all_repro_modules()
    import_s = time.perf_counter() - started

    counter = WarningCounter()
    repro_logger = logging.getLogger("repro")
    repro_logger.addHandler(counter)
    repro_logger.propagate = False

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "graph_backend_env": os.environ.get("REPRO_GRAPH_BACKEND"),
        "calibration_s": calibration_s(),
        "import_s": import_s,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        probes = setup_seconds(UNTRACED_WORKERS[args.workload], env)
        meta["setup_probes_s"] = probes
        metrics["setup_s"] = (statistics.median(probes), "s")

    workers = UNTRACED_WORKERS[args.workload]
    passes, taps = [], []
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start < args.seconds:
        tap = ResultTap()
        with instrumented(tap):
            passes.append(run_workload(args.workload, args.seed, tap,
                                       workdir, workers))
        taps.append(tap)
        if len(passes) == 1:
            # Later passes fork pool workers from a larger parent, so the
            # high-water mark of a one-shot run is read here.
            rss = peak_rss_mib()
    untraced_warnings = counter.eps_shortfall

    traced_pass = traced_tap = timer = None
    traced_warnings = 0
    if args.trace == 1 or args.workload == "sim-full-w2":
        counter.eps_shortfall = 0
        timer = SelfTimer()
        traced_tap = ResultTap()
        with instrumented(traced_tap, timer):
            traced_pass = run_workload(args.workload, args.seed, traced_tap,
                                       workdir, 1)
        traced_warnings = counter.eps_shortfall

    records = [r for tap in taps for r in tap.all_records()]
    failed = sum(1 for r in records if not r.ok)
    problems = check(args.workload, taps, traced_tap)
    digest = hashlib.sha256(b"".join(fresh_record_lists(taps[0])))
    meta.update({
        "passes": len(passes),
        "wall_s_passes": [p.wall_s for p in passes],
        "resolved_backends": sorted(set().union(*(t.backends for t in taps))),
        "records_sha256": digest.hexdigest(),
        "measured": passes[0].measured,
        "protocol_outcomes": taps[0].outcomes,
        "found": taps[0].found,
        "eps_shortfall_warnings_untraced": untraced_warnings,
        "repro_warnings": dict(counter.by_logger),
        "problems": problems,
    })

    # The first pass pays the process's page faults and lazy imports;
    # when the run had time for more, it only warms up.
    timed = passes[1:] if len(passes) > 1 else passes
    wall = statistics.median(p.wall_s for p in timed)
    if args.trace == 0:
        metrics["wall_s"] = (wall, "s")
        metrics["peak_rss_mib"] = (rss, "MiB")
    else:
        metrics.update(layer_metrics(
            timer, traced_pass, timed[0], wall, traced_warnings,
            failed / len(records),
        ))
    attempted = len(records) + (
        len(traced_tap.all_records()) if traced_tap is not None else 0)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"perfbench": meta}, default=str))
    print(json.dumps(result))
    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(UNTRACED_WORKERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Journals, disk caches and temporary files stay inside the checkout.
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
