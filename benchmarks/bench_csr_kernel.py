"""CSR kernel + vectorized generator benchmarks: the n = 10^6 regime.

Three claims, one driver:

* **Vectorized generation** (the ≥ 3x bar): ``gnd`` and
  ``powerlaw_host`` through the numpy edge-array path vs the scalar
  reference loop at n = 10^5, produced graphs asserted identical —
  the vectorized contract means the speedup is pure implementation.
* **CSR triangle natives** (the ≥ 1x bar): merge-intersection
  ``count_triangles`` / ``greedy_triangle_packing`` vs the packed
  kernel's wedge scan on sparse planted hosts, outputs asserted
  identical.  The packed scan walks the full n²/64-word bitmap; the
  CSR scan is O(m)-shaped, so its advantage *grows* with n at fixed d
  (measured ~3x at 32768, ~4x at 10^5).
* **Memory**: per-backend adjacency bytes (``Graph.nbytes``) on the
  same sparse host — the csr column is what makes n = 10^6 fit.

``--scale-check`` runs the end-to-end demonstration: a full-disclosure
referee sweep (every player ships its view, referee answers
``find_triangle``) on sparse planted epsilon-far hosts — records
asserted byte-identical across {bigint, packed, csr} at n = 10^4 and
across {packed, csr} at n = 10^5, then the Table-row-style point at
**n = 10^6** on the csr backend alone, executed in a subprocess so its
peak RSS is measured in isolation and gated against
``MILLION_MEMORY_BUDGET`` (the packed bitmap alone would be 125 GB).

``--check-baseline`` compares the fresh speedups against the committed
``BENCH_csr_kernel.json`` (see :mod:`baseline`) before overwriting it.

Usage::

    python benchmarks/bench_csr_kernel.py                  # full grids
    python benchmarks/bench_csr_kernel.py --quick          # CI smoke
    python benchmarks/bench_csr_kernel.py --scale-check    # + n=1e6 sweep
    python benchmarks/bench_csr_kernel.py --check-baseline # vs committed
    python benchmarks/bench_csr_kernel.py --json PATH      # artifact path

Also collected by ``pytest benchmarks/`` as correctness+speedup tests
on the smallest qualifying sizes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from baseline import check_baseline
from timing_helpers import best_of

from repro.analysis.experiments import run_sweep
from repro.comm.encoding import edge_bits
from repro.comm.ledger import CostSummary
from repro.core.results import DetectionResult
from repro.graphs.generators import (
    gnd,
    planted_disjoint_triangles,
    powerlaw_host,
)
from repro.graphs.kernels import BACKEND_ENV_VAR
from repro.graphs.partition import EdgePartition, partition_disjoint
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
)

#: (n, d) for the generation gate.  The bar holds from n = 10^5 up; the
#: scalar loop is the expensive side, so one point keeps the bench fast.
GEN_GRID = [(100_000, 8.0)]
GEN_SPEEDUP_FLOOR = 3.0
GEN_GATED = ("gnd_generation", "powerlaw_generation")

#: (n, d) for csr vs packed triangle natives, sparse planted hosts.
TRIANGLE_FULL_GRID = [(32768, 8.0), (65536, 8.0), (100_000, 8.0)]
TRIANGLE_QUICK_GRID = [(32768, 8.0)]
#: csr must at least match the packed wedge scan on sparse hosts (it
#: measures ~3-4x ahead; 1.0 is the never-regress line).
CSR_TRIANGLE_FLOOR = 1.0
CSR_GATED = ("count_triangles", "greedy_packing")

#: Memory table sizes; bigint/packed columns only where their footprint
#: is itself benign to allocate.
MEMORY_SMALL_N = 10_000
MEMORY_MID_N = 100_000

MILLION_N = 1_000_000
IDENTITY_SMALL_N = 10_000
IDENTITY_MID_N = 100_000
#: Peak-RSS budget for the whole n = 10^6 sweep subprocess (instance
#: generation + partition + protocol).  Measured 2.86 GiB; the budget
#: leaves ~40% headroom and is still 30x under the packed bitmap alone.
MILLION_MEMORY_BUDGET = 4 << 30


# ----------------------------------------------------------------------
# The full-disclosure sweep protocol (picklable, backend-oblivious)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SparseFarBuilder:
    """``(n, d, seed) -> EdgePartition``: sparse planted far instance.

    ``n // 100`` vertex-disjoint planted triangles over a G(n, d)
    background, disjointly partitioned — the constant-degree host whose
    edge count (≈ n(d + 0.06)/2) stays O(n) at every scale.
    """

    k: int

    def __call__(self, n: int, d: float, seed: int) -> EdgePartition:
        instance = planted_disjoint_triangles(
            n, max(1, n // 100), seed=seed, background_degree=d
        )
        return partition_disjoint(instance.graph, k=self.k, seed=seed + 1)


@dataclass(frozen=True)
class FullDisclosureReferee:
    """Every player ships its whole view; the referee answers exactly.

    The cost model is the trivial upper bound the paper's protocols
    beat — |E_j| edges at ``edge_bits(n)`` each — but as a *sweep
    protocol* it is deliberately lean: detection is one
    ``find_triangle`` on the ground-truth union, which dispatches to
    the active kernel's native scan, so the sweep exercises the full
    generator → partition → kernel pipeline at any n the kernel can
    hold.  Deterministic and backend-oblivious, hence record-identical
    across backends on pinned seeds.
    """

    def __call__(self, partition: EdgePartition,
                 seed: int) -> DetectionResult:
        per_edge = edge_bits(partition.graph.n)
        shipped = sum(ids.size for ids in partition.edge_ids)
        triangle = find_triangle(partition.graph)
        cost = CostSummary(
            total_bits=shipped * per_edge,
            upstream_bits=shipped * per_edge,
            downstream_bits=0,
            rounds=1,
            messages=partition.k,
        )
        witness = ()
        if triangle is not None:
            a, b, c = triangle
            witness = ((a, b), (a, c), (b, c))
        return DetectionResult(
            found=triangle is not None, triangle=triangle,
            cost=cost, witness_edges=witness,
        )


def _graph_nbytes_metric(spec, instance, outcome) -> dict:
    return {"graph_nbytes": instance.graph.nbytes}


# ----------------------------------------------------------------------
# Generation: vectorized vs scalar
# ----------------------------------------------------------------------
def run_generation_grid(grid, repeats: int = 2) -> list[dict]:
    rows = []
    for n, d in grid:
        cases = [
            ("gnd_generation",
             lambda vec: gnd(n, d, seed=3, vectorized=vec)),
            ("powerlaw_generation",
             lambda vec: powerlaw_host(n, d, seed=3, vectorized=vec)),
        ]
        for name, build in cases:
            vector_time, vector_graph = best_of(repeats, build, True)
            scalar_time, scalar_graph = best_of(repeats, build, False)
            assert scalar_graph == vector_graph, (
                f"{name} edge sets differ at n={n}, d={d}"
            )
            rows.append({
                "n": n, "d": d, "case": name,
                "scalar_s": scalar_time, "vector_s": vector_time,
                "speedup": scalar_time / max(vector_time, 1e-12),
                "edges": scalar_graph.num_edges,
            })
    return rows


# ----------------------------------------------------------------------
# Triangle natives: csr vs packed
# ----------------------------------------------------------------------
def build_sparse_host(n: int, d: float, seed: int = 1):
    """One planted instance, bit-identical on the packed and csr kernels."""
    instance = planted_disjoint_triangles(
        n, n // 10, seed=seed, background_degree=d, backend="csr"
    )
    csr = instance.graph
    packed = csr.to_backend("packed")
    assert packed.num_edges == csr.num_edges
    return packed, csr


def run_triangle_grid(grid, repeats: int = 3) -> list[dict]:
    rows = []
    for n, d in grid:
        packed, csr = build_sparse_host(n, d)
        cases = [
            ("count_triangles", count_triangles),
            ("greedy_packing", greedy_triangle_packing),
            ("find_triangle", find_triangle),
        ]
        for name, fn in cases:
            csr_time, csr_out = best_of(repeats, fn, csr)
            packed_time, packed_out = best_of(repeats, fn, packed)
            assert csr_out == packed_out, (
                f"{name} output mismatch at n={n}, d={d}"
            )
            rows.append({
                "n": n, "d": d, "case": name,
                "packed_s": packed_time, "csr_s": csr_time,
                "speedup": packed_time / max(csr_time, 1e-12),
            })
    return rows


# ----------------------------------------------------------------------
# Memory table
# ----------------------------------------------------------------------
def run_memory_table(include_mid_packed: bool) -> list[dict]:
    """Per-backend ``Graph.nbytes`` on the same sparse host.

    The bigint column is only sampled at n = 10^4 and the packed column
    at ≤ 10^5 (full mode): above that, *allocating* those kernels is the
    cost the csr backend exists to avoid.
    """
    rows = []
    for n in (MEMORY_SMALL_N, MEMORY_MID_N):
        csr = planted_disjoint_triangles(
            n, n // 100, seed=1, background_degree=8.0, backend="csr"
        ).graph
        backends = {"csr": csr}
        if n <= MEMORY_SMALL_N:
            backends["bigint"] = csr.to_backend("bigint")
            backends["packed"] = csr.to_backend("packed")
        elif include_mid_packed:
            backends["packed"] = csr.to_backend("packed")
        for backend, graph in backends.items():
            rows.append({
                "case": "memory", "n": n, "backend": backend,
                "edges": graph.num_edges, "nbytes": graph.nbytes,
            })
    return rows


# ----------------------------------------------------------------------
# Floors
# ----------------------------------------------------------------------
def check_generation_floor(rows) -> list[str]:
    failures = []
    for row in rows:
        if (
            row["case"] in GEN_GATED
            and row["n"] >= 100_000
            and row["speedup"] < GEN_SPEEDUP_FLOOR
        ):
            failures.append(
                f"{row['case']} at n={row['n']}: "
                f"{row['speedup']:.1f}x < {GEN_SPEEDUP_FLOOR}x"
            )
    return failures


def check_triangle_floor(rows) -> list[str]:
    failures = []
    for row in rows:
        if row["case"] in CSR_GATED and row["speedup"] < CSR_TRIANGLE_FLOOR:
            failures.append(
                f"csr {row['case']} at n={row['n']}: "
                f"{row['speedup']:.2f}x < {CSR_TRIANGLE_FLOOR}x vs packed"
            )
    return failures


# ----------------------------------------------------------------------
# Scale check
# ----------------------------------------------------------------------
def _run_identity_sweep(n: int, backends, trials: int) -> list[str]:
    """Full-disclosure sweep records must match across ``backends``."""
    grid = [(n, 3.0, 3)]
    per_backend = {}
    for backend in backends:
        os.environ[BACKEND_ENV_VAR] = backend
        try:
            per_backend[backend] = run_sweep(
                FullDisclosureReferee(), SparseFarBuilder(k=3),
                grid, trials=trials, seed=0,
            ).records
        finally:
            os.environ.pop(BACKEND_ENV_VAR, None)
    reference = per_backend[backends[0]]
    failures = []
    for backend in backends[1:]:
        if per_backend[backend] != reference:
            failures.append(
                f"records differ at n={n}: {backends[0]} vs {backend}"
            )
    if not failures:
        print(
            f"scale-check n={n}: records identical across "
            f"{'/'.join(backends)} (bits={[r.bits for r in reference]})"
        )
    return failures


def run_million_point() -> dict:
    """The n = 10^6 sweep point, run in *this* process (child mode)."""
    os.environ[BACKEND_ENV_VAR] = "csr"
    try:
        start = time.perf_counter()
        result = run_sweep(
            FullDisclosureReferee(), SparseFarBuilder(k=3),
            [(MILLION_N, 3.0, 3)], trials=1, seed=0,
            metrics=_graph_nbytes_metric,
        )
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop(BACKEND_ENV_VAR, None)
    record = result.records[0]
    point = result.points[0]
    return {
        "n": MILLION_N,
        "found": record.found,
        "bits": record.bits,
        "graph_nbytes": record.extras["graph_nbytes"],
        "detection_rate": point.detection_rate,
        "seconds": round(elapsed, 2),
        "peak_rss_bytes": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss * 1024,
    }


def run_scale_check() -> tuple[list[str], dict]:
    """Identity at 10^4/10^5, then the isolated n = 10^6 point."""
    failures = _run_identity_sweep(
        IDENTITY_SMALL_N, ("bigint", "packed", "csr"), trials=2
    )
    failures += _run_identity_sweep(
        IDENTITY_MID_N, ("packed", "csr"), trials=1
    )
    # The million point runs in a subprocess so its peak RSS reflects
    # only that pipeline, not the packed bitmaps allocated above.
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--million-child"],
        capture_output=True, text=True, env=os.environ.copy(),
    )
    if child.returncode != 0:
        failures.append(
            f"n={MILLION_N} child failed "
            f"(rc={child.returncode}): {child.stderr.strip()[-500:]}"
        )
        return failures, {}
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    if not summary["found"]:
        failures.append(
            f"n={MILLION_N}: full disclosure missed the planted triangles"
        )
    if summary["peak_rss_bytes"] > MILLION_MEMORY_BUDGET:
        failures.append(
            f"n={MILLION_N}: peak RSS "
            f"{summary['peak_rss_bytes'] / 2**30:.2f} GiB exceeds the "
            f"{MILLION_MEMORY_BUDGET / 2**30:.0f} GiB budget"
        )
    print(
        f"scale-check n={MILLION_N}: csr sweep ok in "
        f"{summary['seconds']}s — bits={summary['bits']}, "
        f"graph={summary['graph_nbytes'] / 2**20:.1f} MiB, "
        f"peak RSS={summary['peak_rss_bytes'] / 2**30:.2f} GiB "
        f"(budget {MILLION_MEMORY_BUDGET / 2**30:.0f} GiB)"
    )
    return failures, summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_generation_table(rows) -> None:
    header = (
        f"{'n':>7} {'d':>5} {'case':<20} {'scalar':>10} {'vector':>10} "
        f"{'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>7} {row['d']:>5.1f} {row['case']:<20} "
            f"{row['scalar_s'] * 1e3:>8.1f}ms "
            f"{row['vector_s'] * 1e3:>8.1f}ms {row['speedup']:>6.1f}x"
        )


def print_triangle_table(rows) -> None:
    header = (
        f"{'n':>7} {'d':>5} {'case':<20} {'packed':>10} {'csr':>10} "
        f"{'x':>7}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>7} {row['d']:>5.1f} {row['case']:<20} "
            f"{row['packed_s'] * 1e3:>8.1f}ms "
            f"{row['csr_s'] * 1e3:>8.1f}ms {row['speedup']:>6.1f}x"
        )


def print_memory_table(rows) -> None:
    header = f"{'n':>7} {'backend':<8} {'edges':>9} {'adjacency':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n']:>7} {row['backend']:<8} {row['edges']:>9} "
            f"{row['nbytes'] / 2**20:>10.1f}Mi"
        )


def write_json(rows, path: Path, scale_check=None) -> None:
    payload = {
        "bench": "csr_kernel",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generation_floor": GEN_SPEEDUP_FLOOR,
        "csr_triangle_floor": CSR_TRIANGLE_FLOOR,
        "gated_cases": list(GEN_GATED) + list(CSR_GATED),
        "rows": rows,
    }
    if scale_check is not None:
        payload["scale_check"] = scale_check
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest entries (small qualifying sizes)
# ----------------------------------------------------------------------
def test_csr_triangle_natives_beat_packed(benchmark, print_row):
    """pytest entry: csr quick grid, identical outputs, ≥1x floor."""
    rows = benchmark.pedantic(
        lambda: run_triangle_grid(TRIANGLE_QUICK_GRID, repeats=2),
        rounds=1, iterations=1,
    )
    for row in rows:
        print_row(f"csr {row['case']} n={row['n']}: {row['speedup']:.1f}x")
    benchmark.extra_info["speedups"] = {
        f"{r['case']}@{r['n']}": round(r["speedup"], 2) for r in rows
    }
    assert not check_triangle_floor(rows)


def test_vectorized_generation_speedup(benchmark, print_row):
    """pytest entry: generation gate at n = 10^5, identical edge sets."""
    rows = benchmark.pedantic(
        lambda: run_generation_grid(GEN_GRID, repeats=1),
        rounds=1, iterations=1,
    )
    for row in rows:
        print_row(f"{row['case']} n={row['n']}: {row['speedup']:.1f}x")
    benchmark.extra_info["speedups"] = {
        f"{r['case']}@{r['n']}": round(r["speedup"], 2) for r in rows
    }
    assert not check_generation_floor(rows)


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if "--million-child" in argv:
        print(json.dumps(run_million_point()))
        return 0

    quick = "--quick" in argv
    json_path = Path(__file__).with_name("BENCH_csr_kernel.json")
    if "--json" in argv:
        operand = argv.index("--json") + 1
        if operand >= len(argv):
            print(
                "usage: bench_csr_kernel.py [--quick] [--scale-check] "
                "[--check-baseline] [--json PATH]"
            )
            return 2
        json_path = Path(argv[operand])

    gen_rows = run_generation_grid(GEN_GRID, repeats=1 if quick else 2)
    print_generation_table(gen_rows)
    failures = check_generation_floor(gen_rows)

    triangle_rows = run_triangle_grid(
        TRIANGLE_QUICK_GRID if quick else TRIANGLE_FULL_GRID,
        repeats=2 if quick else 3,
    )
    print_triangle_table(triangle_rows)
    failures.extend(check_triangle_floor(triangle_rows))

    memory_rows = run_memory_table(include_mid_packed=not quick)
    print_memory_table(memory_rows)

    all_rows = gen_rows + triangle_rows + memory_rows

    if "--check-baseline" in argv:
        # Compare before write_json overwrites the committed copy.  Only
        # the gated cases: find_triangle's packed early-exit finishes in
        # ~2ms so its ratio is all noise, and memory rows carry no
        # speedup at all.
        gated_rows = [
            r for r in all_rows
            if r["case"] in GEN_GATED + CSR_GATED
        ]
        baseline_failures = check_baseline(
            gated_rows, Path(__file__).with_name("BENCH_csr_kernel.json")
        )
        failures.extend(baseline_failures)
        if not baseline_failures:
            print("baseline check: within tolerance of committed results")

    scale_check = None
    if "--scale-check" in argv:
        scale_failures, summary = run_scale_check()
        failures.extend(scale_failures)
        scale_check = {"identical": not scale_failures, **summary}

    write_json(all_rows, json_path, scale_check)
    print(f"wrote {json_path}")

    if failures:
        print("SPEEDUP FLOOR MISSED / IDENTITY BROKEN / BUDGET EXCEEDED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: generation >= {GEN_SPEEDUP_FLOOR}x vectorized, csr natives "
        f">= {CSR_TRIANGLE_FLOOR}x vs packed on sparse hosts, "
        f"outputs identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
