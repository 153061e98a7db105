"""Extension benchmarks: H-freeness, model equivalences, Newman pools.

Not paper rows — these cover the extensions DESIGN.md lists beyond
Table 1: the generalized H-freeness tester (the paper's future-work
direction), the Section 2 message-passing <-> coordinator equivalence
overhead, and the Newman private-coin announcement cost.
"""

from __future__ import annotations

import statistics

from repro.analysis.scaling import fit_power_law
from repro.comm.encoding import bits_for_universe
from repro.comm.messagepassing import (
    MessagePassingRuntime,
    coordinator_cost_of_transcript,
)
from repro.comm.newman import build_pool
from repro.comm.players import Player
from repro.core.subgraph_detection import (
    FOUR_CLIQUE,
    FOUR_CYCLE,
    SubgraphParams,
    find_subgraph_simultaneous,
    planted_disjoint_subgraphs,
)
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_disjoint


def test_h_freeness_scaling(benchmark, print_row):
    """Cost of the generalized tester grows sublinearly in n for C4."""
    ns = [400, 800, 1600, 3200]
    params = SubgraphParams(epsilon=0.15, c=2.0, rounds=3)

    def sweep():
        costs = []
        detections = []
        for n in ns:
            bits = []
            hits = 0
            for seed in range(3):
                instance = planted_disjoint_subgraphs(
                    n, FOUR_CYCLE, max(5, int(0.15 * n / 8)), seed=seed,
                    background_degree=1.0,
                )
                partition = partition_disjoint(
                    instance.graph, 3, seed=seed + 1
                )
                result = find_subgraph_simultaneous(
                    partition, FOUR_CYCLE, params, seed=seed
                )
                bits.append(result.total_bits)
                hits += result.found
            costs.append(statistics.median(bits))
            detections.append(hits / 3)
        return costs, detections

    costs, detections = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = fit_power_law([float(n) for n in ns], costs)
    benchmark.extra_info["n_exponent"] = fit.exponent
    benchmark.extra_info["detections"] = detections
    print_row(
        f"EXT-H    C4-freeness tester: bits ~ n^{fit.exponent:.2f} "
        f"(sublinear; exact would be ~n), detection "
        + "/".join(f"{r:.2f}" for r in detections)
    )
    assert fit.exponent < 0.9
    assert statistics.fmean(detections) >= 0.65


def test_k4_detection_cost(benchmark, print_row):
    # The (nd)^{1-2/h} vs nd advantage needs enough density: at n=4000,
    # d~9 the K4 tester already undercuts exact (and widens beyond).
    n = 4000

    def run():
        instance = planted_disjoint_subgraphs(
            n, FOUR_CLIQUE, 250, seed=3, background_degree=8.0
        )
        params = SubgraphParams(
            epsilon=instance.epsilon_certified, c=1.2, rounds=3
        )
        partition = partition_disjoint(instance.graph, 4, seed=4)
        from repro.core.exact_baseline import exact_triangle_detection

        tester = find_subgraph_simultaneous(
            partition, FOUR_CLIQUE, params, seed=5
        )
        exact = exact_triangle_detection(partition)
        return tester, exact

    tester, exact = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["tester_bits"] = tester.total_bits
    benchmark.extra_info["exact_bits"] = exact.total_bits
    print_row(
        f"EXT-K4   K4 tester {tester.total_bits}b (found={tester.found}) "
        f"vs exact {exact.total_bits}b at n={n}"
    )
    assert tester.total_bits < exact.total_bits


def test_message_passing_equivalence_overhead(benchmark, print_row):
    """The Section 2 simulation overhead is exactly 2 + ceil(log k)/size."""
    ks = [4, 16, 64]

    def sweep():
        factors = []
        for k in ks:
            players = [Player(j, Graph(10)) for j in range(k)]
            rt = MessagePassingRuntime(players)
            message_bits = 32
            for sender in range(k - 1):
                rt.send(sender, sender + 1, "x", message_bits)
            simulated = coordinator_cost_of_transcript(rt.transcript, k)
            factors.append(simulated / rt.total_bits)
        return factors

    factors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["overhead_factors"] = dict(zip(ks, factors))
    print_row(
        "EXT-MP   message-passing -> coordinator overhead: "
        + ", ".join(f"k={k}: {f:.2f}x" for k, f in zip(ks, factors))
    )
    for k, factor in zip(ks, factors):
        assert factor <= 2 + bits_for_universe(k) / 32 + 1e-9


def test_newman_announcement_cost(benchmark, print_row):
    """Private-coin conversion costs k·ceil(log t) bits — O(k) here."""
    ks = [3, 10, 30, 100]

    def sweep():
        return [
            build_pool(k, gamma=0.1, delta_prime=0.05).announcement_bits
            for k in ks
        ]

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = fit_power_law([float(k) for k in ks], [float(c) for c in costs])
    benchmark.extra_info["bits_by_k"] = dict(zip(ks, costs))
    print_row(
        "EXT-NW   Newman announcement bits: "
        + ", ".join(f"k={k}: {c}" for k, c in zip(ks, costs))
        + f" (~k^{fit.exponent:.2f})"
    )
    assert abs(fit.exponent - 1.0) < 0.05
