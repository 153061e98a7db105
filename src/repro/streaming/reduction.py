"""The streaming <-> one-way reductions of Section 4.2.2 ([4], executable).

**Streaming → one-way.**  Partition the stream among the players in order;
each player runs the streaming algorithm over its own segment, then
forwards the serialized state (charged at its bit size) to the next; the
last player finishes the pass and outputs.  A space-s algorithm yields a
chain protocol with s bits per hop, so the protocol's cost per hop
lower-bounds streaming space: CC ≥ (hops) · space means
space ≥ CC / hops.

Each player's segment is fed to the algorithm as *row batches* straight
from the adjacency rows of the player's view graph (memoised on the
partition by :meth:`~repro.graphs.partition.EdgePartition.adjacency_rows`):
one ``process_row`` call per base vertex instead of one ``process`` call per
edge, which is the mask-kernel fast path for algorithms that implement
the row form natively (both triangle finders do).  The batched stream is
the per-edge stream in ascending canonical order, so transcripts and
outputs are identical to the per-edge feed, which survives as
:func:`repro.streaming.reference.streaming_to_oneway_reference`.

**One-way lower bound → streaming lower bound.**  Contrapositive of the
above — the paper's Ω(n^{1/4}) one-way bound for triangle-edge detection on
µ becomes an Ω(n^{1/4}) space bound for single-pass streaming on the same
distribution.  :func:`space_lower_bound_from_oneway` states the transfer.
"""

from __future__ import annotations

from typing import Callable

from repro.comm.oneway import OneWayRun, run_oneway_chain
from repro.comm.players import Player, make_players
from repro.graphs.partition import EdgePartition
from repro.streaming.stream import StreamingAlgorithm, canonical_row_batches

__all__ = [
    "streaming_to_oneway",
    "space_lower_bound_from_oneway",
    "oneway_cost_of_streaming",
]


def streaming_to_oneway(
    partition: EdgePartition,
    algorithm_factory: Callable[[], StreamingAlgorithm],
) -> OneWayRun:
    """Run a streaming algorithm as a one-way chain protocol.

    Player j streams its own edges (ascending canonical order) through
    the algorithm, starting from the forwarded state; the serialized
    state is the message.  The final player's result is the output.
    """
    players = make_players(partition)
    if len(players) < 2:
        raise ValueError("the chain reduction needs at least two players")

    def resume_and_stream(player: Player, state) -> StreamingAlgorithm:
        algorithm = algorithm_factory()
        if state is not None:
            algorithm.import_state(state["state"])
        for v, partners in canonical_row_batches(player.adjacency_rows()):
            algorithm.process_row(v, partners)
        return algorithm

    def step(player: Player, state, _shared):
        algorithm = resume_and_stream(player, state)
        return {
            "state": algorithm.export_state(),
            "bits": algorithm.state_bits(),
        }

    def state_bits(state) -> int:
        return max(1, state["bits"])

    def finalize(player: Player, state, _shared):
        return resume_and_stream(player, state).result()

    return run_oneway_chain(
        players,
        initial_state=None,
        step=step,
        state_bits=state_bits,
        finalize=finalize,
    )


def oneway_cost_of_streaming(partition: EdgePartition,
                             algorithm_factory: Callable[[], StreamingAlgorithm]
                             ) -> int:
    """Total chain-protocol bits of the reduction (= Σ per-hop state)."""
    return streaming_to_oneway(partition, algorithm_factory).total_bits


def space_lower_bound_from_oneway(oneway_bits_lower_bound: float,
                                  hops: int = 2) -> float:
    """Space >= CC / hops: the lower-bound transfer.

    The 3-player chain has two hops; the paper's Ω(n^{1/4}) one-way bound
    therefore yields Ω(n^{1/4}) streaming space (constants absorbed).
    """
    if hops < 1:
        raise ValueError(f"hops must be positive, got {hops}")
    if oneway_bits_lower_bound < 0:
        raise ValueError(
            "a communication lower bound cannot be negative, got "
            f"{oneway_bits_lower_bound}"
        )
    return oneway_bits_lower_bound / hops
