"""Single-pass edge-stream runtime with peak-space accounting.

Section 4.2.2 transfers the one-way communication lower bound to the
data-stream model: a space-s single-pass algorithm yields a one-way
protocol forwarding s bits per hop, so Ω(n^{1/4}) one-way communication
implies Ω(n^{1/4}) streaming space for triangle-edge detection on µ.

This module provides the stream model itself: an algorithm processes edges
one at a time, may be asked to serialize its state (whose size in bits is
the charged quantity), and answers at the end.  The runtime tracks the peak
state size across the pass — the streaming space complexity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.graphs.graph import Edge, iter_bits

__all__ = [
    "StreamingAlgorithm",
    "StreamRun",
    "run_stream",
    "run_stream_rows",
    "canonical_row_batches",
]


class StreamingAlgorithm(ABC):
    """A single-pass algorithm over an edge stream.

    Subclasses maintain internal state, must report its size honestly via
    :meth:`state_bits`, and may expose a serializable state for the
    streaming -> one-way reduction via :meth:`export_state` /
    :meth:`import_state`.

    The stream may be fed edge-at-a-time (:meth:`process`) or as
    *row batches* (:meth:`process_row`): one base vertex plus the mask of
    its canonical partners.  The row form is the mask-kernel fast path —
    a batch is one adjacency-row word, so algorithms that index their
    state as per-vertex masks consume it with word-wide ``&``/``|``
    instead of per-edge Python work.  The default implementation falls
    back to :meth:`process`, so row batching is always semantically the
    per-edge stream in ascending canonical order.
    """

    @abstractmethod
    def process(self, edge: Edge) -> None:
        """Consume one stream element."""

    def process_row(self, v: int, partners_mask: int) -> None:
        """Consume the batch of edges ``{v, u}`` for every ``u`` in the mask.

        The caller guarantees every bit of ``partners_mask`` is ``> v``
        (canonical row batching), so the batch equals the edges
        ``(v, u)`` in ascending canonical order.  Override for a
        mask-native implementation; the fallback feeds :meth:`process`
        edge by edge and is bit-identical to the per-edge stream.
        """
        for u in iter_bits(partners_mask):
            self.process((v, u))

    @abstractmethod
    def state_bits(self) -> int:
        """Current memory footprint in bits (the charged quantity)."""

    @abstractmethod
    def result(self):
        """The algorithm's answer after the pass."""

    def export_state(self):
        """Serializable state for the one-way reduction (override)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state export"
        )

    def import_state(self, state) -> None:
        """Restore from an exported state (override)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state import"
        )


@dataclass(frozen=True)
class StreamRun:
    """Outcome of one streaming pass."""

    result: object
    peak_space_bits: int
    elements_processed: int


def run_stream(algorithm: StreamingAlgorithm,
               stream: Iterable[Edge] | Sequence[Edge]) -> StreamRun:
    """Drive one pass, tracking peak state size after every element."""
    peak = algorithm.state_bits()
    count = 0
    for edge in stream:
        algorithm.process(edge)
        count += 1
        peak = max(peak, algorithm.state_bits())
    return StreamRun(
        result=algorithm.result(),
        peak_space_bits=peak,
        elements_processed=count,
    )


def canonical_row_batches(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield ``(v, partners_mask)`` row batches covering each edge once.

    ``rows`` are symmetric per-vertex adjacency masks (the kernel
    representation of :meth:`~repro.graphs.graph.Graph.adjacency_rows`,
    which a player's view graph exposes as
    :meth:`~repro.comm.players.Player.adjacency_rows`);
    each edge is emitted exactly once, at its lower endpoint, so the
    concatenated batches equal the ascending canonical edge stream.
    Empty rows are skipped.
    """
    for v, row in enumerate(rows):
        upper = (row >> (v + 1)) << (v + 1)
        if upper:
            yield (v, upper)


def run_stream_rows(algorithm: StreamingAlgorithm,
                    rows: Sequence[int]) -> StreamRun:
    """Drive one pass over canonical row batches, peak tracked per batch.

    Peak space is sampled after every *batch* rather than every element;
    for algorithms whose :meth:`~StreamingAlgorithm.state_bits` is
    non-decreasing within a batch (both triangle finders) this equals the
    per-element peak.  Use :func:`run_stream` when per-element accounting
    must be exact for a non-monotone algorithm.
    """
    peak = algorithm.state_bits()
    count = 0
    for v, partners in canonical_row_batches(rows):
        algorithm.process_row(v, partners)
        count += partners.bit_count()
        peak = max(peak, algorithm.state_bits())
    return StreamRun(
        result=algorithm.result(),
        peak_space_bits=peak,
        elements_processed=count,
    )
