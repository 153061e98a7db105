"""Players: strictly-local computation over a private edge view.

A :class:`Player` wraps one player's input ``E_j`` and exposes exactly the
local computations the paper's protocols perform "for free" (computation on
one's own input costs nothing; only communication is charged).  Protocol
code must route every piece of information that leaves a player through the
model runtimes, which charge the ledger — the Player API deliberately never
reveals anything about other players or the ground-truth graph.

The methods mirror the local steps of Sections 3.1, 3.3 and 3.4:

* degree bookkeeping (``local_degree``, ``degree_msb_index``, ``B~_i^j``),
* permutation-ranked minima (Algorithm 1's unbiased sampling trick),
  each one vectorised public-coin call over the candidate array,
* edge harvesting against publicly sampled vertex sets (Algorithms 4, 7-10),
  which also closes the unrestricted protocol's triangles (a player
  harvests its edges among the posted vees' endpoints).

A player's input is a :class:`~repro.graphs.graph.Graph` on the public
vertex universe, stored on the host graph's mask kernel: ``has_edge`` and
``local_degree`` are kernel probes, and the harvest methods — the
protocol hot path — are one kernel call, ``edges_touching``: bigint and
packed intersect Python-int rows word-at-a-time in C, csr gathers the
sampled vertices' neighbour slices from its index arrays.  The
harvests return edges in ascending canonical order, which is exactly the
``sorted(...)`` order protocol messages are priced and capped in, so
messages (and cap truncations) equal the set-based oracle
:mod:`repro.comm.reference` on every backend.

Players built via :func:`make_players` wrap the view graphs memoised on
the :class:`~repro.graphs.partition.EdgePartition`, so repeated trials on
the same partition never rebuild a view.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.graphs.buckets import suspected_degree_range
from repro.graphs.graph import (
    Edge,
    Graph,
    bit_positions,
    canonical_edge,
    iter_bits,
)

__all__ = ["Player", "make_players"]


class Player:
    """One player of a number-in-hand protocol.

    Parameters
    ----------
    player_id:
        Index in ``0 .. k-1``.
    view:
        The player's private edge view ``E_j`` as a :class:`Graph` on
        the publicly known vertex universe.  Treated as read-only and
        may be shared between Player instances (e.g. the memoised
        :meth:`~repro.graphs.partition.EdgePartition.adjacency_rows`).
    """

    __slots__ = (
        "player_id", "n", "view", "_kernel", "_edges_cache",
        "_degree_array", "_bucket_cache",
    )

    def __init__(self, player_id: int, view: Graph) -> None:
        self.player_id = player_id
        self.n = view.n
        self.view = view
        self._kernel = view.kernel
        self._edges_cache: frozenset[Edge] | None = None
        self._degree_array: np.ndarray | None = None
        self._bucket_cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Introspection (local, free)
    # ------------------------------------------------------------------
    @property
    def edges(self) -> frozenset[Edge]:
        if self._edges_cache is None:
            self._edges_cache = frozenset(self.view.edges())
        return self._edges_cache

    @property
    def num_edges(self) -> int:
        return self.view.num_edges

    def sorted_edges(self) -> list[Edge]:
        """All local edges in ascending canonical order."""
        return list(self.view.edges())

    def _row(self, v: int) -> int:
        """Row of ``v``, empty for out-of-universe vertices.

        Matches the reference SetPlayer, whose dict adjacency answers
        unknown-vertex queries with "no neighbours" — in particular a
        negative id must not wrap around to vertex ``n + v``.
        """
        if 0 <= v < self.n:
            return self._kernel.row(v)
        return 0

    def adjacency_rows(self) -> list[int]:
        """The per-vertex adjacency masks — treat as READ-ONLY."""
        return self.view.adjacency_rows()

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return self._kernel.has_edge(u, v)

    def local_degree(self, v: int) -> int:
        """d_j(v): degree of v in this player's view."""
        if 0 <= v < self.n:
            return self._kernel.popcount(v)
        return 0

    def local_neighbor_mask(self, v: int) -> int:
        """N_j(v) as a bitmask — the raw kernel word."""
        return self._row(v)

    def average_local_degree(self) -> float:
        """d-bar_j = 2|E_j| / n, the §3.4.3 per-player density estimate."""
        return self.view.average_degree()

    def degree_msb_index(self, v: int) -> int | None:
        """Index of the most significant bit of d_j(v); None if d_j(v)=0.

        Phase one of Theorem 3.1: each player reports only the MSB index,
        costing O(log log d) bits.
        """
        degree = self.local_degree(v)
        if degree == 0:
            return None
        return degree.bit_length() - 1

    def suspected_bucket(self, index: int, k: int) -> np.ndarray:
        """B~_i^j: vertices with 3^(i-1) / k <= d_j(v) <= 3^i.

        An ascending, read-only int64 array, ready for one vectorised
        rank call.  Memoised per ``(index, k)``: the view is read-only,
        so the bucket is a pure function of its arguments.
        """
        bucket = self._bucket_cache.get((index, k))
        if bucket is None:
            if self._degree_array is None:
                self._degree_array = np.asarray(
                    self._kernel.popcounts(), dtype=np.int64
                )
            lower, upper = suspected_degree_range(index, k)
            degrees = self._degree_array
            bucket = np.flatnonzero((degrees >= lower) & (degrees <= upper))
            bucket.flags.writeable = False
            self._bucket_cache[(index, k)] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Permutation-ranked minima (Algorithm 1 and the §3.1 primitives)
    # ------------------------------------------------------------------
    def first_vertex_under_rank(self, candidates: Iterable[int],
                                rank: Callable) -> int | None:
        """Lowest-ranked vertex among ``candidates`` (public order).

        Because every player evaluates the same public rank, the minimum
        over all players' minima is the global minimum — an unbiased,
        duplication-immune uniform sample.  The whole candidate set is
        ranked in one vectorised ``rank`` call; ranks are distinct, so
        the ``argmin`` is the unique minimum.
        """
        if not isinstance(candidates, np.ndarray):
            candidates = np.fromiter(candidates, dtype=np.int64)
        if not candidates.size:
            return None
        return int(candidates[np.argmin(rank(candidates))])

    def first_incident_edge_under_rank(self, v: int, rank: Callable
                                       ) -> Edge | None:
        """Lowest-ranked edge of E_j incident to v, ranking by far endpoint.

        Primitive "choose a uniformly random edge adjacent to v" (§3.1):
        the public rank orders the n-1 potential incident edges; the
        coordinator then takes the global minimum over players' minima.
        """
        best_neighbor = self.first_vertex_under_rank(
            bit_positions(self._row(v)), rank
        )
        if best_neighbor is None:
            return None
        return canonical_edge(v, best_neighbor)

    def first_edge_under_rank(self, rank: Callable[[Edge], int]
                              ) -> Edge | None:
        """Lowest-ranked edge of E_j under a public order on edges."""
        best: Edge | None = None
        best_rank: int | None = None
        for edge in self.view.edges():
            r = rank(edge)
            if best_rank is None or r < best_rank:
                best, best_rank = edge, r
        return best

    # ------------------------------------------------------------------
    # Edge harvesting against public vertex samples
    #
    # The mask forms are the hot path, answered by the view's kernel
    # (``edges_touching``) in ascending canonical order (== the
    # ``sorted`` order protocol messages are priced and capped in).
    # ------------------------------------------------------------------
    def edges_at_vertex_in_mask(self, v: int, sample_mask: int) -> list[Edge]:
        """E_j ∩ ({v} × S) as a sorted list, S given as a mask."""
        hits = self._row(v) & sample_mask
        return [
            (v, u) if v < u else (u, v) for u in iter_bits(hits)
        ]

    def edges_within_mask(self, sample_mask: int) -> list[Edge]:
        """E_j ∩ S² as a sorted list: Algorithms 7 and 9's harvest."""
        return self._kernel.edges_touching(sample_mask, sample_mask)

    def edges_touching_both_mask(self, r_mask: int, rs_mask: int
                                 ) -> list[Edge]:
        """Edges with one endpoint in R, the other in R ∪ S, sorted.

        The two arguments need not be nested.  The kernel enumerates
        base vertices over R alone — R is the small birthday sample
        while R ∪ S may be nearly everything — and reports a pair with
        both endpoints in R ∩ RS once.
        """
        return self._kernel.edges_touching(r_mask, rs_mask)

    def any_incident_neighbor_in(self, v: int, pred: Callable) -> bool:
        """Does any local neighbour of v satisfy the public predicate?

        One Theorem 3.1 experiment (the player answers with a single
        bit), one vectorised ``pred`` call over the d_j(v) neighbours.
        """
        return bool(pred(bit_positions(self._row(v))).any())

    def any_edge_index_in(self, edge_index: Callable[[Edge], int],
                          pred: Callable[[int], bool]) -> bool:
        """Does any local edge's public index satisfy the predicate?

        Used by the distinct-elements / |E|-estimation generalization of
        Theorem 3.1 ("this approximation procedure can be applied to any
        subset of vertex pairs, including estimating the total number of
        edges in the graph").
        """
        return any(pred(edge_index(edge)) for edge in self.view.edges())

    def __repr__(self) -> str:
        return (
            f"Player(id={self.player_id}, n={self.n}, "
            f"|E_j|={self.num_edges})"
        )


def make_players(partition) -> list[Player]:
    """Build the k Player objects of an :class:`EdgePartition`.

    Each player wraps the partition's memoised view graph
    (:meth:`~repro.graphs.partition.EdgePartition.adjacency_rows`).  The
    player list itself is memoised on the partition too (players are
    read-only, and their internal caches memoise pure functions of the
    view), so the repetition axis of a batched grid point shares one set
    of Player objects — repeated trials pay nothing for player
    construction.
    """
    cached = getattr(partition, "_players_cache", None)
    if cached is not None:
        return cached
    players = [
        Player(j, partition.adjacency_rows(j)) for j in range(partition.k)
    ]
    try:
        # EdgePartition is a frozen dataclass; the same backdoor its own
        # view cache uses.  Duck-typed partitions without settable
        # attributes simply skip the memo.
        object.__setattr__(partition, "_players_cache", players)
    except (AttributeError, TypeError):
        pass
    return players
