"""Distributing a graph's edges among k players.

The model (Section 2): each player j receives a subset ``E_j ⊆ E``; the
logical OR of the players' characteristic vectors is ``E``.  Edges may be
*duplicated* (several players hold the same edge) and no vertex's incident
edges need to be co-located.  This module produces the per-player views under
several regimes the paper analyzes:

* ``partition_disjoint`` — the no-duplication variant (Corollaries 3.25,
  3.27, Lemma 3.2): each edge to exactly one player.
* ``partition_with_duplication`` — each edge to a random non-empty subset of
  players, the general model where e.g. exact degree costs Ω(k·d(v)).
* ``partition_all_to_all`` — worst-case duplication: everyone sees all edges.
* ``partition_adversarial_skew`` — most edges to one player; stresses the
  "relevant player" analysis of the degree-oblivious protocol (§3.4.3).
* ``partition_concentrate_edges`` — a *chosen* edge set (e.g. every
  planted-triangle edge) to one player, the rest spread over the others;
  the targeted adversary the failure-injection suite uses to probe
  soundness when no single other player can witness a triangle.
* ``partition_by_vertex`` — CONGEST-like vertex locality, as a contrast case
  explicitly *not* guaranteed by the model.

Each returns an :class:`EdgePartition` that remembers the ground truth and
checks the covering invariant (union of views == E) eagerly, with one
numpy pass over canonical edge keys whatever the vertex count.  A
player's view ``E_j`` is itself a :class:`~repro.graphs.graph.Graph` on
the host's backend (:meth:`EdgePartition.adjacency_rows`), so players
reuse the host's mask kernel instead of storing a second adjacency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.graphs.graph import Edge, Graph, canonical_edge

__all__ = [
    "EdgePartition",
    "partition_disjoint",
    "partition_with_duplication",
    "partition_all_to_all",
    "partition_adversarial_skew",
    "partition_concentrate_edges",
    "partition_by_vertex",
]


def _view_keys(view, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A view's edges as canonical keys ``lo * n + hi``.

    Returns the keys of the in-universe edges and the out-of-universe
    edges as ``(lo, hi)`` rows, which the covering check counts as
    spurious.  Self-loops raise like :func:`canonical_edge`.
    """
    pairs = np.fromiter(
        chain.from_iterable(view), dtype=np.int64, count=2 * len(view)
    ).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    if bool((lo == hi).any()):
        loop = int(lo[np.argmax(lo == hi)])
        raise ValueError(f"self-loop ({loop}, {loop}) is not a valid edge")
    inside = (lo >= 0) & (hi < n)
    outside = np.stack((lo[~inside], hi[~inside]), axis=1)
    return lo[inside] * n + hi[inside], outside


@dataclass(frozen=True)
class EdgePartition:
    """Ground truth graph + the k per-player edge views."""

    graph: Graph
    views: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        # Covering invariant on canonical edge keys: the union of the
        # views must equal the host's edge set.  Out-of-universe edges
        # are spurious by definition.
        n = self.graph.n
        keys = [np.empty(0, dtype=np.int64)]
        outside = [np.empty((0, 2), dtype=np.int64)]
        for view in self.views:
            inside_keys, outside_pairs = _view_keys(view, n)
            keys.append(inside_keys)
            outside.append(outside_pairs)
        union = np.unique(np.concatenate(keys))
        truth = np.fromiter(
            chain.from_iterable(self.graph.edges()), dtype=np.int64,
            count=2 * self.graph.num_edges,
        ).reshape(-1, 2)
        truth = truth[:, 0] * n + truth[:, 1]
        covered = int(np.count_nonzero(
            np.isin(truth, union, assume_unique=True)
        ))
        missing = truth.size - covered
        spurious = union.size - covered + len(
            np.unique(np.concatenate(outside), axis=0)
        )
        if missing or spurious:
            raise ValueError(
                "partition does not cover the graph exactly: "
                f"{missing} missing, {spurious} spurious edges"
            )

    @property
    def k(self) -> int:
        return len(self.views)

    def adjacency_rows(self, player: int) -> Graph:
        """Player ``player``'s view ``E_j`` as a :class:`Graph`, memoised.

        The view lives on the host's backend, so a player harvests
        through the same mask kernel as the ground truth, and
        :func:`~repro.comm.players.make_players` wraps it without
        copying.  Built once per player and memoised on the partition,
        so repeated protocol trials never re-shred the edge views.
        Treat the returned graph as READ-ONLY: every Player built from
        this partition shares it.  The name predates the ``Graph``
        view and is kept because benchmark traces time this method as
        the player build.
        """
        cache: dict[int, Graph] | None = getattr(self, "_views_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_views_cache", cache)
        view = cache.get(player)
        if view is None:
            n = self.graph.n
            keys, _ = _view_keys(self.views[player], n)
            view = Graph.from_edge_arrays(
                n, keys // n, keys % n, backend=self.graph.backend
            )
            cache[player] = view
        return view

    @property
    def has_duplication(self) -> bool:
        total = sum(len(view) for view in self.views)
        return total > self.graph.num_edges

    def view(self, player: int) -> frozenset[Edge]:
        return self.views[player]

    def multiplicity(self, edge: Edge) -> int:
        """How many players hold ``edge``, in either orientation."""
        edge = canonical_edge(*edge)
        return sum(1 for view in self.views if edge in view)


def _require_players(k: int) -> None:
    if k < 1:
        raise ValueError(f"need at least one player, got k={k}")


def partition_disjoint(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Each edge assigned to exactly one uniformly random player."""
    _require_players(k)
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        buckets[rng.randrange(k)].add(edge)
    return EdgePartition(graph, tuple(frozenset(b) for b in buckets))


def partition_with_duplication(graph: Graph, k: int, seed: int = 0,
                               duplication_probability: float = 0.3
                               ) -> EdgePartition:
    """Each edge to one random owner, plus each other player w.p. ``p``.

    Guarantees coverage (the owner) while exercising the duplicated-input
    code paths (degree approximation, permutation-based unbiased sampling).
    """
    _require_players(k)
    if not 0.0 <= duplication_probability <= 1.0:
        raise ValueError(
            f"duplication probability must be in [0,1], "
            f"got {duplication_probability}"
        )
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        owner = rng.randrange(k)
        buckets[owner].add(edge)
        for other in range(k):
            if other != owner and rng.random() < duplication_probability:
                buckets[other].add(edge)
    return EdgePartition(graph, tuple(frozenset(b) for b in buckets))


def partition_all_to_all(graph: Graph, k: int) -> EdgePartition:
    """Maximal duplication: every player sees every edge."""
    _require_players(k)
    full = frozenset(graph.edges())
    return EdgePartition(graph, tuple(full for _ in range(k)))


def partition_adversarial_skew(graph: Graph, k: int, seed: int = 0,
                               heavy_fraction: float = 0.9) -> EdgePartition:
    """Player 0 gets ~``heavy_fraction`` of edges, the rest spread thin.

    Models the irrelevant-player regime of §3.4.3: most players observe a
    local average degree far below the global one.
    """
    _require_players(k)
    if not 0.0 < heavy_fraction <= 1.0:
        raise ValueError(
            f"heavy fraction must be in (0,1], got {heavy_fraction}"
        )
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        if k == 1 or rng.random() < heavy_fraction:
            buckets[0].add(edge)
        else:
            buckets[1 + rng.randrange(k - 1)].add(edge)
    return EdgePartition(graph, tuple(frozenset(b) for b in buckets))


def partition_concentrate_edges(graph: Graph, k: int,
                                focus_edges, seed: int = 0) -> EdgePartition:
    """Give all of ``focus_edges`` to player 0, the rest to players 1..k-1.

    The targeted adversary: concentrating e.g. every planted-triangle
    edge on a single player means no *other* player's view contains a
    full triangle, and cross-player detection paths carry the entire
    burden.  Protocols may lose completeness under this split (the
    planted structure hides in one view) but must stay sound — a
    guarantee the failure-injection suite asserts.

    ``focus_edges`` may list edges in either orientation; edges not in
    the graph are rejected (a typo'd focus set silently vanishing into
    player 0 would defang the adversary).  With ``k == 1`` every edge
    lands on player 0 and the split degenerates to all-to-one.
    """
    _require_players(k)
    focus: set[Edge] = set()
    for u, v in focus_edges:
        edge = canonical_edge(u, v)
        if not graph.has_edge(*edge):
            raise ValueError(f"focus edge {edge} is not in the graph")
        focus.add(edge)
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        if k == 1 or edge in focus:
            buckets[0].add(edge)
        else:
            buckets[1 + rng.randrange(k - 1)].add(edge)
    return EdgePartition(graph, tuple(frozenset(b) for b in buckets))


def partition_by_vertex(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Assign vertices to players; each edge to its lower endpoint's player.

    A CONGEST-flavoured locality pattern.  The paper's model explicitly does
    *not* promise this; it is provided as a contrast workload.
    """
    _require_players(k)
    rng = random.Random(seed)
    owner = [rng.randrange(k) for _ in range(graph.n)]
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for u, v in graph.edges():
        buckets[owner[u]].add((u, v))
    return EdgePartition(graph, tuple(frozenset(b) for b in buckets))
