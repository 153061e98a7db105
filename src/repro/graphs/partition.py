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

Each returns an :class:`EdgePartition`: the host graph plus one sorted
int64 array of *edge ids* per player, where an id indexes the host's
canonical edge keys ``lo * n + hi`` in ascending order (the order of
:meth:`~repro.graphs.graph.Graph.edges`, read through
:meth:`~repro.graphs.graph.Graph.edge_keys`, which on a bigint host
built from edge arrays is the kernel's stored array).  The covering
invariant (union of views == E) is checked eagerly with one
``np.bincount`` over the ids.
``partition_disjoint`` and ``partition_by_vertex`` draw every owner in
one numpy pass that replays ``random.Random(seed).randrange(k)`` draw for
draw (:func:`_randrange_array`), so the instances equal the scalar
loops'; the other partitioners interleave ``random()`` and ``randrange``
and keep their scalar loops.  A player's view ``E_j`` is a
:class:`~repro.graphs.graph.Graph` on the host's backend
(:meth:`EdgePartition.adjacency_rows`), so players reuse the host's mask
kernel instead of storing a second adjacency; the frozenset form
(:attr:`EdgePartition.views`) is built only when asked for.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Sequence

import numpy as np

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.kernels.base import sorted_unique

__all__ = [
    "EdgePartition",
    "partition_disjoint",
    "partition_with_duplication",
    "partition_all_to_all",
    "partition_adversarial_skew",
    "partition_concentrate_edges",
    "partition_by_vertex",
]

_NO_IDS = np.empty(0, dtype=np.int64)


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


class EdgePartition:
    """Ground truth graph + the k players' edge sets as edge-id arrays.

    ``edge_ids[j]`` is player j's set ``E_j``: a strictly increasing
    int64 array of indices into the host's canonical edge keys
    ``lo * n + hi`` (ascending, the order of :meth:`Graph.edges`).

    ``EdgePartition(graph, views)`` builds from explicit edge sets in
    any orientation (the lower-bound constructions and the tests);
    the partitioners build with :meth:`from_edge_ids`.  Both check the
    covering invariant before returning and raise ``ValueError`` with
    the missing and spurious edge counts when the views do not cover
    the graph exactly (out-of-universe edges count as spurious).

    The graph is the read-only ground truth: ids index its edge list,
    so mutating it after partitioning invalidates the partition.
    Pickles carry only the graph and the id arrays; the player view
    graphs and :attr:`views` are rebuilt on demand.
    """

    __hash__ = None  # mutable numpy arrays inside; compare with ==

    def __init__(self, graph: Graph,
                 views: Iterable[Collection[Edge]]) -> None:
        n = graph.n
        keys = graph.edge_keys()
        edge_ids: list[np.ndarray] = []
        strays = [_NO_IDS]
        outside = [np.empty((0, 2), dtype=np.int64)]
        for view in views:
            inside_keys, outside_pairs = _view_keys(view, n)
            inside_keys = sorted_unique(inside_keys)
            pos = np.searchsorted(keys, inside_keys)
            hit = pos < keys.size
            hit[hit] = keys[pos[hit]] == inside_keys[hit]
            edge_ids.append(pos[hit])
            strays.append(inside_keys[~hit])
            outside.append(outside_pairs)
        spurious = sorted_unique(np.concatenate(strays)).size + len(
            np.unique(np.concatenate(outside), axis=0)
        )
        self._set_ids(graph, edge_ids, spurious)
        self._keys = keys

    @classmethod
    def from_edge_ids(cls, graph: Graph,
                      edge_ids: Sequence[np.ndarray]) -> "EdgePartition":
        """A partition from per-player edge-id arrays (see class doc)."""
        partition = cls.__new__(cls)
        partition._set_ids(graph, edge_ids, 0)
        return partition

    def _set_ids(self, graph: Graph, edge_ids: Sequence[np.ndarray],
                 spurious: int) -> None:
        """Store the ids after the range and covering checks pass."""
        m = graph.num_edges
        ids = tuple(
            np.asarray(player_ids, dtype=np.int64) for player_ids in edge_ids
        )
        for player, player_ids in enumerate(ids):
            if player_ids.ndim != 1 or (player_ids.size and (
                    player_ids[0] < 0 or player_ids[-1] >= m
                    or not bool((player_ids[1:] > player_ids[:-1]).all()))):
                raise ValueError(
                    f"player {player}'s edge ids are not strictly "
                    f"increasing within [0, {m})"
                )
        held = np.bincount(np.concatenate((_NO_IDS, *ids)), minlength=m)
        missing = m - int(np.count_nonzero(held))
        if missing or spurious:
            raise ValueError(
                "partition does not cover the graph exactly: "
                f"{missing} missing, {spurious} spurious edges"
            )
        self.graph = graph
        self.edge_ids = ids

    # -- pickling and equality -----------------------------------------
    def __getstate__(self) -> dict:
        return {"graph": self.graph, "edge_ids": self.edge_ids}

    def __setstate__(self, state: dict) -> None:
        if "edge_ids" not in state:
            raise ValueError(
                "pickled EdgePartition predates per-player edge ids; "
                "rebuild the partition"
            )
        self.graph = state["graph"]
        self.edge_ids = state["edge_ids"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgePartition):
            return NotImplemented
        return (
            self.graph == other.graph
            and len(self.edge_ids) == len(other.edge_ids)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.edge_ids, other.edge_ids)
            )
        )

    def __repr__(self) -> str:
        sizes = [int(player_ids.size) for player_ids in self.edge_ids]
        return f"EdgePartition({self.graph!r}, view_sizes={sizes})"

    # -- views ---------------------------------------------------------
    @cached_property
    def _keys(self) -> np.ndarray:
        # A bigint host's stored keys are shared, not copied.
        return self.graph.edge_keys()

    @cached_property
    def _view_graphs(self) -> dict[int, Graph]:
        return {}

    @property
    def k(self) -> int:
        return len(self.edge_ids)

    def adjacency_rows(self, player: int) -> Graph:
        """Player ``player``'s view ``E_j`` as a :class:`Graph`, memoised.

        Built from the host keys the player's ids select, on the host's
        backend, so a player harvests through the same mask kernel as
        the ground truth, and :func:`~repro.comm.players.make_players`
        wraps it without copying.  Built once per player and memoised
        on the partition, so repeated protocol trials never rebuild it.
        Treat the returned graph as READ-ONLY: every Player built from
        this partition shares it.  The name predates the ``Graph`` view
        and is kept because benchmark traces time this method as the
        player build.
        """
        cache = self._view_graphs
        view = cache.get(player)
        if view is None:
            n = self.graph.n
            keys = self._keys[self.edge_ids[player]]
            view = Graph.from_edge_arrays(
                n, keys // n, keys % n, backend=self.graph.backend
            )
            cache[player] = view
        return view

    @cached_property
    def views(self) -> tuple[frozenset[Edge], ...]:
        """Each player's ``E_j`` as a frozenset of canonical edge tuples.

        Built on first access and cached; the protocols never read it
        (they take :meth:`adjacency_rows`), only the lower-bound code,
        the set-based reference players and the tests.
        """
        n = self.graph.n
        views = []
        for player_ids in self.edge_ids:
            keys = self._keys[player_ids]
            views.append(
                frozenset(zip((keys // n).tolist(), (keys % n).tolist()))
            )
        return tuple(views)

    @property
    def has_duplication(self) -> bool:
        total = sum(player_ids.size for player_ids in self.edge_ids)
        return total > self.graph.num_edges

    def view(self, player: int) -> frozenset[Edge]:
        return self.views[player]

    def multiplicity(self, edge: Edge) -> int:
        """How many players hold ``edge``, in either orientation."""
        edge = canonical_edge(*edge)
        return sum(1 for view in self.views if edge in view)


def _randrange_array(seed: int, bound: int, count: int) -> np.ndarray:
    """``[random.Random(seed).randrange(bound) ...]`` for ``count`` draws.

    CPython's ``randrange(bound)`` takes ``getrandbits(b)`` with
    ``b = bound.bit_length()`` and redraws while the value is at least
    ``bound``; for ``b <= 32`` each draw is one MT19937 word shifted
    right by ``32 - b``.  The words come from a numpy stream continuing
    the seeded generator's state
    (:func:`repro.comm.randomness._numpy_stream`), so the result equals
    the scalar loop's draws one for one.
    """
    # Imported at call time, so the graphs package never imports the
    # comm package at module load.
    from repro.comm.randomness import _numpy_stream

    width = bound.bit_length()
    if not 0 < width <= 32:
        raise ValueError(f"randrange bound must be in [1, 2**32), got {bound}")
    stream = _numpy_stream(random.Random(seed))
    shift = 32 - width
    chunks = [_NO_IDS]
    needed = count
    while needed > 0:
        # A word is accepted with probability bound / 2**width > 1/2;
        # 5% slack makes a second chunk rare.
        words = stream.randint(
            0, 1 << 32, size=needed * (1 << width) * 21 // (20 * bound) + 64,
            dtype=np.uint32,
        )
        draws = words >> shift
        accepted = draws[draws < bound][:needed]
        chunks.append(accepted)
        needed -= accepted.size
    return np.concatenate(chunks)


def _ids_by_owner(owner: np.ndarray, k: int) -> list[np.ndarray]:
    """Split edge ids ``0 .. m-1`` by ``owner[id]`` into k sorted arrays."""
    order = np.argsort(owner, kind="stable")
    return np.split(order, np.cumsum(np.bincount(owner, minlength=k))[:-1])


def _id_arrays(buckets: list[list[int]]) -> list[np.ndarray]:
    return [np.array(bucket, dtype=np.int64) for bucket in buckets]


def _require_players(k: int) -> None:
    if k < 1:
        raise ValueError(f"need at least one player, got k={k}")


def partition_disjoint(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Each edge assigned to exactly one uniformly random player.

    Edge ``i`` (ascending canonical order) goes to the ``i``-th
    ``random.Random(seed).randrange(k)`` draw, drawn in one numpy pass.
    """
    _require_players(k)
    owner = _randrange_array(seed, k, graph.num_edges)
    return EdgePartition.from_edge_ids(graph, _ids_by_owner(owner, k))


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
    buckets: list[list[int]] = [[] for _ in range(k)]
    for index in range(graph.num_edges):
        owner = rng.randrange(k)
        buckets[owner].append(index)
        for other in range(k):
            if other != owner and rng.random() < duplication_probability:
                buckets[other].append(index)
    return EdgePartition.from_edge_ids(graph, _id_arrays(buckets))


def partition_all_to_all(graph: Graph, k: int) -> EdgePartition:
    """Maximal duplication: every player sees every edge."""
    _require_players(k)
    every = np.arange(graph.num_edges, dtype=np.int64)
    return EdgePartition.from_edge_ids(graph, [every] * k)


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
    buckets: list[list[int]] = [[] for _ in range(k)]
    for index in range(graph.num_edges):
        if k == 1 or rng.random() < heavy_fraction:
            buckets[0].append(index)
        else:
            buckets[1 + rng.randrange(k - 1)].append(index)
    return EdgePartition.from_edge_ids(graph, _id_arrays(buckets))


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
    buckets: list[list[int]] = [[] for _ in range(k)]
    for index, edge in enumerate(graph.edges()):
        if k == 1 or edge in focus:
            buckets[0].append(index)
        else:
            buckets[1 + rng.randrange(k - 1)].append(index)
    return EdgePartition.from_edge_ids(graph, _id_arrays(buckets))


def partition_by_vertex(graph: Graph, k: int, seed: int = 0) -> EdgePartition:
    """Assign vertices to players; each edge to its lower endpoint's player.

    A CONGEST-flavoured locality pattern.  The paper's model explicitly does
    *not* promise this; it is provided as a contrast workload.  Vertex
    ``v``'s owner is the ``v``-th ``random.Random(seed).randrange(k)``
    draw, drawn in one numpy pass.
    """
    _require_players(k)
    owner = _randrange_array(seed, k, graph.n)
    lo, _ = graph.edge_arrays()
    return EdgePartition.from_edge_ids(graph, _ids_by_owner(owner[lo], k))
