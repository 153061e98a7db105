"""Section 3.1 building blocks, as charged coordinator-model procedures.

Each primitive of the property-testing world is implemented exactly as the
paper describes, against a :class:`~repro.comm.coordinator.CoordinatorRuntime`:

* :func:`query_edge` — O(k): one bit up per player, one bit down.
* :func:`random_incident_edge` — O(k log n): public permutation over the
  n-1 potential incident edges; each player reports its first local edge in
  that order; the coordinator takes the global first.  The permutation makes
  the choice uniform despite edge duplication (a naive "random local edge"
  would bias toward high-multiplicity edges).
* :func:`random_walk` — repeated random incident edges.
* :func:`random_edge` — O(k log n): same trick over the whole edge universe.
  (Not efficiently available in the classical query model.)
* :func:`collect_induced_subgraph` — O(k m log n): players send all their
  edges inside V'; the coordinator unions them.
* :func:`bfs_tree` — breadth-first search by repeatedly collecting the
  neighbourhoods of frontier vertices, O(n log n)-style.

Degree approximation (Theorem 3.1 / Lemma 3.2) lives in
:mod:`repro.core.degree_approx`.
"""

from __future__ import annotations

from typing import Iterable

from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.encoding import edge_bits, indicator_bits, vertex_bits
from repro.graphs.graph import Edge, canonical_edge, iter_bits, mask_of

__all__ = [
    "query_edge",
    "random_incident_edge",
    "random_walk",
    "random_edge",
    "collect_induced_subgraph",
    "collect_neighbors",
    "bfs_tree",
    "edge_index",
]


def query_edge(rt: CoordinatorRuntime, u: int, v: int) -> bool:
    """Does {u, v} belong to the (union) input graph?  Cost O(k)."""
    with rt.scope("query_edge"):
        answers = rt.collect(
            compute=lambda p: p.has_edge(u, v),
            response_bits=lambda _: indicator_bits(),
        )
        present = any(answers)
        rt.broadcast(indicator_bits())
    return present


def random_incident_edge(rt: CoordinatorRuntime, v: int,
                         tag: int = 0) -> Edge | None:
    """A uniformly random edge of the input graph incident to v, or None.

    Uniformity holds despite duplication: the public permutation fixes a
    random order over potential incident edges, each player reports its
    locally-first edge, and the coordinator keeps the globally-first one —
    which is the first edge of E(v) in a uniform order, i.e. a uniform
    sample.  Cost O(k log n).
    """
    rank = rt.shared.permutation_rank(rt.n, tag=tag)
    with rt.scope("random_incident_edge"):
        candidates = rt.collect(
            compute=lambda p: p.first_incident_edge_under_rank(v, rank),
            response_bits=lambda e: edge_bits(rt.n) if e else indicator_bits(),
        )
        best: Edge | None = None
        best_rank = None
        for edge in candidates:
            if edge is None:
                continue
            far_endpoint = edge[0] if edge[1] == v else edge[1]
            r = rank(far_endpoint)
            if best_rank is None or r < best_rank:
                best, best_rank = edge, r
        rt.broadcast(edge_bits(rt.n) if best else indicator_bits())
    return best


def random_walk(rt: CoordinatorRuntime, start: int, steps: int,
                tag: int = 0) -> list[int]:
    """Simulate a ``steps``-step random walk from ``start``.

    Each step is one :func:`random_incident_edge`; the walk halts early at
    an isolated vertex.  Cost O(k · steps · log n).
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    path = [start]
    current = start
    for step in range(steps):
        edge = random_incident_edge(rt, current, tag=tag * 1_000_003 + step)
        if edge is None:
            break
        current = edge[0] if edge[1] == current else edge[1]
        path.append(current)
    return path


def edge_index(edge: Edge, n: int) -> int:
    """Canonical integer index of an edge in the n-vertex pair universe."""
    u, v = canonical_edge(*edge)
    return u * n + v


def random_edge(rt: CoordinatorRuntime, tag: int = 0) -> Edge | None:
    """A uniformly random edge of the input graph, or None if empty.

    Public permutation over the edge universe; players report local
    minima; the coordinator broadcasts the global minimum.  Cost O(k log n).
    """
    universe = rt.n * rt.n
    int_rank = rt.shared.permutation_rank(universe, tag=tag)

    def rank(edge: Edge) -> int:
        return int_rank(edge_index(edge, rt.n))

    with rt.scope("random_edge"):
        candidates = rt.collect(
            compute=lambda p: p.first_edge_under_rank(rank),
            response_bits=lambda e: edge_bits(rt.n) if e else indicator_bits(),
        )
        present = [edge for edge in candidates if edge is not None]
        best = min(present, key=rank) if present else None
        rt.broadcast(edge_bits(rt.n) if best else indicator_bits())
    return best


def collect_induced_subgraph(rt: CoordinatorRuntime,
                             vertices: Iterable[int],
                             cap_per_player: int | None = None) -> set[Edge]:
    """All input edges inside V', unioned at the coordinator.

    Cost O(k · m' · log n) where m' is the induced edge count (players pay
    for edges that exist, never for absent pairs — the advantage over the
    query model's |V'|² probes).  ``cap_per_player`` truncates oversized
    responses, as the capped protocol variants require.
    """
    vertex_mask = mask_of(vertices)
    with rt.scope("collect_induced_subgraph"):
        harvests = rt.collect(
            compute=lambda p: _capped(p.edges_within_mask(vertex_mask),
                                      cap_per_player),
            response_bits=lambda edges: max(
                1, len(edges) * edge_bits(rt.n)
            ),
        )
    union: set[Edge] = set()
    for harvest in harvests:
        union.update(harvest)
    return union


def collect_neighbors(rt: CoordinatorRuntime, v: int) -> set[int]:
    """All neighbours of v in the union graph.  Cost O(k·deg(v)·log n)."""
    with rt.scope("collect_neighbors"):
        harvests = rt.collect(
            compute=lambda p: list(iter_bits(p.local_neighbor_mask(v))),
            response_bits=lambda vs: max(1, len(vs) * vertex_bits(rt.n)),
        )
    union: set[int] = set()
    for harvest in harvests:
        union.update(harvest)
    return union


def bfs_tree(rt: CoordinatorRuntime, root: int,
             max_vertices: int | None = None) -> dict[int, int | None]:
    """BFS from ``root`` by posting frontier neighbourhoods (Section 3.1).

    Returns ``vertex -> parent`` (root maps to None).  ``max_vertices``
    bounds exploration.  Each explored vertex costs one
    :func:`collect_neighbors` round.
    """
    parent: dict[int, int | None] = {root: None}
    frontier = [root]
    budget = max_vertices if max_vertices is not None else rt.n
    while frontier and len(parent) < budget:
        next_frontier: list[int] = []
        for v in frontier:
            for u in sorted(collect_neighbors(rt, v)):
                if u not in parent and len(parent) < budget:
                    parent[u] = v
                    next_frontier.append(u)
        frontier = next_frontier
    return parent


def _capped(items: list, cap: int | None) -> list:
    if cap is None:
        return items
    return items[:cap]
