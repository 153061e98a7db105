"""Scalar reference partitioners for differential tests.

The loops ``repro.graphs.partition`` replaced with one numpy pass: each
draws ``random.Random(seed).randrange(k)`` per edge (or per vertex) and
collects the players' views as frozensets of canonical edge tuples.
The production partitioners must reproduce these views exactly.
"""

import random

from repro.graphs.graph import Edge, Graph


def partition_disjoint_views(graph: Graph, k: int,
                             seed: int = 0) -> tuple[frozenset[Edge], ...]:
    """Each edge, ascending, to the next ``randrange(k)`` draw."""
    rng = random.Random(seed)
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for edge in graph.edges():
        buckets[rng.randrange(k)].add(edge)
    return tuple(frozenset(bucket) for bucket in buckets)


def partition_by_vertex_views(graph: Graph, k: int,
                              seed: int = 0) -> tuple[frozenset[Edge], ...]:
    """Each vertex to a ``randrange(k)`` draw; edges follow ``lo``."""
    rng = random.Random(seed)
    owner = [rng.randrange(k) for _ in range(graph.n)]
    buckets: list[set[Edge]] = [set() for _ in range(k)]
    for u, v in graph.edges():
        buckets[owner[u]].add((u, v))
    return tuple(frozenset(bucket) for bucket in buckets)
