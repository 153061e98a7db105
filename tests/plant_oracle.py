"""Scalar reference planters for differential tests.

The per-edge loops the planters replaced with one bulk
``Graph.add_edge_arrays`` insert: triangles planted one ``add_edge`` at
a time, pattern copies one ``add_neighbors`` row per touched vertex.
The production planters must build the same graphs.
"""

import random

from repro.graphs.generators import PlantedInstance, gnd
from repro.graphs.graph import Graph


def planted_disjoint_triangles(n: int, num_triangles: int, seed: int = 0,
                               background_degree: float = 0.0,
                               backend: str | None = None
                               ) -> PlantedInstance:
    """Each sorted shuffled triple's three edges, one ``add_edge`` each."""
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    graph = (
        gnd(n, background_degree, seed=seed + 1, backend=backend)
        if background_degree > 0
        else Graph(n, backend=backend)
    )
    planted = []
    for t in range(num_triangles):
        a, b, c = sorted(vertices[3 * t: 3 * t + 3])
        graph.add_edge(a, b)
        graph.add_edge(a, c)
        graph.add_edge(b, c)
        planted.append((a, b, c))
    epsilon = num_triangles / max(1, graph.num_edges)
    return PlantedInstance(graph, tuple(planted), epsilon)


def plant_images(graph: Graph, pattern, images) -> None:
    """Every image edge from its lower endpoint, one row per vertex."""
    planted_rows: dict[int, int] = {}
    for image in images:
        for u, v in pattern.edges:
            a, b = image[u], image[v]
            if a > b:
                a, b = b, a
            planted_rows[a] = planted_rows.get(a, 0) | (1 << b)
    for u in sorted(planted_rows):
        graph.add_neighbors(u, planted_rows[u])
