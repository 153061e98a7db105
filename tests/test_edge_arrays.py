"""``Graph.edge_arrays`` and csr edge iteration agree with ``edges()``.

``edge_arrays`` is the array form of :meth:`Graph.edges` that the
partitions index into; csr slices its stored arrays, the other kernels
read ``iter_edges``.  On csr, ``iter_edges`` itself zips the stored
arrays, so a pending add/remove overlay must be folded in first.
"""

import numpy as np
import pytest

from repro.graphs.generators import gnd
from repro.graphs.graph import Graph

BACKENDS = ["bigint", "packed", "csr"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_arrays_match_edges(backend):
    graph = gnd(90, 5.0, seed=4).to_backend(backend)
    lo, hi = graph.edge_arrays()
    assert lo.dtype == hi.dtype == np.int64
    assert list(zip(lo.tolist(), hi.tolist())) == list(graph.edges())
    keys = lo * graph.n + hi
    assert bool((np.diff(keys) > 0).all())


@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_arrays_of_empty_graph(backend):
    lo, hi = Graph(5, backend=backend).edge_arrays()
    assert lo.size == hi.size == 0


def test_csr_edges_with_pending_overlay_unchanged():
    base = gnd(80, 4.0, seed=2)
    csr = base.to_backend("csr")
    reference = base.to_backend("bigint")
    removed = list(base.edges())[::7]
    added = [(0, 79), (3, 64), (10, 11), (40, 41)]
    for graph in (csr, reference):
        for edge in removed:
            graph.remove_edge(*edge)
        for edge in added:
            graph.add_edge(*edge)
    # The mutations sit in the csr delta overlay until a bulk read.
    assert csr.kernel._added and csr.kernel._removed
    expected = sorted(
        (set(base.edges()) - set(removed)) | set(added)
    )
    assert list(csr.edges()) == list(reference.edges()) == expected
    assert all(type(u) is int and type(v) is int for u, v in csr.edges())
    lo, hi = csr.edge_arrays()
    assert list(zip(lo.tolist(), hi.tolist())) == expected
