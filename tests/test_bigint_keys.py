"""The bigint kernel's stored edge keys stay equal to its rows.

A bigint kernel built from edge arrays keeps the canonical keys
``lo * n + hi`` it was built from and serves ``edge_arrays()`` from
them; bulk merges keep them, every other row write drops them.  After
every mutation, ``edge_arrays()`` must equal the arrays built from
``edges()``, whichever way the kernel got there.  Old pickles, written
before the kernel kept keys, must still load.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.kernels import bigint
from repro.graphs.partition import partition_disjoint
from repro.runtime.cache import InstanceCache

N = 40


def edges_as_arrays(graph: Graph) -> tuple[list[int], list[int]]:
    pairs = list(graph.edges())
    return [u for u, _ in pairs], [v for _, v in pairs]


def assert_arrays_match(graph: Graph) -> None:
    lo, hi = graph.edge_arrays()
    assert lo.dtype == hi.dtype == np.int64
    assert (lo.tolist(), hi.tolist()) == edges_as_arrays(graph)
    assert graph.edge_keys().tolist() == (lo * graph.n + hi).tolist()
    assert len(lo) == graph.num_edges


def keyed_graph(seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    us = rng.integers(0, N, size=120)
    vs = rng.integers(0, N, size=120)
    keep = us != vs
    return Graph.from_edge_arrays(N, us[keep], vs[keep], backend="bigint")


def has_keys(graph: Graph) -> bool:
    return graph.kernel._keys is not None


def drop_keys(graph: Graph) -> None:
    """Toggle edge {0, 39} twice: a scalar row write, same edge set."""
    for _ in range(2):
        if not graph.add_edge(0, 39):
            graph.remove_edge(0, 39)
    assert not has_keys(graph)


class TestMutationsKeepKeysRight:
    def test_array_build_keeps_keys(self):
        graph = keyed_graph()
        assert has_keys(graph)
        assert_arrays_match(graph)

    def test_add_edge(self):
        graph = keyed_graph()
        present = next(iter(graph.edges()))
        assert not graph.add_edge(*present)
        assert has_keys(graph)
        absent = next((0, v) for v in range(1, N)
                      if not graph.has_edge(0, v))
        assert graph.add_edge(*absent)
        assert not has_keys(graph)
        assert_arrays_match(graph)

    def test_add_edges(self):
        graph = keyed_graph()
        graph.add_edges([(1, 2), (3, 4), (2, 1), (5, 39)])
        assert_arrays_match(graph)

    def test_remove_edge(self):
        graph = keyed_graph()
        assert graph.remove_edge(*next(iter(graph.edges())))
        assert_arrays_match(graph)

    def test_add_neighbors(self):
        graph = keyed_graph()
        graph.add_neighbors(7, (1 << 8) | (1 << 20) | (1 << 39))
        assert_arrays_match(graph)

    def test_add_edge_arrays_with_duplicates_and_present_edges(self):
        graph = keyed_graph()
        lo, hi = graph.edge_arrays()
        before = graph.num_edges
        us = np.concatenate([hi[:5], [0, 0, 9, 39], lo[5:8]])
        vs = np.concatenate([lo[:5], [1, 1, 12, 38], hi[5:8]])
        new = len({(0, 1), (9, 12), (38, 39)} - set(graph.edges()))
        assert graph.add_edge_arrays(us, vs) == new
        assert graph.num_edges == before + new
        assert has_keys(graph)
        assert_arrays_match(graph)
        assert graph.add_edge_arrays(us, vs) == 0
        assert_arrays_match(graph)

    def test_add_edge_arrays_without_keys(self):
        graph = keyed_graph()
        drop_keys(graph)
        new = len({(0, 39), (1, 2)} - set(graph.edges()))
        assert graph.add_edge_arrays([0, 1, 0], [39, 2, 39]) == new
        assert not has_keys(graph)
        assert_arrays_match(graph)

    def test_empty_graph_starts_keyed(self):
        graph = Graph(N, backend="bigint")
        assert graph.edge_arrays()[0].size == 0
        assert graph.add_edge_arrays([3, 5, 3], [4, 1, 4]) == 2
        assert has_keys(graph)
        assert_arrays_match(graph)
        assert Graph(0, backend="bigint").edge_keys().size == 0

    def test_copy_then_mutate_leaves_source(self):
        graph = keyed_graph()
        before = [array.tolist() for array in graph.edge_arrays()]
        clone = graph.copy()
        clone.add_edge_arrays([0, 2], [38, 37])
        clone.remove_edge(*next(iter(clone.edges())))
        clone.add_edge(10, 11)
        assert [array.tolist() for array in graph.edge_arrays()] == before
        assert has_keys(graph)
        assert_arrays_match(graph)
        assert_arrays_match(clone)

    def test_derived_graphs(self):
        graph = keyed_graph()
        sub = graph.subgraph(range(0, N, 2))
        assert sub.num_edges > 0
        assert_arrays_match(sub)
        other = keyed_graph(seed=1)
        assert_arrays_match(graph.union(other))
        assert_arrays_match(graph.to_backend("bigint"))
        assert_arrays_match(graph.to_backend("packed").to_backend("bigint"))
        assert_arrays_match(Graph.complete(9, backend="bigint"))

    def test_pickle_round_trip(self):
        graph = keyed_graph()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert has_keys(clone)
        assert_arrays_match(clone)
        with pytest.raises(ValueError):
            clone.edge_keys()[0] = 0
        dropped = graph.copy()
        drop_keys(dropped)
        assert_arrays_match(pickle.loads(pickle.dumps(dropped)))

    def test_keys_are_read_only(self):
        graph = keyed_graph()
        with pytest.raises(ValueError):
            graph.edge_keys()[0] = 0
        graph.add_edge_arrays([0], [39])
        with pytest.raises(ValueError):
            graph.edge_keys()[0] = 0


class TestBlockBuild:
    """Dense array builds fill word blocks; the rows must not change."""

    @pytest.mark.parametrize("block_bytes", [1 << 22, 64])
    def test_dense_build_equals_scalar_build(self, monkeypatch, block_bytes):
        monkeypatch.setattr(bigint, "_BLOCK_BYTES", block_bytes)
        n = 150
        rng = np.random.default_rng(3)
        us = rng.integers(0, n, size=4000)
        vs = rng.integers(0, n, size=4000)
        keep = us != vs
        dense = Graph.from_edge_arrays(n, us[keep], vs[keep],
                                       backend="bigint")
        assert dense.num_edges >= bigint._DENSE_EDGES_PER_VERTEX * n
        scalar = Graph(n, zip(us[keep].tolist(), vs[keep].tolist()),
                       backend="bigint")
        assert dense.adjacency_rows() == scalar.adjacency_rows()
        assert dense.num_edges == scalar.num_edges
        assert_arrays_match(dense)

    def test_dense_merge_into_existing_rows(self, monkeypatch):
        monkeypatch.setattr(bigint, "_BLOCK_BYTES", 64)
        graph = keyed_graph()
        reference = Graph(N, graph.edges(), backend="bigint")
        us, vs = np.triu_indices(N, 1)
        assert graph.add_edge_arrays(us, vs) == reference.add_edges(
            zip(us.tolist(), vs.tolist())
        )
        assert graph.adjacency_rows() == reference.adjacency_rows()
        assert_arrays_match(graph)

    def test_choice_follows_edges_per_vertex(self, monkeypatch):
        paths = []

        def block_rows(*args):
            paths.append("block")

        monkeypatch.setattr("repro.graphs.kernels.packed.scatter_bits",
                            block_rows)
        monkeypatch.setattr("repro.graphs.kernels.packed.word_rows",
                            lambda scratch: [0] * scratch.shape[0])
        n = 100
        per_vertex = bigint._DENSE_EDGES_PER_VERTEX
        us, vs = np.triu_indices(n, 1)
        Graph.from_edge_arrays(n, us[:per_vertex * n - 1],
                               vs[:per_vertex * n - 1], backend="bigint")
        assert paths == []
        Graph.from_edge_arrays(n, us[:per_vertex * n],
                               vs[:per_vertex * n], backend="bigint")
        assert paths == ["block"]


class TestMemoryBytes:
    def test_counts_the_stored_keys(self):
        graph = keyed_graph()
        rows = sum(sys.getsizeof(row) for row in graph.adjacency_rows())
        assert graph.nbytes == rows + 8 * graph.num_edges
        drop_keys(graph)
        rows = sum(sys.getsizeof(row) for row in graph.adjacency_rows())
        assert graph.nbytes == rows

    def test_cache_stats_count_the_keys(self):
        graph = keyed_graph()
        cache = InstanceCache()
        cache.get_or_build("host", lambda: graph)
        assert cache.stats()["instance_bytes"] == graph.nbytes


class TestPartitionSharesHostKeys:
    def test_partition_reads_the_stored_keys(self):
        graph = generators.gnd(300, 8.0, seed=2, backend="bigint")
        assert has_keys(graph)
        partition = partition_disjoint(graph, 3, seed=1)
        assert partition._keys is graph.kernel._keys
        views = [partition.adjacency_rows(j) for j in range(3)]
        assert all(has_keys(view) for view in views)
        union = views[0].union(views[1]).union(views[2])
        assert union == graph

    def test_generators_keep_keys(self):
        spread = generators.triangle_free_degree_spread(
            400, 6.0, 30, seed=3, backend="bigint"
        )
        planted = generators.planted_disjoint_triangles(300, 40, seed=4)
        far = generators.far_instance(3000, 6.0, 0.2, seed=5)
        for graph in (spread, planted.graph, far.graph):
            assert graph.backend == "bigint"
            assert has_keys(graph)
            assert_arrays_match(graph)


#: ``pickle.dumps(Graph(6, [(0, 1), (1, 2), (2, 3), (0, 5), (3, 5)],
#: backend="bigint"), protocol=4)`` as written before the bigint kernel
#: kept its edge keys: the kernel's slot state has ``_n`` and ``_rows``
#: only.
OLD_GRAPH_PICKLE = (
    b"\x80\x04\x95\xa2\x00\x00\x00\x00\x00\x00\x00\x8c\x12repro.graphs.graph"
    b"\x94\x8c\x05Graph\x94\x93\x94)\x81\x94N}\x94(\x8c\x02_n\x94K\x06\x8c"
    b"\x07_kernel\x94\x8c\x1brepro.graphs.kernels.bigint\x94\x8c\x0cBigint"
    b"Kernel\x94\x93\x94)\x81\x94N}\x94(h\x05K\x06\x8c\x05_rows\x94]\x94(K"
    b"\"K\x05K\nK$K\x00K\teu\x86\x94b\x8c\x0b_edge_count\x94K\x05u\x86\x94b."
)
OLD_GRAPH_EDGES = [(0, 1), (0, 5), (1, 2), (2, 3), (3, 5)]


class TestOldPickles:
    def test_old_kernel_state_loads(self):
        graph = pickle.loads(OLD_GRAPH_PICKLE)
        assert graph.backend == "bigint"
        assert not has_keys(graph)
        assert list(graph.edges()) == OLD_GRAPH_EDGES
        assert_arrays_match(graph)
        assert graph == Graph(6, OLD_GRAPH_EDGES, backend="bigint")
        graph.add_edge_arrays([4], [5])
        assert_arrays_match(graph)

    def test_disk_cache_hit_on_old_pickle(self, tmp_path):
        expected = Graph(6, OLD_GRAPH_EDGES, backend="bigint")
        key = ("old-bigint-graph", 6, 0)
        writer = InstanceCache(disk_dir=tmp_path)
        writer.get_or_build(key, lambda: expected)
        path = next(tmp_path.glob("*.pkl"))
        path.write_bytes(OLD_GRAPH_PICKLE)

        def no_build():
            raise AssertionError("an old pickle must load, not rebuild")

        reader = InstanceCache(disk_dir=tmp_path)
        value = reader.get_or_build(key, no_build)
        assert value == expected
        assert_arrays_match(value)
        stats = reader.stats()
        assert (stats["hits"], stats["builds"], stats["quarantined"]) == (
            1, 0, 0
        )
