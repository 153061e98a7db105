"""Edge-id storage of ``EdgePartition``: replay, checks, equality, pickles.

Partitions store one sorted int64 array of edge ids per player.  The
vectorized ``partition_disjoint`` and ``partition_by_vertex`` must
reproduce the scalar ``randrange`` loops in ``partition_oracle`` view
for view; the covering check must reject bad ids before a partition is
returned; and disk-cache pickles carry only the graph and the ids.
"""

import pickle
import random
from dataclasses import dataclass

import numpy as np
import pytest

from partition_oracle import partition_by_vertex_views, partition_disjoint_views
from repro.graphs import partition as partition_module
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    EdgePartition,
    _randrange_array,
    partition_all_to_all,
    partition_by_vertex,
    partition_disjoint,
    partition_with_duplication,
)
from repro.runtime.cache import InstanceCache

BACKENDS = ["bigint", "packed", "csr"]


@pytest.fixture(scope="module", params=BACKENDS)
def host(request) -> Graph:
    return gnd(120, 6.0, seed=9).to_backend(request.param)


def assert_python_int_views(views) -> None:
    for view in views:
        for u, v in view:
            assert type(u) is int and type(v) is int


class TestReplayMatchesOracle:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6, 7, 8, 255, 2 ** 31 + 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_randrange_array_draw_for_draw(self, bound, seed):
        rng = random.Random(seed)
        expected = [rng.randrange(bound) for _ in range(3000)]
        assert _randrange_array(seed, bound, 3000).tolist() == expected

    def test_randrange_array_empty_and_bound_limit(self):
        assert _randrange_array(0, 3, 0).size == 0
        with pytest.raises(ValueError):
            _randrange_array(0, 2 ** 32, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_disjoint_views_equal_oracle(self, host, k, seed):
        partition = partition_disjoint(host, k, seed=seed)
        assert partition.views == partition_disjoint_views(host, k, seed)
        assert_python_int_views(partition.views)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_by_vertex_views_equal_oracle(self, host, k, seed):
        partition = partition_by_vertex(host, k, seed=seed)
        assert partition.views == partition_by_vertex_views(host, k, seed)
        assert_python_int_views(partition.views)

    def test_view_graphs_match_views(self, host):
        partition = partition_disjoint(host, 3, seed=1)
        for player, view in enumerate(partition.views):
            graph = partition.adjacency_rows(player)
            assert graph.backend == host.backend
            assert graph.edge_set() == set(view)


class TestIds:
    def test_ids_sorted_and_disjoint(self, host):
        partition = partition_disjoint(host, 4, seed=3)
        assert partition.k == 4
        for ids in partition.edge_ids:
            assert ids.dtype == np.int64
            assert bool((np.diff(ids) > 0).all())
        merged = np.sort(np.concatenate(partition.edge_ids))
        assert merged.tolist() == list(range(host.num_edges))

    def test_explicit_views_map_to_ids(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        partition = EdgePartition(
            graph, ({(1, 0), (3, 2)}, [(1, 2), (4, 3), (2, 3)])
        )
        assert [ids.tolist() for ids in partition.edge_ids] == [
            [0, 2], [1, 2, 3]
        ]
        assert partition.views == (
            frozenset({(0, 1), (2, 3)}),
            frozenset({(1, 2), (2, 3), (3, 4)}),
        )
        assert partition.has_duplication

    @pytest.mark.parametrize("bad", [
        [np.array([0, 1, 5])],           # past the last edge
        [np.array([-1, 0, 1, 2])],       # negative
        [np.array([1, 0, 2])],           # not increasing
        [np.array([0, 1, 1, 2])],        # repeated
        [np.array([[0, 1, 2]])],         # not one-dimensional
    ])
    def test_range_check_rejects_bad_ids(self, bad):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="strictly increasing"):
            EdgePartition.from_edge_ids(graph, bad)

    def test_covering_check_counts_missing_ids(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="2 missing, 0 spurious"):
            EdgePartition.from_edge_ids(graph, [np.array([1]), np.array([1])])


class TestEquality:
    def test_equal_pairs(self, host):
        assert partition_disjoint(host, 3, seed=2) == \
            partition_disjoint(host, 3, seed=2)
        # Same graph on another backend and ids built another way.
        explicit = EdgePartition(
            host.to_backend("bigint"),
            partition_disjoint(host, 3, seed=2).views,
        )
        assert explicit == partition_disjoint(host, 3, seed=2)

    def test_unequal_pairs(self, host):
        base = partition_disjoint(host, 3, seed=2)
        assert base != partition_disjoint(host, 3, seed=3)
        assert base != partition_disjoint(host, 4, seed=2)
        assert base != partition_all_to_all(host, 3)
        other = gnd(120, 6.0, seed=10).to_backend(host.backend)
        assert base != partition_disjoint(other, 3, seed=2)
        assert base != "not a partition"

    def test_unhashable(self, host):
        with pytest.raises(TypeError):
            hash(partition_disjoint(host, 2, seed=0))


class TestPickle:
    def test_round_trip_carries_graph_and_ids_only(self, host):
        partition = partition_with_duplication(host, 3, seed=5)
        partition.adjacency_rows(0)
        views = partition.views
        assert set(partition.__getstate__()) == {"graph", "edge_ids"}
        clone = pickle.loads(pickle.dumps(partition))
        assert clone == partition
        assert set(vars(clone)) == {"graph", "edge_ids"}
        assert clone.views == views
        assert clone.adjacency_rows(0) == partition.adjacency_rows(0)

    def test_old_format_pickle_quarantined(self, tmp_path, monkeypatch):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rebuilt = partition_disjoint(graph, 2, seed=0)

        @dataclass(frozen=True)
        class OldEdgePartition:
            """The frozenset-view dataclass as pickles stored it."""

            graph: Graph
            views: tuple

        OldEdgePartition.__module__ = partition_module.__name__
        OldEdgePartition.__qualname__ = "EdgePartition"
        monkeypatch.setattr(partition_module, "EdgePartition",
                            OldEdgePartition)
        old_bytes = pickle.dumps(OldEdgePartition(graph, rebuilt.views))
        monkeypatch.undo()
        with pytest.raises(ValueError, match="predates"):
            pickle.loads(old_bytes)

        key = ("old-partition", 4, 2, 0)
        writer = InstanceCache(disk_dir=tmp_path)
        writer.get_or_build(key, lambda: rebuilt)
        path = next(tmp_path.glob("*.pkl"))
        path.write_bytes(old_bytes)
        reader = InstanceCache(disk_dir=tmp_path)
        value = reader.get_or_build(
            key, lambda: partition_disjoint(graph, 2, seed=0)
        )
        assert value == rebuilt
        assert reader.stats()["quarantined"] == 1
        assert reader.stats()["builds"] == 1
        assert list(tmp_path.glob("*.corrupt"))
