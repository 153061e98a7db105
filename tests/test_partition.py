"""Unit tests for edge partitioning (repro.graphs.partition)."""

import pytest

from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    EdgePartition,
    partition_adversarial_skew,
    partition_all_to_all,
    partition_by_vertex,
    partition_disjoint,
    partition_with_duplication,
)


@pytest.fixture
def graph() -> Graph:
    return gnd(100, 6.0, seed=1)


ALL_PARTITIONERS = [
    lambda g, k: partition_disjoint(g, k, seed=3),
    lambda g, k: partition_with_duplication(g, k, seed=3),
    lambda g, k: partition_all_to_all(g, k),
    lambda g, k: partition_adversarial_skew(g, k, seed=3),
    lambda g, k: partition_by_vertex(g, k, seed=3),
]


class TestCoverageInvariant:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_union_equals_graph(self, graph, partitioner, k):
        partition = partitioner(graph, k)
        union = set()
        for view in partition.views:
            union.update(view)
        assert union == graph.edge_set()

    def test_invalid_partition_rejected(self, graph):
        views = (frozenset(list(graph.edges())[:-1]),)  # drop one edge
        with pytest.raises(ValueError):
            EdgePartition(graph, views)

    def test_spurious_edge_rejected(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            EdgePartition(graph, (frozenset({(0, 1), (1, 2)}),))

    @pytest.mark.parametrize("backend", ["bigint", "packed", "csr"])
    def test_error_counts_agree_across_backends(self, backend):
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)], backend=backend)
        views = (
            # (3, 4) is missing; (2, 1) is a reversed duplicate.
            frozenset({(0, 1), (2, 1)}),
            # (4, 5) is spurious; (5, 9) and (9, 5) are one
            # out-of-universe edge, which counts as spurious.
            frozenset({(1, 2), (2, 3), (4, 5), (5, 9)}),
            frozenset({(9, 5)}),
        )
        with pytest.raises(
            ValueError, match="1 missing, 2 spurious edges"
        ):
            EdgePartition(graph, views)


class TestDisjoint:
    def test_views_disjoint(self, graph):
        partition = partition_disjoint(graph, 4, seed=2)
        total = sum(len(view) for view in partition.views)
        assert total == graph.num_edges
        assert not partition.has_duplication

    def test_multiplicity_one(self, graph):
        partition = partition_disjoint(graph, 4, seed=2)
        for edge in graph.edges():
            assert partition.multiplicity(edge) == 1

    def test_deterministic(self, graph):
        a = partition_disjoint(graph, 3, seed=5)
        b = partition_disjoint(graph, 3, seed=5)
        assert a.views == b.views

    def test_zero_players_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_disjoint(graph, 0)


class TestDuplication:
    def test_has_duplication_typically(self, graph):
        partition = partition_with_duplication(
            graph, 4, seed=2, duplication_probability=0.5
        )
        assert partition.has_duplication

    def test_multiplicity_at_least_one(self, graph):
        partition = partition_with_duplication(graph, 4, seed=2)
        for edge in graph.edges():
            assert partition.multiplicity(edge) >= 1

    def test_zero_probability_is_disjoint(self, graph):
        partition = partition_with_duplication(
            graph, 4, seed=2, duplication_probability=0.0
        )
        assert not partition.has_duplication

    def test_invalid_probability_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_with_duplication(
                graph, 3, duplication_probability=1.5
            )


class TestAllToAll:
    def test_every_player_sees_everything(self, graph):
        partition = partition_all_to_all(graph, 3)
        for view in partition.views:
            assert view == frozenset(graph.edges())

    def test_multiplicity_k(self, graph):
        partition = partition_all_to_all(graph, 5)
        edge = next(iter(graph.edges()))
        assert partition.multiplicity(edge) == 5

    def test_multiplicity_ignores_orientation(self):
        partition = partition_all_to_all(Graph(3, [(0, 1), (1, 2)]), 2)
        assert partition.multiplicity((0, 1)) == 2
        assert partition.multiplicity((1, 0)) == 2
        assert partition.multiplicity((2, 0)) == 0


class TestSkew:
    def test_player_zero_heavy(self, graph):
        partition = partition_adversarial_skew(
            graph, 5, seed=2, heavy_fraction=0.9
        )
        share = len(partition.views[0]) / graph.num_edges
        assert share > 0.75

    def test_single_player_gets_all(self, graph):
        partition = partition_adversarial_skew(graph, 1, seed=2)
        assert partition.views[0] == frozenset(graph.edges())

    def test_invalid_fraction_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_adversarial_skew(graph, 3, heavy_fraction=0.0)


class TestByVertex:
    def test_edge_follows_lower_endpoint(self, graph):
        partition = partition_by_vertex(graph, 4, seed=7)
        # Rebuild the vertex-owner map implied by the views and check
        # consistency: all edges with the same lower endpoint co-locate.
        owner_of: dict[int, int] = {}
        for player, view in enumerate(partition.views):
            for u, _v in view:
                if u in owner_of:
                    assert owner_of[u] == player
                owner_of[u] = player

    def test_k_property(self, graph):
        partition = partition_by_vertex(graph, 4, seed=7)
        assert partition.k == 4
