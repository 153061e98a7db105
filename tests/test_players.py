"""Unit tests for the Player local-computation API (repro.comm.players)."""

import tracemalloc

import pytest

from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.graphs.buckets import player_suspected_bucket
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph, iter_bits, mask_of
from repro.graphs.partition import (
    partition_disjoint,
    partition_with_duplication,
)


@pytest.fixture
def player() -> Player:
    return Player(0, Graph(10, [(0, 1), (0, 2), (1, 2), (3, 4)]))


class TestIntrospection:
    def test_edges_canonicalized(self):
        p = Player(0, Graph(5, [(2, 1)]))
        assert (1, 2) in p.edges

    def test_has_edge_symmetric(self, player):
        assert player.has_edge(1, 0)
        assert player.has_edge(0, 1)
        assert not player.has_edge(0, 3)

    def test_self_loop_false(self, player):
        assert not player.has_edge(1, 1)

    def test_local_degree(self, player):
        assert player.local_degree(0) == 2
        assert player.local_degree(9) == 0

    def test_local_neighbors(self, player):
        assert frozenset(iter_bits(player.local_neighbor_mask(0))) == \
            frozenset({1, 2})

    def test_average_local_degree(self, player):
        assert player.average_local_degree() == pytest.approx(8 / 10)

    def test_num_edges(self, player):
        assert player.num_edges == 4


class TestMsb:
    def test_msb_of_zero_degree_is_none(self, player):
        assert player.degree_msb_index(9) is None

    def test_msb_values(self):
        p = Player(0, Graph(20, [(0, i) for i in range(1, 6)]))  # degree 5
        assert p.degree_msb_index(0) == 2  # 5 = 0b101

    def test_msb_degree_one(self, player):
        assert player.degree_msb_index(3) == 0


class TestSuspectedBucket:
    def test_uses_local_degrees(self):
        p = Player(0, Graph(20, [(0, i) for i in range(1, 5)]))  # d_0(0) = 4
        # bucket 2 = [3, 9): suspected band [3/2, 9] for k=2 -> 4 included
        assert 0 in p.suspected_bucket(2, k=2)
        # bucket 1 = [1, 3): suspected band [0.5, 3] -> 4 excluded
        assert 0 not in p.suspected_bucket(1, k=2)

    def test_memoised_ascending_and_read_only(self):
        p = Player(0, Graph(20, [(0, i) for i in range(1, 5)] + [(5, 6)]))
        bucket = p.suspected_bucket(1, k=2)
        assert bucket.tolist() == list(range(1, 7))  # degrees 1
        assert p.suspected_bucket(1, k=2) is bucket
        assert p.suspected_bucket(1, k=3) is not bucket
        with pytest.raises(ValueError):
            bucket[0] = 19

    def test_matches_the_dict_definition(self):
        graph = gnd(80, 6.0, seed=2)
        for player in make_players(partition_with_duplication(graph, 3)):
            degrees = {
                v: player.local_degree(v) for v in range(player.n)
                if player.local_degree(v)
            }
            for index in range(6):
                for k in (1, 3):
                    assert set(player.suspected_bucket(index, k).tolist()) \
                        == player_suspected_bucket(degrees, index, k)


class TestRankedMinima:
    def test_first_vertex_under_rank_agrees_across_players(self):
        shared_a = SharedRandomness(3)
        shared_b = SharedRandomness(3)
        rank_a = shared_a.permutation_rank(10, tag=1)
        rank_b = shared_b.permutation_rank(10, tag=1)
        p1 = Player(0, Graph(10, [(0, 1), (2, 3)]))
        p2 = Player(1, Graph(10, [(0, 1), (2, 3)]))
        assert p1.first_vertex_under_rank(
            [0, 2, 3], rank_a
        ) == p2.first_vertex_under_rank([0, 2, 3], rank_b)

    def test_first_vertex_empty_candidates(self, player):
        rank = SharedRandomness(0).permutation_rank(10)
        assert player.first_vertex_under_rank([], rank) is None

    def test_first_incident_edge(self, player):
        rank = SharedRandomness(1).permutation_rank(10)
        edge = player.first_incident_edge_under_rank(0, rank)
        assert edge in {(0, 1), (0, 2)}

    def test_first_incident_edge_isolated(self, player):
        rank = SharedRandomness(1).permutation_rank(10)
        assert player.first_incident_edge_under_rank(9, rank) is None

    def test_first_edge_under_rank(self, player):
        def rank(edge):
            return edge  # lexicographic
        assert player.first_edge_under_rank(rank) == (0, 1)

    def test_first_edge_empty_input(self):
        p = Player(0, Graph(5))
        assert p.first_edge_under_rank(lambda e: e) is None


class TestHarvesting:
    def test_edges_at_vertex_in_sample(self, player):
        assert set(player.edges_at_vertex_in_mask(0, mask_of({1}))) == {
            (0, 1)
        }
        assert set(player.edges_at_vertex_in_mask(0, mask_of({1, 2}))) == {
            (0, 1), (0, 2)
        }

    def test_edges_within(self, player):
        def within(sample):
            return set(player.edges_within_mask(mask_of(sample)))
        assert within({0, 1, 2}) == {(0, 1), (0, 2), (1, 2)}
        assert within({3, 4}) == {(3, 4)}
        assert within({5, 6}) == set()

    def test_edges_touching_both(self, player):
        # R = {0}, R u S = {0, 1}: only (0,1) qualifies.
        assert set(player.edges_touching_both_mask(
            mask_of({0}), mask_of({0, 1})
        )) == {(0, 1)}

    def test_edges_touching_both_symmetry(self, player):
        result = set(player.edges_touching_both_mask(
            mask_of({4}), mask_of({3, 4})
        ))
        assert result == {(3, 4)}

    def test_sample_hits_vertex(self, player):
        def hits(v, sample):
            return bool(player.local_neighbor_mask(v) & mask_of(sample))
        assert hits(0, {2})
        assert not hits(0, {7})
        assert not hits(9, {0, 1, 2})

    def test_any_incident_neighbor_in(self, player):
        assert player.any_incident_neighbor_in(0, lambda u: u == 2)
        assert not player.any_incident_neighbor_in(0, lambda u: u == 7)

    def test_any_edge_index_in(self, player):
        def index_of(edge):
            return edge[0] * 10 + edge[1]
        assert player.any_edge_index_in(index_of, lambda i: i == 1)
        assert not player.any_edge_index_in(index_of, lambda i: i == 99)


class TestMakePlayers:
    def test_matches_partition(self):
        graph = gnd(50, 4.0, seed=1)
        partition = partition_with_duplication(graph, 3, seed=2)
        players = make_players(partition)
        assert len(players) == 3
        for player, view in zip(players, partition.views):
            assert player.edges == view
            assert player.n == 50

    def test_csr_host_players_store_no_dense_rows(self):
        # Players wrap the partition's csr views: building them (and a
        # first harvest) costs O(m), not a bignum row per vertex.
        host = gnd(20_000, 6.0, seed=5).to_backend("csr")
        partition = partition_disjoint(host, 3, seed=6)
        tracemalloc.start()
        try:
            players = make_players(partition)
            for player in players:
                player.suspected_bucket(1, 3)
                player.edges_within_mask(mask_of(range(0, 20_000, 97)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(player.num_edges for player in players) == host.num_edges
        assert all(player.view.backend == "csr" for player in players)
        assert peak < 16 * 2**20
