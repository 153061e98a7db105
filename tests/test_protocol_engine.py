"""Differential tests: mask-native protocol engine vs the set reference.

Three layers, mirroring the PR 2 graph-kernel suite:

* **Players** — hypothesis drives random edge views and random sample
  sets/masks through the mask-native :class:`repro.comm.players.Player`
  and the preserved :class:`repro.comm.reference.SetPlayer`, asserting
  every harvest, degree, and ranked-minimum query agrees.
* **Protocols** — whole runs of sim-low / sim-high / oblivious /
  unrestricted / subgraph detection with both player backends produce
  identical ``DetectionResult``s, including cost summaries, and the
  pinned-seed outputs recorded from the seed commit are reproduced
  bit for bit.
* **Ledger** — the aggregate-counter ledger answers every reporting query
  exactly as a record-retaining twin does, at O(1) per query and with no
  per-message allocation in the default mode.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.table1 import far_disjoint_instance
from repro.comm.ledger import COORDINATOR, CommunicationLedger
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.reference import SetPlayer, make_set_players
from repro.core.oblivious import ObliviousParams, find_triangle_sim_oblivious
from repro.core.simultaneous_high import SimHighParams, find_triangle_sim_high
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.core.subgraph_detection import (
    FOUR_CYCLE,
    SubgraphParams,
    find_subgraph_simultaneous,
)
from repro.core.unrestricted import (
    UnrestrictedParams,
    _capped_star,
    find_triangle_unrestricted,
)
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph, canonical_edge, iter_bits, mask_of
from repro.graphs.triangles import iter_triangles
from repro.graphs.partition import partition_disjoint, partition_with_duplication

N_SMALL = 24

EDGE_VIEWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_SMALL - 1),
        st.integers(min_value=0, max_value=N_SMALL - 1),
    ).filter(lambda e: e[0] != e[1]),
    max_size=60,
)
VERTEX_SETS = st.sets(
    st.integers(min_value=0, max_value=N_SMALL - 1), max_size=N_SMALL
)


def build_both(edges) -> tuple[Player, SetPlayer]:
    return Player(0, Graph(N_SMALL, edges)), SetPlayer(0, N_SMALL, edges)


class TestPlayerDifferential:
    @given(EDGE_VIEWS)
    @settings(max_examples=100, deadline=None)
    def test_introspection_agrees(self, edges):
        mask, ref = build_both(edges)
        assert mask.edges == ref.edges
        assert mask.num_edges == ref.num_edges
        assert mask.sorted_edges() == ref.sorted_edges()
        assert mask.sorted_edges() == sorted(ref.edges)
        assert mask.average_local_degree() == ref.average_local_degree()
        for v in range(N_SMALL):
            assert mask.local_degree(v) == ref.local_degree(v)
            assert frozenset(iter_bits(mask.local_neighbor_mask(v))) == \
                ref.local_neighbors(v)
            assert mask.local_neighbor_mask(v) == ref.local_neighbor_mask(v)
            assert mask.degree_msb_index(v) == ref.degree_msb_index(v)
        for u in range(N_SMALL):
            for v in range(N_SMALL):
                assert mask.has_edge(u, v) == ref.has_edge(u, v)

    @given(EDGE_VIEWS, VERTEX_SETS, VERTEX_SETS)
    @settings(max_examples=150, deadline=None)
    def test_harvests_agree(self, edges, r_sample, s_sample):
        mask, ref = build_both(edges)
        rs_sample = r_sample | s_sample
        r_mask, rs_mask = mask_of(r_sample), mask_of(rs_sample)
        s_mask = mask_of(s_sample)

        assert set(mask.edges_within_mask(s_mask)) == \
            ref.edges_within(s_sample)
        assert mask.edges_within_mask(s_mask) == ref.edges_within_mask(s_mask)
        assert mask.edges_within_mask(s_mask) == sorted(
            ref.edges_within(s_sample)
        )

        assert set(mask.edges_touching_both_mask(r_mask, rs_mask)) == \
            ref.edges_touching_both(r_sample, rs_sample)
        assert mask.edges_touching_both_mask(r_mask, rs_mask) == sorted(
            ref.edges_touching_both(r_sample, rs_sample)
        )
        # The arguments need not be nested: R vs S alone must also agree.
        assert mask.edges_touching_both_mask(r_mask, s_mask) == sorted(
            ref.edges_touching_both(r_sample, s_sample)
        )

        for v in range(N_SMALL):
            assert set(mask.edges_at_vertex_in_mask(v, s_mask)) == \
                ref.edges_at_vertex_in_sample(v, s_sample)
            assert mask.edges_at_vertex_in_mask(v, s_mask) == sorted(
                ref.edges_at_vertex_in_sample(v, s_sample)
            )
            assert bool(mask.local_neighbor_mask(v) & s_mask) == \
                ref.sample_hits_vertex(v, s_sample)

    @given(EDGE_VIEWS, st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_ranked_minima_and_buckets_agree(self, edges, seed):
        mask, ref = build_both(edges)
        rank = SharedRandomness(seed).permutation_rank(N_SMALL)
        for v in range(N_SMALL):
            assert mask.first_incident_edge_under_rank(v, rank) == \
                ref.first_incident_edge_under_rank(v, rank)
        edge_rank = SharedRandomness(seed + 1).permutation_rank(
            N_SMALL * N_SMALL
        )
        assert mask.first_edge_under_rank(
            lambda e: edge_rank(e[0] * N_SMALL + e[1])
        ) == ref.first_edge_under_rank(
            lambda e: edge_rank(e[0] * N_SMALL + e[1])
        )
        for index in range(4):
            for k in (1, 3):
                assert set(mask.suspected_bucket(index, k).tolist()) == \
                    ref.suspected_bucket(index, k)

    @given(EDGE_VIEWS)
    @settings(max_examples=40, deadline=None)
    def test_out_of_universe_vertices_agree(self, edges):
        # Negative ids must not wrap around to row n+v; ids >= n must
        # answer "no neighbours", exactly like the dict-backed reference.
        mask, ref = build_both(edges)
        for v in (-1, -N_SMALL, N_SMALL, N_SMALL + 5):
            assert mask.local_degree(v) == ref.local_degree(v) == 0
            assert frozenset(iter_bits(mask.local_neighbor_mask(v))) == \
                ref.local_neighbors(v)
            assert mask.local_neighbor_mask(v) == ref.local_neighbor_mask(v)
            assert mask.degree_msb_index(v) is None
            assert not mask.has_edge(0, v)
            assert not mask.has_edge(v, 0)
            assert not mask.local_neighbor_mask(v) & mask_of({0, 1})
            assert mask.edges_at_vertex_in_mask(v, mask_of({0, 1})) == []


class TestVectorisedHarvestDifferential:
    """The one-call harvests over public coins equal the per-item forms.

    Players come from partitions of graphs on every kernel backend;
    each vectorised harvest is checked against the plain Python
    definition and against the scalar oracle in ``comm/reference.py``.
    """

    @staticmethod
    def _players(edges, backend, seed):
        graph = Graph(N_SMALL, edges, backend=backend)
        partition = partition_with_duplication(graph, 3, seed=seed)
        return zip(make_players(partition), make_set_players(partition))

    @pytest.mark.parametrize("backend", ["bigint", "packed", "csr"])
    @given(EDGE_VIEWS, VERTEX_SETS, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_ranked_minima_match_min_and_oracle(self, backend, edges,
                                                candidates, seed):
        rank = SharedRandomness(seed).permutation_rank(N_SMALL, tag=1)
        expected = min(candidates, key=rank) if candidates else None
        for player, ref in self._players(edges, backend, seed):
            for form in (candidates, frozenset(candidates),
                         np.array(sorted(candidates), dtype=np.int64),
                         iter(sorted(candidates))):
                assert player.first_vertex_under_rank(form, rank) == expected
            assert ref.first_vertex_under_rank(candidates, rank) == expected
            for v in range(N_SMALL):
                neighbours = frozenset(
                    iter_bits(player.local_neighbor_mask(v))
                )
                got = player.first_incident_edge_under_rank(v, rank)
                assert got == ref.first_incident_edge_under_rank(v, rank)
                if neighbours:
                    assert got == canonical_edge(
                        v, min(neighbours, key=rank)
                    )
                else:
                    assert got is None

    @pytest.mark.parametrize("backend", ["bigint", "packed", "csr"])
    @given(EDGE_VIEWS, st.integers(min_value=0, max_value=2**31),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_predicate_harvests_match_per_item(self, backend, edges, seed,
                                               p, cap):
        pred = SharedRandomness(seed).bernoulli_predicate(p, tag=2)
        for player, ref in self._players(edges, backend, seed):
            for v in range(N_SMALL):
                neighbours = list(iter_bits(player.local_neighbor_mask(v)))
                hit = any(pred(u) for u in neighbours)
                assert player.any_incident_neighbor_in(v, pred) == hit
                assert ref.any_incident_neighbor_in(v, pred) == hit
                star = [canonical_edge(v, u) for u in neighbours if pred(u)]
                assert _capped_star(player, v, pred, cap) == star[:cap]
                assert _capped_star(ref, v, pred, cap) == star[:cap]

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_capped_star_truncates_in_ascending_order(self, p):
        star = Player(0, Graph(
            N_SMALL, [(7, u) for u in range(N_SMALL) if u != 7]
        ))
        pred = SharedRandomness(4).bernoulli_predicate(p, tag=1)
        expected = [canonical_edge(7, u) for u in range(N_SMALL)
                    if u != 7 and pred(u)]
        assert len(expected) > 3
        for cap in (1, 3, N_SMALL):
            assert _capped_star(star, 7, pred, cap) == expected[:cap]

    def test_empty_candidates_return_none(self):
        rank = SharedRandomness(0).permutation_rank(N_SMALL)
        pred = SharedRandomness(0).bernoulli_predicate(1.0)
        player = Player(0, Graph(N_SMALL, [(0, 1)]))
        for empty in (set(), frozenset(), [], np.empty(0, dtype=np.int64)):
            assert player.first_vertex_under_rank(empty, rank) is None
        assert player.first_incident_edge_under_rank(5, rank) is None
        assert not player.any_incident_neighbor_in(5, pred)
        assert _capped_star(player, 5, pred, 3) == []

    def test_out_of_universe_array_item_raises_like_scalar(self):
        rank = SharedRandomness(0).permutation_rank(N_SMALL)
        player = Player(0, Graph(N_SMALL, [(0, 1)]))
        ref = SetPlayer(0, N_SMALL, [(0, 1)])
        with pytest.raises(ValueError, match="outside universe"):
            ref.first_vertex_under_rank([1, N_SMALL], rank)
        for bad in (np.array([1, N_SMALL]), np.array([-1, 2]), [1, N_SMALL]):
            with pytest.raises(ValueError, match="outside universe"):
                player.first_vertex_under_rank(bad, rank)


class TestMakePlayersRowCache:
    def test_rows_cached_on_partition(self):
        # A player reads the partition's memoised view graph, which lives
        # on the host's backend: no second adjacency is built.
        for backend in ("bigint", "packed", "csr"):
            graph = gnd(60, 4.0, seed=3).to_backend(backend)
            partition = partition_with_duplication(graph, 3, seed=4)
            first = partition.adjacency_rows(1)
            assert partition.adjacency_rows(1) is first  # memoised
            assert first.backend == backend
            assert first.edge_set() == set(partition.views[1])
            assert first.num_edges == len(partition.views[1])
            player = make_players(partition)[1]
            assert player.view is first
            assert player.n == first.n == 60

    def test_make_players_matches_views(self):
        graph = gnd(50, 4.0, seed=1)
        partition = partition_with_duplication(graph, 3, seed=2)
        for player, ref, view in zip(
            make_players(partition), make_set_players(partition),
            partition.views,
        ):
            assert player.edges == ref.edges == view


class TestRandomnessMaskForms:
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_bernoulli_mask_matches_set_and_stream(self, seed, p):
        a, b = SharedRandomness(seed), SharedRandomness(seed)
        sample = a.bernoulli_subset(100, p, tag=5)
        mask = b.bernoulli_subset_mask(100, p, tag=5)
        assert mask == mask_of(sample)
        # Draw order unchanged: the next public decision agrees.
        assert a.bernoulli_subset(100, 0.5, tag=6) == \
            b.bernoulli_subset(100, 0.5, tag=6)
        assert a.randrange(10 ** 9) == b.randrange(10 ** 9)

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_sample_without_replacement_mask_matches(self, seed, count):
        a, b = SharedRandomness(seed), SharedRandomness(seed)
        sample = a.sample_without_replacement(100, count, tag=2)
        mask = b.sample_without_replacement_mask(100, count, tag=2)
        assert mask == mask_of(sample)
        assert a.randrange(10 ** 9) == b.randrange(10 ** 9)


def _partition(n: int, d: float, k: int, seed: int, duplicated: bool):
    graph = gnd(n, d, seed=seed)
    if duplicated:
        return partition_with_duplication(graph, k, seed=seed + 1)
    return partition_disjoint(graph, k, seed=seed + 1)


def _on_set_players(monkeypatch, target: str, protocol, partition,
                    *args, **kwargs):
    """Run ``protocol`` with ``target`` (a module's ``make_players``
    binding) swapped for the set reference.

    Asserts the set-player factory really ran: a swap that patched the
    wrong binding would compare mask players with mask players and pass
    vacuously.
    """
    calls = []

    def factory(view):
        calls.append(view)
        return make_set_players(view)

    with monkeypatch.context() as patch:
        patch.setattr(target, factory)
        result = protocol(partition, *args, **kwargs)
    assert len(calls) == 1 and calls[0] is partition, (
        f"{target} was not the binding {protocol.__name__} calls"
    )
    return result


class TestProtocolDifferential:
    """Whole protocol runs agree between the two player backends."""

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sim_low_identical(self, seed, duplicated, monkeypatch):
        partition = _partition(120, 5.0, 3, seed, duplicated)
        params = SimLowParams(epsilon=0.2, delta=0.2)
        mask = find_triangle_sim_low(partition, params, seed=seed)
        ref = _on_set_players(
            monkeypatch, "repro.core.simultaneous_low.make_players",
            find_triangle_sim_low, partition, params, seed=seed,
        )
        assert mask == ref

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sim_high_identical(self, seed, duplicated, monkeypatch):
        partition = _partition(120, 8.0, 3, seed, duplicated)
        for bernoulli in (False, True):
            params = SimHighParams(
                epsilon=0.2, delta=0.2, bernoulli_sampling=bernoulli
            )
            mask = find_triangle_sim_high(partition, params, seed=seed)
            ref = _on_set_players(
                monkeypatch, "repro.core.simultaneous_high.make_players",
                find_triangle_sim_high, partition, params, seed=seed,
            )
            assert mask == ref

    @pytest.mark.parametrize("seed", [0, 1])
    def test_oblivious_identical(self, seed, monkeypatch):
        partition = _partition(120, 6.0, 4, seed, True)
        params = ObliviousParams(epsilon=0.2, delta=0.2)
        mask = find_triangle_sim_oblivious(partition, params, seed=seed)
        ref = _on_set_players(
            monkeypatch, "repro.core.oblivious.make_players",
            find_triangle_sim_oblivious, partition, params, seed=seed,
        )
        assert mask == ref

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unrestricted_identical(self, seed, monkeypatch):
        partition = _partition(100, 6.0, 3, seed, True)
        params = UnrestrictedParams(
            epsilon=0.2, delta=0.2, known_average_degree=6.0,
            samples_per_bucket=4, max_candidates=3,
        )
        mask = find_triangle_unrestricted(partition, params, seed=seed)
        ref = _on_set_players(
            monkeypatch, "repro.core.unrestricted.make_players",
            find_triangle_unrestricted, partition, params, seed=seed,
        )
        assert mask == ref

    def test_subgraph_identical(self, monkeypatch):
        partition = _partition(120, 6.0, 3, 5, False)
        params = SubgraphParams(epsilon=0.2, rounds=2)
        mask = find_subgraph_simultaneous(partition, FOUR_CYCLE, params, seed=3)
        ref = _on_set_players(
            monkeypatch, "repro.core.subgraph_detection.make_players",
            find_subgraph_simultaneous, partition, FOUR_CYCLE, params,
            seed=3,
        )
        assert mask == ref


# REGRESSION-TEST UPDATE (PR 4, rows-union referee re-pin): the original
# values were recorded at the seed commit (PR 2 HEAD), when referees
# unioned messages into a set[Edge] and reported whichever triangle the
# set's hash iteration order surfaced first.  PR 4 replaced that union
# with per-vertex rows searched ascending, so the *reported* triangle is
# now the canonical minimum of the same union — the found flags and every
# total_bits below are unchanged from the seed recording (messages and
# charges are untouched; asserted per point), and the triangle values
# were re-pinned under the rows referee.  tests/test_referee.py proves
# the two referees accept/reject identically.
# (n, d, trial seed) -> ((found, triangle, total_bits) per protocol).
# The far_disjoint_instance partition is built with instance seed 7.
SEED_COMMIT_BASELINE = {
    (400, 6.0, 0): (
        (True, (8, 201, 350), 5724),
        (True, (59, 86, 252), 1530),
        (True, (118, 194, 318), 8908),
    ),
    (400, 6.0, 1): (
        (True, (14, 40, 170), 6768),
        (True, (77, 202, 333), 1440),
        (True, (3, 16, 386), 10024),
    ),
    (400, 6.0, 2): (
        (True, (2, 206, 248), 6840),
        (True, (218, 254, 272), 1404),
        (True, (5, 135, 351), 9395),
    ),
    (800, 10.0, 0): (
        (True, (144, 235, 713), 11240),
        (True, (164, 166, 433), 2300),
        (True, (38, 219, 519), 25360),
    ),
}


class TestSeedCommitDeterminism:
    @pytest.mark.parametrize("point", sorted(SEED_COMMIT_BASELINE))
    def test_detection_results_unchanged(self, point):
        n, d, seed = point
        partition = far_disjoint_instance(epsilon=0.2, k=3)(n, d, 7)
        low = find_triangle_sim_low(
            partition, SimLowParams(epsilon=0.2, delta=0.2), seed=seed
        )
        high = find_triangle_sim_high(
            partition, SimHighParams(epsilon=0.2, delta=0.2, c=2.0), seed=seed
        )
        oblivious = find_triangle_sim_oblivious(
            partition, ObliviousParams(epsilon=0.2, delta=0.2), seed=seed
        )
        got = tuple(
            (r.found, r.triangle, r.cost.total_bits)
            for r in (low, high, oblivious)
        )
        assert got == SEED_COMMIT_BASELINE[point]
        # The re-pinned triangles are genuine triangles of the instance
        # (the rows referee can only have re-ordered the same union).
        triangles = set(iter_triangles(partition.graph))
        for result in (low, high, oblivious):
            assert result.triangle in triangles


CHARGES = st.lists(
    st.tuples(
        st.sampled_from(["up", "down", "broadcast", "round"]),
        st.integers(min_value=0, max_value=5),    # player / audience
        st.integers(min_value=0, max_value=200),  # bits
        st.sampled_from(["", "a", "b", "c"]),
    ),
    max_size=80,
)


def _apply(ledger: CommunicationLedger, charges) -> None:
    for op, who, bits, label in charges:
        if op == "up":
            ledger.charge_upstream(who, bits, label)
        elif op == "down":
            ledger.charge_downstream(who, bits, label)
        elif op == "broadcast":
            ledger.charge_broadcast(who, bits, label)
        else:
            ledger.begin_round()


class TestLedgerDifferential:
    @given(CHARGES)
    @settings(max_examples=150, deadline=None)
    def test_aggregate_equals_recording_twin(self, charges):
        aggregate = CommunicationLedger()
        recording = CommunicationLedger(record_messages=True)
        _apply(aggregate, charges)
        _apply(recording, charges)
        assert aggregate.summary() == recording.summary()
        assert aggregate.total_bits == recording.total_bits
        assert aggregate.upstream_bits == recording.upstream_bits
        assert aggregate.downstream_bits == recording.downstream_bits
        assert aggregate.rounds == recording.rounds
        for player in range(6):
            assert aggregate.player_bits(player) == \
                recording.player_bits(player)
        # And the recording twin's transcript re-derives its own summary.
        summary = recording.summary()
        assert summary.total_bits == sum(r.bits for r in recording.records)
        assert summary.upstream_bits == sum(
            r.bits for r in recording.records if r.receiver == COORDINATOR
        )

    def test_hundred_thousand_charges_without_record_walk(self):
        """Regression: totals are O(1) reads, not O(messages) re-sums.

        10^5 charges; the default ledger must answer every reporting
        query from counters — it retains no record list at all (records
        access raises), so no walk over per-message state is possible —
        and a record-retaining twin agrees on every total.
        """
        aggregate = CommunicationLedger()
        recording = CommunicationLedger(record_messages=True)
        for i in range(100_000):
            aggregate.charge_upstream(i % 7, i % 13, "bulk")
            recording.charge_upstream(i % 7, i % 13, "bulk")
        aggregate.charge_broadcast(5, 3, "post")
        recording.charge_broadcast(5, 3, "post")
        assert aggregate._records is None  # no per-message storage at all
        with pytest.raises(RuntimeError):
            _ = aggregate.records
        assert aggregate.summary() == recording.summary()
        assert aggregate.summary().messages == 100_005
        assert len(recording.records) == 100_005

    def test_broadcast_is_one_update(self):
        ledger = CommunicationLedger()
        ledger.charge_broadcast(1000, 7, "wide")
        assert ledger.total_bits == 7000
        assert ledger.downstream_bits == 7000
        assert ledger.summary().messages == 1000
        assert ledger.summary().bits_by_label == {"wide": 7000}
