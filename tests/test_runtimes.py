"""Unit tests for the four model runtimes (coordinator, simultaneous,
one-way, blackboard)."""

import pytest

from repro.comm.blackboard import BlackboardRuntime
from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.encoding import edge_bits
from repro.comm.oneway import (
    OneWayTranscript,
    run_extended_oneway,
    run_oneway_chain,
)
from repro.comm.players import Player, make_players
from repro.comm.randomness import SharedRandomness
from repro.comm.simultaneous import run_simultaneous
from repro.graphs.generators import gnd
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_disjoint


def three_players() -> list[Player]:
    return [
        Player(0, Graph(10, [(0, 1), (1, 2)])),
        Player(1, Graph(10, [(2, 3)])),
        Player(2, Graph(10, [(4, 5), (5, 6)])),
    ]


class TestCoordinatorRuntime:
    def test_collect_polls_everyone(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        sizes = rt.collect(
            compute=lambda p: p.num_edges, response_bits=lambda _: 4
        )
        assert sizes == [2, 1, 2]

    def test_collect_charges_request_and_response(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        rt.collect(compute=lambda p: 0, response_bits=lambda _: 4)
        # 3 players x (1 request + 4 response).
        assert rt.ledger.total_bits == 15
        assert rt.ledger.rounds == 3

    def test_collect_zero_request_bits(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        rt.collect(
            compute=lambda p: 0, response_bits=lambda _: 2, request_bits=0
        )
        assert rt.ledger.total_bits == 6

    def test_collect_from_single_player(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        result = rt.collect_from(
            1, compute=lambda p: p.num_edges, response_bits=lambda _: 3
        )
        assert result == 1
        assert rt.ledger.total_bits == 4

    def test_broadcast_charges_k_copies(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        rt.broadcast(5)
        assert rt.ledger.downstream_bits == 15

    def test_empty_players_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorRuntime([], SharedRandomness(0))

    def test_mismatched_universe_rejected(self):
        players = [Player(0, Graph(10)), Player(1, Graph(20))]
        with pytest.raises(ValueError):
            CoordinatorRuntime(players)

    def test_scope_labels(self):
        rt = CoordinatorRuntime(three_players(), SharedRandomness(1))
        with rt.scope("phase"):
            rt.collect(compute=lambda p: 0, response_bits=lambda _: 1)
        assert rt.ledger.summary().bits_by_label["phase"] == 6


class TestSimultaneousRuntime:
    def test_one_message_per_player(self):
        run = run_simultaneous(
            three_players(),
            message_fn=lambda p, _: p.num_edges,
            message_bits=lambda m: m,
            referee_fn=lambda messages, _: sum(messages),
        )
        assert run.output == 5
        assert run.messages == [2, 1, 2]
        assert run.total_bits == 5
        assert run.ledger.rounds == 1

    def test_shared_randomness_passed(self):
        shared = SharedRandomness(7)
        run = run_simultaneous(
            three_players(),
            message_fn=lambda p, s: s.seed,
            message_bits=lambda _: 1,
            referee_fn=lambda messages, s: messages,
            shared=shared,
        )
        assert run.output == [7, 7, 7]

    def test_max_message_bits(self):
        run = run_simultaneous(
            three_players(),
            message_fn=lambda p, _: p.num_edges,
            message_bits=lambda m: m * 10,
            referee_fn=lambda messages, _: None,
        )
        assert run.max_message_bits() == 20

    def test_empty_players_rejected(self):
        with pytest.raises(ValueError):
            run_simultaneous(
                [], lambda p, s: 0, lambda m: 1, lambda ms, s: None
            )


class TestExtendedOneWay:
    def test_transcript_charged(self):
        players = three_players()

        def conversation(alice, bob, shared, transcript):
            transcript.append(0, "hello", 5)
            transcript.append(1, "world", 7)

        def charlie_output(charlie, transcript, shared):
            return transcript.payloads()

        run = run_extended_oneway(
            players[0], players[1], players[2], conversation, charlie_output
        )
        assert run.output == ["hello", "world"]
        assert run.total_bits == 12
        assert run.ledger.total_bits == 12

    def test_charlie_sees_own_input(self):
        players = three_players()

        def conversation(alice, bob, shared, transcript):
            transcript.append(0, sorted(alice.edges), 16)

        def charlie_output(charlie, transcript, shared):
            return charlie.num_edges

        run = run_extended_oneway(
            players[0], players[1], players[2], conversation, charlie_output
        )
        assert run.output == 2

    def test_empty_transcript(self):
        transcript = OneWayTranscript()
        assert transcript.total_bits == 0
        assert transcript.payloads() == []


class TestOneWayChain:
    def test_state_forwarded_in_order(self):
        players = three_players()
        run = run_oneway_chain(
            players,
            initial_state=[],
            step=lambda p, state, _: state + [p.player_id],
            state_bits=lambda state: len(state),
            finalize=lambda p, state, _: state + [p.player_id],
        )
        assert run.output == [0, 1, 2]

    def test_bits_charged_per_hop(self):
        players = three_players()
        run = run_oneway_chain(
            players,
            initial_state=0,
            step=lambda p, state, _: state + p.num_edges,
            state_bits=lambda _: 8,
            finalize=lambda p, state, _: state,
        )
        assert run.total_bits == 16  # two forwarding hops

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            run_oneway_chain(
                [Player(0, Graph(5))],
                initial_state=None,
                step=lambda p, s, _: s,
                state_bits=lambda _: 1,
                finalize=lambda p, s, _: s,
            )


class TestBlackboard:
    def test_post_charged_once(self):
        rt = BlackboardRuntime(three_players(), SharedRandomness(1))
        rt.post(0, "payload", 9)
        assert rt.ledger.total_bits == 9
        assert rt.board == [(0, "payload")]

    def test_post_edges_deduplicates(self):
        graph = gnd(30, 4.0, seed=1)
        # All-to-all duplication: every player holds every edge.
        from repro.graphs.partition import partition_all_to_all

        partition = partition_all_to_all(graph, 3)
        rt = BlackboardRuntime(make_players(partition), SharedRandomness(2))
        posted = rt.post_edges_in_turns(
            harvest=lambda p: sorted(p.edges),
            per_edge_bits=edge_bits(30),
        )
        assert posted == graph.edge_set()
        # Charged once per distinct edge, not once per player copy.
        assert rt.ledger.total_bits == graph.num_edges * edge_bits(30)

    def test_post_edges_cap(self):
        graph = gnd(30, 4.0, seed=1)
        partition = partition_disjoint(graph, 3, seed=3)
        rt = BlackboardRuntime(make_players(partition), SharedRandomness(2))
        posted = rt.post_edges_in_turns(
            harvest=lambda p: sorted(p.edges),
            per_edge_bits=edge_bits(30),
            cap=5,
        )
        assert len(posted) == 5

    def test_empty_players_rejected(self):
        with pytest.raises(ValueError):
            BlackboardRuntime([])

    def test_board_rows_track_posted_edges(self):
        rt = BlackboardRuntime(three_players(), SharedRandomness(1))
        rt.post_edges_in_turns(
            harvest=lambda p: sorted(p.edges), per_edge_bits=4
        )
        assert rt.board_rows[0] >> 1 & 1  # (0, 1) posted
        assert rt.board_rows[1] >> 0 & 1  # symmetric bit
        assert not rt.board_rows[7]

    def test_rows_form_matches_edge_form(self):
        """post_rows_in_turns == post_edges_in_turns on sorted harvests."""
        graph = gnd(40, 5.0, seed=8)
        from repro.graphs.partition import partition_with_duplication

        partition = partition_with_duplication(graph, 4, seed=9)
        for cap in (None, 0, 7, 10 ** 6):
            edge_rt = BlackboardRuntime(
                make_players(partition), SharedRandomness(2)
            )
            posted_edges = edge_rt.post_edges_in_turns(
                harvest=lambda p: p.sorted_edges(),
                per_edge_bits=edge_bits(40), cap=cap,
            )
            rows_rt = BlackboardRuntime(
                make_players(partition), SharedRandomness(2)
            )
            posted_rows = rows_rt.post_rows_in_turns(
                harvest_rows=lambda p: p.adjacency_rows(),
                per_edge_bits=edge_bits(40), cap=cap,
            )
            assert set(posted_rows) == posted_edges
            assert rows_rt.board == edge_rt.board  # same payload order
            assert rows_rt.board_rows == edge_rt.board_rows
            assert rows_rt.ledger.summary() == edge_rt.ledger.summary()

    def test_rows_and_edge_forms_match_set_reference(self):
        """Both forms are pinned to the pre-rows set-dedup loop."""
        from repro.comm.reference import post_edges_in_turns_reference
        from repro.graphs.partition import partition_with_duplication

        graph = gnd(35, 4.0, seed=10)
        partition = partition_with_duplication(graph, 3, seed=11)
        for cap in (None, 5, 11):
            ref_rt = BlackboardRuntime(
                make_players(partition), SharedRandomness(3)
            )
            ref_posted = post_edges_in_turns_reference(
                ref_rt, lambda p: p.sorted_edges(),
                per_edge_bits=edge_bits(35), cap=cap,
            )
            new_rt = BlackboardRuntime(
                make_players(partition), SharedRandomness(3)
            )
            new_posted = new_rt.post_edges_in_turns(
                harvest=lambda p: p.sorted_edges(),
                per_edge_bits=edge_bits(35), cap=cap,
            )
            assert new_posted == ref_posted
            assert new_rt.board == ref_rt.board
            assert new_rt.ledger.summary() == ref_rt.ledger.summary()


class TestBlackboardCapHandling:
    """Edge cases of the global posted-edge cap (PR 4 satellite)."""

    def _partition(self):
        graph = gnd(30, 4.0, seed=1)
        from repro.graphs.partition import partition_all_to_all

        return partition_all_to_all(graph, 3), graph

    def test_cap_zero_posts_nothing_and_charges_nothing(self):
        partition, _ = self._partition()
        rt = BlackboardRuntime(make_players(partition), SharedRandomness(2))
        posted = rt.post_edges_in_turns(
            harvest=lambda p: p.sorted_edges(),
            per_edge_bits=edge_bits(30), cap=0,
        )
        assert posted == set()
        assert rt.ledger.total_bits == 0
        assert rt.ledger.rounds == 0
        assert rt.board == []

    def test_cap_hit_on_player_boundary_stops_all_charges(self):
        """Players after the cap-filling one are not charged a round."""
        partition, _ = self._partition()
        first_view = sorted(make_players(partition)[0].edges)
        cap = len(first_view)  # player 0 fills the cap exactly
        rt = BlackboardRuntime(make_players(partition), SharedRandomness(2))
        posted = rt.post_edges_in_turns(
            harvest=lambda p: p.sorted_edges(),
            per_edge_bits=edge_bits(30), cap=cap,
        )
        assert len(posted) == cap
        assert rt.ledger.rounds == 1  # only player 0's post
        assert [pid for pid, _ in rt.board] == [0]

    def test_duplicate_heavy_harvest_charges_distinct_edges_only(self):
        """In-harvest duplicates are neither charged nor cap-counted."""
        players = three_players()
        rt = BlackboardRuntime(players, SharedRandomness(2))
        noisy = lambda p: [  # noqa: E731 - tiny stub harvest
            (0, 1), (0, 1), (1, 2), (0, 1), (1, 2)
        ]
        posted = rt.post_edges_in_turns(
            harvest=noisy, per_edge_bits=8, cap=2,
        )
        assert posted == {(0, 1), (1, 2)}
        # One round (player 0 posts both distinct edges), 2 * 8 bits —
        # the historical loop would have truncated at the duplicate and
        # charged it.
        assert rt.ledger.rounds == 1
        assert rt.ledger.total_bits == 16

    def test_zero_fresh_players_are_never_charged(self):
        partition, graph = self._partition()
        rt = BlackboardRuntime(make_players(partition), SharedRandomness(2))
        rt.post_edges_in_turns(
            harvest=lambda p: p.sorted_edges(),
            per_edge_bits=edge_bits(30),
        )
        # All-to-all duplication: players 1 and 2 have nothing fresh.
        assert rt.ledger.rounds == 1
        assert rt.ledger.player_bits(1) == 0
        assert rt.ledger.player_bits(2) == 0
        assert rt.ledger.total_bits == graph.num_edges * edge_bits(30)
