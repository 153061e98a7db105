"""Tests for the message-passing model and its coordinator equivalence."""

import pytest

from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.encoding import bits_for_universe
from repro.comm.ledger import CommunicationLedger
from repro.comm.messagepassing import (
    MessagePassingRecord,
    MessagePassingRuntime,
    coordinator_cost_of_transcript,
    message_passing_cost_of_coordinator_run,
    simulate_with_coordinator,
)
from repro.comm.players import Player
from repro.comm.randomness import SharedRandomness
from repro.graphs.graph import Graph


def players(k: int = 4, n: int = 10) -> list[Player]:
    return [Player(j, Graph(n, [(0, j + 1)] if j + 1 < n else [])) for j in range(k)]


class TestRecord:
    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            MessagePassingRecord(1, 1, "x", 4)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            MessagePassingRecord(0, 1, "x", -1)


class TestRuntime:
    def test_send_records(self):
        rt = MessagePassingRuntime(players())
        rt.send(0, 2, "hello", 5)
        rt.send(2, 1, "world", 7)
        assert rt.total_bits == 12
        assert rt.transcript[0].recipient == 2

    def test_bad_ids_rejected(self):
        rt = MessagePassingRuntime(players())
        with pytest.raises(ValueError):
            rt.send(0, 9, "x", 1)
        with pytest.raises(ValueError):
            rt.send(-1, 0, "x", 1)

    def test_empty_players_rejected(self):
        with pytest.raises(ValueError):
            MessagePassingRuntime([])


class TestToCoordinator:
    def test_overhead_is_log_k_per_message(self):
        k = 8
        rt = MessagePassingRuntime(players(k))
        rt.send(0, 1, "a", 10)
        rt.send(3, 7, "b", 20)
        cost = coordinator_cost_of_transcript(rt.transcript, k)
        routing = bits_for_universe(k)
        assert cost == (2 * 10 + routing) + (2 * 20 + routing)

    def test_simulation_ledger_matches_formula(self):
        k = 5
        rt = MessagePassingRuntime(players(k))
        rt.send(0, 1, "a", 9)
        rt.send(1, 4, "b", 3)
        ledger = simulate_with_coordinator(rt)
        assert ledger.total_bits == coordinator_cost_of_transcript(
            rt.transcript, k
        )
        assert ledger.rounds == 2

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            coordinator_cost_of_transcript([], k=1)

    def test_overhead_factor_bounded_by_log_k(self):
        # Section 2's claim: the simulation overhead is a factor <= ~log k
        # (plus the factor 2 from store-and-forward).
        k = 16
        rt = MessagePassingRuntime(players(k))
        for sender in range(k - 1):
            rt.send(sender, sender + 1, "x", 8)
        simulated = coordinator_cost_of_transcript(rt.transcript, k)
        assert simulated <= rt.total_bits * (2 + bits_for_universe(k))


class TestFromCoordinator:
    # Replaying a coordinator run point-to-point needs the per-message
    # transcript, which is opt-in on the aggregate-first ledger.
    def test_appointed_player_messages_free(self):
        rt = CoordinatorRuntime(
            players(3), SharedRandomness(1),
            ledger=CommunicationLedger(record_messages=True),
        )
        rt.collect(compute=lambda p: 0, response_bits=lambda _: 6)
        mp_cost = message_passing_cost_of_coordinator_run(
            rt.ledger, coordinator_player=0
        )
        # Player 0's own request+response become local: 2 x (1+6) saved...
        # requests are 1 bit each.
        assert mp_cost == rt.ledger.total_bits - 7

    def test_zero_overhead_direction(self):
        rt = CoordinatorRuntime(
            players(4), SharedRandomness(1),
            ledger=CommunicationLedger(record_messages=True),
        )
        rt.collect(compute=lambda p: 0, response_bits=lambda _: 5)
        mp_cost = message_passing_cost_of_coordinator_run(rt.ledger)
        assert mp_cost <= rt.ledger.total_bits
