"""The kernel harvest ``edges_touching`` and the key dedupe ``sorted_unique``.

``MaskKernel.edges_touching(R, RS)`` answers both player harvests:
``edges_touching_both_mask(R, RS)`` and ``edges_within_mask(S)`` (as
``edges_touching(S, S)``).  bigint and packed run the row loop
:func:`~repro.graphs.kernels.base.edges_touching_rows`; csr gathers from
its index arrays.  The csr form is pinned here to that row loop on a
bigint twin and to the set-based ``SetPlayer`` oracle, over nested,
disjoint, overlapping and equal vertex sets, empty sets, vertex counts
that are not a multiple of 8, and csr views with a pending overlay.

``sorted_unique`` is pinned to ``np.unique`` on the inputs a sort plus a
neighbour mask could get wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm.players import Player
from repro.comm.reference import SetPlayer
from repro.graphs.graph import Graph, mask_of
from repro.graphs.kernels.base import edges_touching_rows, sorted_unique

# Neither is a multiple of 8; 70 also crosses the packed kernel's
# 64-bit word boundary.
SIZES = (13, 70)


@st.composite
def harvest_case(draw):
    """A graph as canonical edges, plus R and RS vertex sets.

    ``relation`` picks how RS relates to R: drawn independently, a
    superset (nested), disjoint, sharing a forced common part, or
    equal (the induced-subgraph harvest).
    """
    n = draw(st.sampled_from(SIZES))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    a = draw(st.sets(vertex))
    b = draw(st.sets(vertex))
    relation = draw(st.sampled_from(
        ["random", "nested", "disjoint", "overlapping", "equal"]
    ))
    if relation == "random":
        r, rs = a, b
    elif relation == "nested":
        r, rs = a, a | b
    elif relation == "disjoint":
        r, rs = a, b - a
    elif relation == "overlapping":
        common = draw(st.sets(vertex, min_size=1))
        r, rs = a | common, b | common
    else:
        r, rs = a, a
    return n, edges, r, rs


def graphs_on_every_backend(n: int, edges) -> dict[str, Graph]:
    lo = np.array([u for u, _ in edges], dtype=np.int64)
    hi = np.array([v for _, v in edges], dtype=np.int64)
    return {
        backend: Graph.from_edge_arrays(n, lo, hi, backend=backend)
        for backend in ("bigint", "packed", "csr")
    }


def expected_touching(n, edges, r, rs) -> list:
    return SetPlayer(0, n, edges).edges_touching_both_mask(
        mask_of(r), mask_of(rs)
    )


class TestCsrHarvestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(harvest_case())
    def test_touching_both_agrees(self, case):
        n, edges, r, rs = case
        r_mask, rs_mask = mask_of(r), mask_of(rs)
        expected = expected_touching(n, edges, r, rs)
        graphs = graphs_on_every_backend(n, edges)
        row_loop = edges_touching_rows(
            graphs["bigint"].kernel.row, r_mask, rs_mask
        )
        assert row_loop == expected
        for graph in graphs.values():
            harvest = Player(0, graph).edges_touching_both_mask(
                r_mask, rs_mask
            )
            assert harvest == expected
            assert all(type(u) is int and type(v) is int
                       for u, v in harvest)

    @settings(max_examples=100, deadline=None)
    @given(harvest_case())
    def test_within_agrees(self, case):
        n, edges, sample, _ = case
        s_mask = mask_of(sample)
        expected = SetPlayer(0, n, edges).edges_within_mask(s_mask)
        graphs = graphs_on_every_backend(n, edges)
        assert edges_touching_rows(
            graphs["bigint"].kernel.row, s_mask, s_mask
        ) == expected
        for graph in graphs.values():
            assert Player(0, graph).edges_within_mask(s_mask) == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_empty_sets(self, n):
        edges = [(u, u + 1) for u in range(n - 1)]
        everything = (1 << n) - 1
        for graph in graphs_on_every_backend(n, edges).values():
            player = Player(0, graph)
            assert player.edges_touching_both_mask(0, everything) == []
            assert player.edges_touching_both_mask(everything, 0) == []
            assert player.edges_touching_both_mask(0, 0) == []
            assert player.edges_within_mask(0) == []
            assert player.edges_within_mask(everything) == edges

    def test_empty_graph(self):
        for graph in graphs_on_every_backend(13, []).values():
            assert graph.kernel.edges_touching(0b111, 0b1111) == []

    @settings(max_examples=60, deadline=None)
    @given(harvest_case(), st.data())
    def test_csr_view_with_pending_overlay(self, case, data):
        n, edges, r, rs = case
        csr = graphs_on_every_backend(n, edges)["csr"]
        vertex = st.integers(min_value=0, max_value=n - 1)
        ops = data.draw(st.lists(
            st.tuples(st.booleans(), vertex, vertex), min_size=1,
            max_size=30,
        ))
        current = set(edges)
        for add, u, v in ops:
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if add:
                csr.add_edge(*edge)
                current.add(edge)
            else:
                csr.remove_edge(*edge)
                current.discard(edge)
        current = sorted(current)
        player = Player(0, csr)
        assert player.edges_touching_both_mask(
            mask_of(r), mask_of(rs)
        ) == expected_touching(n, current, r, rs)
        # The overlay is folded in, so a second harvest after more
        # point writes still sees every edge.
        csr.add_edge(0, n - 1)
        current = sorted(set(current) | {(0, n - 1)})
        assert player.edges_within_mask(mask_of(r)) == SetPlayer(
            0, n, current
        ).edges_within_mask(mask_of(r))

    def test_overlay_is_pending_before_the_harvest(self):
        edges = [(0, 1), (1, 2), (2, 3), (5, 9)]
        csr = graphs_on_every_backend(13, edges)["csr"]
        csr.add_edge(3, 12)
        csr.remove_edge(1, 2)
        assert csr.kernel._added and csr.kernel._removed
        assert Player(0, csr).edges_touching_both_mask(
            mask_of([1, 3]), mask_of(range(13))
        ) == [(0, 1), (2, 3), (3, 12)]


INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(INT64, max_size=300))
    @example([])
    @example([7])
    @example([5, 5, 5, 5])
    @example([-3, 0, 4, 10, 1 << 40])
    @example([(1 << 63) - 1, -(1 << 63), (1 << 63) - 1])
    def test_equals_np_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        before = keys.copy()
        got = sorted_unique(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(keys))
        assert np.array_equal(keys, before)  # the input is not sorted in place

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2000),
           st.integers(min_value=1, max_value=5000),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_edge_keys(self, size, spread, seed):
        keys = np.random.default_rng(seed).integers(0, spread, size=size)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_read_only_input(self):
        keys = np.array([4, 1, 4, 2], dtype=np.int64)
        keys.flags.writeable = False
        assert sorted_unique(keys).tolist() == [1, 2, 4]
