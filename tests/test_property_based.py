"""Property-based tests (hypothesis) for core data structures & invariants."""


from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comm.encoding import (
    bits_for_universe,
    edge_bits,
    elias_gamma_bits,
    vertex_bits,
)
from repro.comm.players import Player
from repro.comm.randomness import SharedRandomness
from repro.graphs.buckets import bucket_bounds, bucket_index
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_disjoint
from repro.graphs.triangles import (
    count_triangles,
    find_triangle,
    greedy_triangle_packing,
    is_triangle_free,
    make_triangle_free_by_removal,
    packing_distance_lower_bound,
)
from repro.lowerbounds.boolean_matching import (
    BMInstance,
    bm_product,
    reduction_graph,
)
from repro.lowerbounds.information import bernoulli_kl, lemma_4_3_lower_bound


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible))
    )
    return Graph(n, edges)


@st.composite
def bm_instances(draw, max_n: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    x = tuple(draw(st.integers(0, 1)) for _ in range(2 * n))
    indices = draw(st.permutations(range(2 * n)))
    matching = tuple(
        (min(indices[2 * i], indices[2 * i + 1]),
         max(indices[2 * i], indices[2 * i + 1]))
        for i in range(n)
    )
    w = tuple(draw(st.integers(0, 1)) for _ in range(n))
    return BMInstance(x=x, matching=matching, w=w)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
class TestEncodingProperties:
    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_universe_bits_sufficient(self, size):
        assert 2 ** bits_for_universe(size) >= size

    @given(st.integers(min_value=2, max_value=10 ** 6))
    def test_edge_is_twice_vertex(self, n):
        assert edge_bits(n) == 2 * vertex_bits(n)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_elias_gamma_self_delimiting_length(self, value):
        assert elias_gamma_bits(value) == 2 * value.bit_length() - 1


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(graphs())
    def test_handshake_lemma(self, graph):
        assert sum(graph.degrees()) == 2 * graph.num_edges

    @given(graphs())
    def test_edges_canonical(self, graph):
        for u, v in graph.edges():
            assert u < v
            assert graph.has_edge(v, u)

    @given(graphs())
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @given(graphs(), st.integers(min_value=0, max_value=11))
    def test_neighbors_symmetric(self, graph, v):
        assume(v < graph.n)
        for u in graph.neighbors(v):
            assert v in graph.neighbors(u)

    @given(graphs())
    def test_average_degree_formula(self, graph):
        assert graph.average_degree() == 2 * graph.num_edges / graph.n


# ----------------------------------------------------------------------
# Triangles and farness
# ----------------------------------------------------------------------
class TestTriangleProperties:
    @given(graphs())
    def test_find_consistent_with_count(self, graph):
        assert (find_triangle(graph) is None) == (
            count_triangles(graph) == 0
        )

    @given(graphs())
    def test_found_triangle_is_real(self, graph):
        triangle = find_triangle(graph)
        if triangle is not None:
            a, b, c = triangle
            assert graph.has_edge(a, b)
            assert graph.has_edge(a, c)
            assert graph.has_edge(b, c)

    @given(graphs())
    def test_packing_at_most_triangle_count(self, graph):
        assert len(greedy_triangle_packing(graph)) <= count_triangles(graph)

    @given(graphs())
    def test_packing_lower_bounds_removal(self, graph):
        lower = packing_distance_lower_bound(graph)
        _, upper = make_triangle_free_by_removal(graph)
        assert lower <= upper

    @given(graphs())
    def test_removal_produces_free_graph(self, graph):
        free, _ = make_triangle_free_by_removal(graph)
        assert is_triangle_free(free)

    @given(graphs())
    def test_removal_upper_at_most_3x_packing(self, graph):
        # Maximality: each removed edge kills >= 1 packed triangle's worth;
        # greedy packing is a 3-approx, so upper <= 3 * |max packing| and
        # |max packing| <= 3 * greedy.  The crude safe bound: upper bounded
        # by triangle-edge count.
        _, upper = make_triangle_free_by_removal(graph)
        from repro.graphs.triangles import triangle_edges

        assert upper <= len(triangle_edges(graph))


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
class TestBucketProperties:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_bucket_bounds_contain_degree(self, degree):
        index = bucket_index(degree)
        low, high = bucket_bounds(index)
        if degree == 0:
            assert index == 0
        else:
            assert low <= degree < high

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_bucket_index_monotone(self, degree):
        assert bucket_index(degree) <= bucket_index(degree + 1)


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @given(graphs(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=100))
    def test_disjoint_partition_covers_exactly(self, graph, k, seed):
        partition = partition_disjoint(graph, k, seed=seed)
        union = set()
        total = 0
        for view in partition.views:
            union.update(view)
            total += len(view)
        assert union == graph.edge_set()
        assert total == graph.num_edges

    @given(graphs(), st.integers(min_value=1, max_value=4))
    def test_player_views_are_subsets(self, graph, k):
        partition = partition_disjoint(graph, k, seed=0)
        players = [
            Player(j, Graph(graph.n, view))
            for j, view in enumerate(partition.views)
        ]
        for player in players:
            for u, v in player.edges:
                assert graph.has_edge(u, v)


# ----------------------------------------------------------------------
# Shared randomness
# ----------------------------------------------------------------------
class TestRandomnessProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=50))
    def test_permutation_rank_total_order(self, seed, universe):
        rank = SharedRandomness(seed).permutation_rank(universe)
        values = [rank(i) for i in range(universe)]
        assert len(set(values)) == universe

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25)
    def test_bernoulli_predicate_deterministic(self, seed, p):
        pred_a = SharedRandomness(seed).bernoulli_predicate(p, tag=1)
        pred_b = SharedRandomness(seed).bernoulli_predicate(p, tag=1)
        assert [pred_a(i) for i in range(50)] == [
            pred_b(i) for i in range(50)
        ]


# ----------------------------------------------------------------------
# Information theory
# ----------------------------------------------------------------------
class TestInformationProperties:
    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=0.001, max_value=0.499),
    )
    def test_lemma_4_3_universal(self, q, p):
        assert bernoulli_kl(q, p) >= lemma_4_3_lower_bound(q, p) - 1e-9

    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_kl_non_negative(self, q, p):
        assert bernoulli_kl(q, p) >= -1e-12

    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_kl_zero_iff_equal(self, p):
        assert bernoulli_kl(p, p) == 0.0


# ----------------------------------------------------------------------
# Boolean matching reduction
# ----------------------------------------------------------------------
class TestBMProperties:
    @given(bm_instances())
    @settings(max_examples=40)
    def test_triangle_count_equals_zero_positions(self, instance):
        graph, _, _ = reduction_graph(instance)
        zeros = sum(1 for bit in bm_product(instance) if bit == 0)
        assert count_triangles(graph) == zeros

    @given(bm_instances())
    @settings(max_examples=40)
    def test_packing_equals_zero_positions(self, instance):
        # Gadget triangles are edge-disjoint across gadgets.
        graph, _, _ = reduction_graph(instance)
        zeros = sum(1 for bit in bm_product(instance) if bit == 0)
        assert len(greedy_triangle_packing(graph)) == zeros

    @given(bm_instances())
    @settings(max_examples=40)
    def test_alice_bob_cover(self, instance):
        graph, alice, bob = reduction_graph(instance)
        assert alice | bob == graph.edge_set()
