"""Unit tests for shared public randomness (repro.comm.randomness)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import randomness
from repro.comm.randomness import SharedRandomness


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = SharedRandomness(42)
        b = SharedRandomness(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seed_differs(self):
        a = SharedRandomness(1)
        b = SharedRandomness(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = SharedRandomness(7).fork(3)
        b = SharedRandomness(7).fork(3)
        assert a.random() == b.random()

    def test_fork_tags_independent(self):
        base = SharedRandomness(7)
        assert base.fork(1).random() != base.fork(2).random()


class TestPermutationRank:
    def test_all_parties_agree(self):
        a = SharedRandomness(5)
        b = SharedRandomness(5)
        rank_a = a.permutation_rank(100, tag=1)
        rank_b = b.permutation_rank(100, tag=1)
        for item in range(100):
            assert rank_a(item) == rank_b(item)

    def test_ranks_distinct(self):
        rank = SharedRandomness(5).permutation_rank(50)
        values = [rank(i) for i in range(50)]
        assert len(set(values)) == 50

    def test_min_is_roughly_uniform(self):
        # The item with minimal rank over repeated permutations should be
        # close to uniform; crude chi-square-free sanity check.
        counts = {i: 0 for i in range(10)}
        shared = SharedRandomness(9)
        for tag in range(600):
            rank = shared.permutation_rank(10, tag=tag)
            winner = min(range(10), key=rank)
            counts[winner] += 1
        for count in counts.values():
            assert 20 <= count <= 130  # expectation 60

    def test_out_of_universe_rejected(self):
        rank = SharedRandomness(0).permutation_rank(10)
        with pytest.raises(ValueError):
            rank(10)
        with pytest.raises(ValueError):
            rank(-1)


class TestPermutationRankArrays:
    """A rank call takes an int or an int64 array; both forms agree."""

    def test_array_matches_scalars(self):
        rank = SharedRandomness(3).permutation_rank(1000, tag=2)
        items = np.array([0, 999, 17, 512, 17])
        ranks = rank(items)
        assert ranks.dtype == np.uint64 and ranks.shape == items.shape
        assert ranks.tolist() == [rank(int(i)) for i in items]
        assert all(type(rank(int(i))) is int for i in items)
        assert rank(np.empty(0, dtype=np.int64)).size == 0

    def test_numpy_integer_scalars_accepted(self):
        rank = SharedRandomness(3).permutation_rank(1000)
        assert rank(np.int64(42)) == rank(42)

    @pytest.mark.parametrize("bad", [[3, 10], [-1, 3], [2**40]])
    def test_out_of_universe_array_rejected(self, bad):
        rank = SharedRandomness(0).permutation_rank(10)
        with pytest.raises(ValueError, match="outside universe"):
            rank(np.array(bad, dtype=np.int64))

    def test_universe_must_fit_int64(self):
        SharedRandomness(0).permutation_rank(2**63)
        with pytest.raises(ValueError):
            SharedRandomness(0).permutation_rank(2**63 + 1)

    def test_main_stream_advances_one_nonce_per_factory(self):
        """Each coin factory consumes exactly one 48-bit nonce, so every
        later draw keeps its value."""
        shared = SharedRandomness(7)
        shared.permutation_rank(10, tag=1)
        shared.bernoulli_predicate(0.5, tag=2)
        reference = random.Random(7)
        reference.getrandbits(48)
        reference.getrandbits(48)
        assert shared.random() == reference.random()


def _chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


#: Upper 1e-3 quantile of chi-square with 19 degrees of freedom,
#: ``scipy.stats.chi2.isf(1e-3, 19)``.
CHI2_19_CRITICAL_1E3 = 43.8202


def _binomial_two_sided_p(hits: int, trials: int, p: float) -> float:
    """Exact two-sided binomial p-value: the mass of outcomes no more
    likely than ``hits``."""
    log_p, log_q = math.log(p), math.log1p(-p)
    lg = math.lgamma

    def log_pmf(i):
        return (lg(trials + 1) - lg(i + 1) - lg(trials - i + 1)
                + i * log_p + (trials - i) * log_q)

    observed = log_pmf(hits) + 1e-9
    return min(1.0, sum(
        math.exp(lp) for lp in map(log_pmf, range(trials + 1))
        if lp <= observed
    ))


class TestCoinStatistics:
    """Distributional checks of the counter-based coins at fixed seeds,
    each at significance 1e-3."""

    TAGS = 4000

    @pytest.mark.parametrize("items", [
        list(range(20)),                       # consecutive counters
        [2**k for k in range(20)],             # one bit each
        [7 + 4099 * i for i in range(20)],     # spread over the universe
    ])
    def test_argmin_winner_uniform(self, items):
        candidates = np.array(items, dtype=np.int64)
        shared = SharedRandomness(2024)
        counts = [0] * len(items)
        for tag in range(self.TAGS):
            rank = shared.permutation_rank(2**20, tag=tag)
            counts[int(np.argmin(rank(candidates)))] += 1
        statistic = _chi_square(counts, self.TAGS / len(items))
        assert statistic < CHI2_19_CRITICAL_1E3, counts

    @pytest.mark.parametrize("p", [0.01, 0.25, 0.5])
    def test_predicate_hit_rate_binomial(self, p):
        trials = 20_000
        pred = SharedRandomness(31).bernoulli_predicate(p, tag=3)
        hits = int(pred(np.arange(trials)).sum())
        assert _binomial_two_sided_p(hits, trials, p) > 1e-3, hits

    def test_ranks_distinct_over_2_16_universe(self):
        universe = 2**16
        for tag in range(3):
            rank = SharedRandomness(tag).permutation_rank(universe, tag=tag)
            assert np.unique(rank(np.arange(universe))).size == universe

    def test_scalar_and_array_players_agree(self):
        """One player calls with scalars, another with an array: same
        ranks, same predicate bits, same argmin."""
        items = [5, 900, 33, 4096, 77, 1234]
        scalar_side, array_side = SharedRandomness(8), SharedRandomness(8)
        rank_s = scalar_side.permutation_rank(5000, tag=4)
        rank_a = array_side.permutation_rank(5000, tag=4)
        pred_s = scalar_side.bernoulli_predicate(0.4, tag=4)
        pred_a = array_side.bernoulli_predicate(0.4, tag=4)
        array = np.array(items)
        assert [rank_s(i) for i in items] == rank_a(array).tolist()
        assert min(items, key=rank_s) == items[int(np.argmin(rank_a(array)))]
        assert [pred_s(i) for i in items] == pred_a(array).tolist()
        assert all(type(pred_s(i)) is bool for i in items)

    def test_predicate_endpoints_exact(self):
        items = np.arange(-50, 5000)
        assert SharedRandomness(1).bernoulli_predicate(1.0)(items).all()
        assert not SharedRandomness(1).bernoulli_predicate(0.0)(items).any()

    def test_predicate_negative_items_agree(self):
        pred = SharedRandomness(9).bernoulli_predicate(0.5)
        items = np.arange(-300, 300)
        assert pred(items).tolist() == [pred(int(i)) for i in items]


class TestBernoulliSubset:
    def test_probability_zero_empty(self):
        assert SharedRandomness(1).bernoulli_subset(100, 0.0) == set()

    def test_probability_one_full(self):
        assert SharedRandomness(1).bernoulli_subset(10, 1.0) == set(range(10))

    def test_expected_size(self):
        sample = SharedRandomness(3).bernoulli_subset(10_000, 0.1)
        assert 800 <= len(sample) <= 1200

    def test_members_in_universe(self):
        sample = SharedRandomness(3).bernoulli_subset(50, 0.5)
        assert all(0 <= item < 50 for item in sample)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(0).bernoulli_subset(10, 1.5)


class TestBernoulliPredicate:
    def test_parties_agree(self):
        a = SharedRandomness(11)
        b = SharedRandomness(11)
        pred_a = a.bernoulli_predicate(0.3, tag=5)
        pred_b = b.bernoulli_predicate(0.3, tag=5)
        assert [pred_a(i) for i in range(200)] == [
            pred_b(i) for i in range(200)
        ]

    def test_hit_rate_close_to_p(self):
        pred = SharedRandomness(13).bernoulli_predicate(0.25)
        hits = sum(pred(i) for i in range(4000))
        assert 800 <= hits <= 1200

    def test_extreme_probabilities(self):
        always = SharedRandomness(0).bernoulli_predicate(1.0)
        never = SharedRandomness(0).bernoulli_predicate(0.0)
        assert all(always(i) for i in range(20))
        assert not any(never(i) for i in range(20))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(0).bernoulli_predicate(-0.1)


class TestSampling:
    def test_without_replacement_size(self):
        sample = SharedRandomness(2).sample_without_replacement(100, 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_oversized_count_clamped(self):
        sample = SharedRandomness(2).sample_without_replacement(5, 50)
        assert sorted(sample) == [0, 1, 2, 3, 4]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(2).sample_without_replacement(5, -1)

    def test_shuffled_preserves_items(self):
        shuffled = SharedRandomness(4).shuffled(range(20))
        assert sorted(shuffled) == list(range(20))

    def test_choice_and_randrange(self):
        shared = SharedRandomness(6)
        assert shared.randrange(10) in range(10)
        assert shared.choice([5, 6, 7]) in (5, 6, 7)


class _Pinned(SharedRandomness):
    """A stream whose mask draws run under a fixed size threshold:
    ``math.inf`` pins the scalar path, ``0`` the numpy path."""

    def __init__(self, seed: int, threshold: float) -> None:
        super().__init__(seed)
        self._threshold = threshold

    def bernoulli_subset_mask(self, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randomness, "_VECTOR_MIN_EXPECTED", self._threshold)
            return super().bernoulli_subset_mask(*args, **kwargs)


class TestVectorizedEquivalence:
    """The numpy-backed mask path is draw-identical to the scalar one.

    Byte-identity of batched runs rests on this: whichever representation
    a stream uses, every mask and every subsequent main-stream draw must
    match the scalar reference bit for bit.
    """

    UNIVERSES = [0, 1, 7, 100, 2000, 4093]
    PROBABILITIES = [0.0, 1e-12, 0.001, 0.05, 0.3, 0.9, 0.999999, 1.0]

    def _pair(self, seed):
        return _Pinned(seed, math.inf), SharedRandomness(seed)

    def test_masks_identical_across_representations(self):
        for seed in (0, 1, 17):
            scalar, vector = self._pair(seed)
            for universe in self.UNIVERSES:
                for p in self.PROBABILITIES:
                    assert scalar.bernoulli_subset_mask(
                        universe, p, tag=3
                    ) == vector.bernoulli_subset_mask(universe, p, tag=3)

    def test_closed_forms_skip_vectorization(self):
        scalar, vector = self._pair(5)
        assert vector.bernoulli_subset_mask(64, 0.0, tag=1) == 0
        assert vector.bernoulli_subset_mask(64, 1.0, tag=1) == (1 << 64) - 1
        assert scalar.bernoulli_subset_mask(64, 1.0, tag=1) == (1 << 64) - 1

    def test_denormal_probability(self):
        scalar, vector = self._pair(9)
        p = 5e-324  # smallest positive double: log1p(-p) == 0.0
        assert scalar.bernoulli_subset_mask(10**6, p, tag=2) == 0
        assert vector.bernoulli_subset_mask(10**6, p, tag=2) == 0

    def test_forced_vector_path_matches_scalar(self):
        """Below-threshold draws take the scalar branch by default; force
        the vector branch to prove equivalence there too."""
        for seed in (0, 3):
            scalar = _Pinned(seed, math.inf)
            vector = _Pinned(seed, 0)
            for universe in (1, 13, 200):
                for p in (0.001, 0.4, 0.97):
                    assert scalar.bernoulli_subset_mask(
                        universe, p, tag=7
                    ) == vector.bernoulli_subset_mask(universe, p, tag=7)

    def test_main_stream_order_unaffected(self):
        """Tagged mask draws must not perturb the main stream, whichever
        backend produced them."""
        scalar, vector = self._pair(11)
        a = scalar.random()
        scalar.bernoulli_subset_mask(4000, 0.3, tag=1)
        vector.random()
        vector.bernoulli_subset_mask(4000, 0.3, tag=1)
        assert scalar.random() == vector.random()
        assert a == SharedRandomness(11).random()

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        universe=st.integers(min_value=1, max_value=5000),
        p=st.floats(min_value=1e-9, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorized_scalar_equivalence(self, seed, universe, p):
        scalar = _Pinned(seed, math.inf)
        vector = SharedRandomness(seed)
        assert scalar.bernoulli_subset_mask(
            universe, p, tag=2
        ) == vector.bernoulli_subset_mask(universe, p, tag=2)
