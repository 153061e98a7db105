"""Shared (public) randomness for multiparty protocols.

The paper assumes the players and coordinator share a public random string:
sampling decisions are made by "interpreting the public bits" and cost zero
communication.  :class:`SharedRandomness` models that string as a seeded PRNG
that every party holds a reference to.  All sampling primitives the protocols
need — permutations over the vertex set, Bernoulli vertex samples, ranked
orders over potential edges — live here so that players provably agree on
them without exchanging bits.

Determinism contract: two ``SharedRandomness`` instances created with the
same seed produce identical sample sequences, which is what makes protocol
runs reproducible end to end.

Two kinds of coins honour that contract.

**Counter-based coins** (:meth:`SharedRandomness.permutation_rank`,
:meth:`SharedRandomness.bernoulli_predicate`) are pure functions of
``(key, item)``: each factory call derives one 64-bit key from the main
stream, and an item's coin is the SplitMix64 finaliser (Steele, Lea &
Flood, OOPSLA 2014) applied to ``key ^ item``.  Nothing is seeded per
item, so a player evaluates any subset of a huge universe in time
proportional to that subset.  The returned callable takes either one
``int`` or an integer ``numpy`` array; both run the same mixer code
(:func:`_mix64`), on a Python int or elementwise on ``uint64`` words, so
a player ranking its whole candidate set in one array call agrees bit
for bit with a coordinator ranking a single item.

**Stream draws** (subsets, samples, shuffles) seed a ``random.Random``
sub-stream from the main stream, once per call.  Subset draws have two
execution paths:

* the **scalar** reference path draws one index at a time from
  ``random.Random`` (the historical implementation);
* the **vectorized** path transplants the very same MT19937 state into a
  ``numpy.random.RandomState`` — both generators build 53-bit doubles
  from identical word pairs — and replays the geometric-skipping
  recurrence as array operations.  Selected indices are equal element
  for element, so masks are byte-identical.

The path is chosen per draw by size: draws expected to select at least
``_VECTOR_MIN_EXPECTED`` indices amortize the state transplant and take
the numpy path, smaller ones take the scalar loop.

Every factory and draw advances the main stream by the same amount, so
the two kinds interleave without perturbing one another.  A protocol
builds its stream as ``SharedRandomness(seed)`` from the trial seed it
is called with; nothing else constructs coins for it.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterable, Iterator, Sequence

import numpy as _np

__all__ = ["SharedRandomness"]

#: Words in an MT19937 state vector (shared by random.Random and numpy).
_MT_STATE_WORDS = 624

#: Expected selected-index count below which the scalar loop beats the
#: numpy path (the state transplant costs a fixed ~tens of microseconds).
_VECTOR_MIN_EXPECTED = 128

# A large prime used to build per-call independent sub-streams from
# (seed, tag) pairs without materializing n! permutations.
_MIX_PRIME = 0x9E3779B97F4A7C15

_WORD_MASK = (1 << 64) - 1

#: Multipliers of the SplitMix64 finaliser (Stafford's "Mix13").
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

#: Largest universe a rank accepts: items must fit an int64 array.
_MAX_UNIVERSE = 1 << 63


def _mix64(z):
    """The SplitMix64 finaliser: a bijection on 64-bit words.

    ``z`` is a Python int in ``[0, 2^64)`` or a ``uint64`` array; the
    same operators evaluate both (array products wrap modulo 2^64, and
    the ``& _WORD_MASK`` does the same for ints), so the scalar and the
    array coin of an item are equal by construction.  Each step —
    xor-shift, odd multiply — is invertible, hence so is the whole map.
    """
    z = (z ^ (z >> 30)) * _MIX_C1 & _WORD_MASK
    z = (z ^ (z >> 27)) * _MIX_C2 & _WORD_MASK
    return z ^ (z >> 31)


def _mask_from_indices(indices: Iterable[int], universe_size: int) -> int:
    """Assemble a bitmask in a bytearray: O(universe) total, no
    O(universe²/word) repeated big-int shifts for dense index streams."""
    buffer = bytearray((universe_size >> 3) + 1)
    for index in indices:
        buffer[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(buffer, "little")


def _geometric_indices(local: random.Random, universe_size: int,
                       probability: float) -> Iterator[int]:
    """Geometric skipping over ``range(universe_size)``: expected O(p·n).

    ``probability`` must lie strictly in (0, 1); the caller handles the
    endpoints in closed form.
    """
    index = -1
    log_q = math.log1p(-probability)
    if log_q == 0.0:
        # probability is denormal-small: log1p underflows to -0.0; a gap
        # division by it would raise — and no gap that large fits any
        # finite universe, so nothing is selected.
        return
    while True:
        raw_gap = math.log(max(local.random(), 1e-300)) / log_q
        if raw_gap >= universe_size:
            # Covers float overflow to inf at tiny probabilities, where
            # an un-guarded int() would raise.
            return
        index += int(raw_gap) + 1
        if index >= universe_size:
            return
        yield index


def _numpy_stream(local: random.Random) -> "_np.random.RandomState":
    """A numpy RandomState continuing ``local``'s exact MT19937 stream.

    Both generators assemble doubles as ``((a >> 5) * 2^26 + (b >> 6)) /
    2^53`` from consecutive 32-bit outputs, so after the transplant
    ``stream.random_sample(k)`` equals ``[local.random()] * k`` draw for
    draw.  ``local`` itself is left untouched — callers only transplant
    throwaway sub-stream generators.
    """
    state = local.getstate()[1]
    stream = _np.random.RandomState()
    stream.set_state(
        ("MT19937",
         _np.asarray(state[:_MT_STATE_WORDS], dtype=_np.uint32),
         state[_MT_STATE_WORDS])
    )
    return stream


def _geometric_indices_array(local: random.Random, universe_size: int,
                             probability: float) -> "_np.ndarray":
    """:func:`_geometric_indices` as one vectorized pass, equal output.

    Uniform draws come in chunks from the transplanted stream; gaps,
    cumulative positions, and the two termination conditions (a gap at
    least the universe, or a position past it) are array expressions.
    Gap entries at or beyond the terminator carry clamped garbage, but
    the first terminator cuts them off before they are emitted —
    exactly where the scalar generator returns.
    """
    log_q = math.log1p(-probability)
    if log_q == 0.0:
        return _np.empty(0, dtype=_np.int64)
    stream = _numpy_stream(local)
    chunks: list["_np.ndarray"] = []
    index = -1
    # Expected draw count is ~p·n + 1; the first chunk covers it with
    # slack so one pass almost always suffices.
    chunk = max(32, int(probability * universe_size * 1.25) + 16)
    while True:
        raw = _np.log(
            _np.maximum(stream.random_sample(chunk), 1e-300)
        ) / log_q
        overshoot = raw >= universe_size
        steps = _np.where(
            overshoot, 1,
            _np.minimum(raw, universe_size).astype(_np.int64) + 1,
        )
        positions = index + _np.cumsum(steps)
        terminal = _np.nonzero(overshoot | (positions >= universe_size))[0]
        if terminal.size:
            chunks.append(positions[: terminal[0]])
            break
        chunks.append(positions)
        index = int(positions[-1])
        chunk = 64
    return chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)


def _mask_from_index_array(indices: "_np.ndarray", universe_size: int) -> int:
    """:func:`_mask_from_indices` for an index array: packbits assembly."""
    bits = _np.zeros(universe_size, dtype=_np.bool_)
    bits[indices] = True
    return int.from_bytes(
        _np.packbits(bits, bitorder="little").tobytes(), "little"
    )


class SharedRandomness:
    """Public-coin source shared by all parties of a protocol.

    Parameters
    ----------
    seed:
        Seed of the public random string.  Protocol executions with equal
        seeds are bitwise identical.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._draws = 0

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, tag: int) -> "SharedRandomness":
        """An independent public sub-stream labelled by ``tag``.

        Used when conceptually parallel sub-protocols (e.g. the ``O(log k)``
        simultaneous instances of Algorithm 11) must each see their own
        fresh public coins, agreed on by all players.
        """
        return SharedRandomness((self._seed * _MIX_PRIME + tag) & (2**63 - 1))

    # ------------------------------------------------------------------
    # Basic draws
    # ------------------------------------------------------------------
    def random(self) -> float:
        self._draws += 1
        return self._rng.random()

    def randrange(self, upper: int) -> int:
        self._draws += 1
        return self._rng.randrange(upper)

    def choice(self, items: Sequence[int]) -> int:
        self._draws += 1
        return self._rng.choice(items)

    # ------------------------------------------------------------------
    # Protocol-level primitives
    # ------------------------------------------------------------------
    def permutation_rank(self, universe_size: int, tag: int = 0):
        """A uniformly random total order over ``range(universe_size)``.

        Returns a callable ``rank(item)`` such that comparing ranks
        realizes a uniformly random permutation.  Every player evaluates
        the *same* function, so "the first element of my set under the
        public permutation" is consistent across players — exactly the
        trick Algorithm 1 (SampleUniformFromB~i) relies on.

        The rank of ``item`` is the 64-bit counter-based coin
        ``_mix64(key ^ item)``, with ``key`` drawn once per call.  Since
        ``item -> key ^ item`` and the mixer are both bijections on
        64-bit words, distinct items always get distinct ranks: no
        tie-break is needed, and the rank is a plain ``int``.

        ``rank`` accepts an ``int`` (returns an ``int``) or an integer
        ``numpy`` array (returns a ``uint64`` array of the same shape,
        equal elementwise to the scalar ranks), so a player ranks its
        whole candidate set with one call and an ``argmin``.  Any item
        outside the universe raises ``ValueError``, in either form.
        """
        if not 0 <= universe_size <= _MAX_UNIVERSE:
            raise ValueError(
                f"universe size must be in [0, 2^63], got {universe_size}"
            )
        key = self._coin_key(tag << 17)

        def rank(item):
            if isinstance(item, _np.ndarray):
                # Negative int64 items wrap above 2^63, past any universe.
                words = item.astype(_np.uint64)
                outside = words >= universe_size
                if outside.any():
                    raise ValueError(
                        f"item {item[outside][0]} outside universe of "
                        f"size {universe_size}"
                    )
                return _mix64(words ^ key)
            item = operator.index(item)
            if not 0 <= item < universe_size:
                raise ValueError(
                    f"item {item} outside universe of size {universe_size}"
                )
            return _mix64(key ^ item)

        return rank

    def _coin_key(self, salt: int) -> int:
        """The 64-bit key of one counter-based coin family.

        Consumes one nonce from the main stream, like every other
        primitive, so the draws that follow keep their values.
        """
        return _mix64(
            (self._seed * _MIX_PRIME + salt + self._next_nonce())
            & (2**63 - 1)
        )

    def _bernoulli_local(self, probability: float, tag: int) -> random.Random:
        """Main-stream draws (one draw + nonce) behind both subset forms.

        Called eagerly by either representation, so the set and mask
        forms are draw-for-draw interchangeable: later public sampling
        decisions are unaffected by which one a protocol used.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._draws += 1
        return random.Random(
            (self._seed * _MIX_PRIME + (tag << 21) + self._next_nonce())
            & (2**63 - 1)
        )

    def bernoulli_subset(self, universe_size: int, probability: float,
                         tag: int = 0) -> set[int]:
        """Include each of ``range(universe_size)`` independently w.p. ``p``.

        This is the public-coin "jointly generate a random set S ⊆ V" step
        used throughout Section 3.  All parties calling this with the same
        tag and draw order obtain the same set.
        """
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return set()
        if probability == 1.0:
            return set(range(universe_size))
        return set(_geometric_indices(local, universe_size, probability))

    def bernoulli_subset_mask(self, universe_size: int, probability: float,
                              tag: int = 0) -> int:
        """:meth:`bernoulli_subset` as a bitmask, identical draw order.

        The mask form the mask-native players harvest against.  The mask
        is assembled in a bytearray (O(universe) total) rather than by
        repeated ``|= 1 << i`` shifts (O(universe²/word) for dense
        samples), and the all/none endpoints are closed forms.
        """
        local = self._bernoulli_local(probability, tag)
        if probability == 0.0:
            return 0
        if probability == 1.0:
            return (1 << universe_size) - 1
        if probability * universe_size >= _VECTOR_MIN_EXPECTED:
            return _mask_from_index_array(
                _geometric_indices_array(local, universe_size, probability),
                universe_size,
            )
        return _mask_from_indices(
            _geometric_indices(local, universe_size, probability),
            universe_size,
        )

    def bernoulli_predicate(self, probability: float, tag: int = 0):
        """A public iid-Bernoulli(p) membership predicate over the integers.

        Returns ``pred(item)`` deciding whether ``item`` belongs to the
        public random sample, *without* materializing the sample.  All
        parties evaluating the predicate agree, so a player can check only
        the elements it cares about (e.g. its own incident edges in the
        Theorem 3.1 degree-approximation experiments) in time proportional
        to its own input — the trick that keeps public sampling free.

        An item is in the sample when the top 53 bits of its
        counter-based coin ``_mix64(key ^ item)``, read as ``u`` in
        ``[0, 1)``, fall below ``p``; the comparison is done on integers
        against ``ceil(p * 2^53)``, so ``p = 0`` and ``p = 1`` are exact.
        ``pred`` accepts an ``int`` (returns a ``bool``) or an integer
        ``numpy`` array (returns a boolean array); items are taken
        modulo 2^64.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        key = self._coin_key(tag << 19)
        threshold = math.ceil(probability * 2.0**53)

        def pred(item):
            if isinstance(item, _np.ndarray):
                return _mix64(item.astype(_np.uint64) ^ key) >> 11 < threshold
            return _mix64((key ^ operator.index(item)) & _WORD_MASK) >> 11 \
                < threshold

        return pred

    def sample_without_replacement(self, universe_size: int, count: int,
                                   tag: int = 0) -> list[int]:
        """A uniformly random ``count``-subset of ``range(universe_size)``.

        Used by Algorithm 7 ("a uniformly random set of vertices of size
        |S|").  ``count`` is clamped to the universe size — at reproduction
        scales the paper's sample-size formulas routinely exceed n, which
        simply means "take everything".
        """
        count = min(count, universe_size)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._draws += 1
        local = random.Random(
            (self._seed * _MIX_PRIME + (tag << 13) + self._next_nonce())
            & (2**63 - 1)
        )
        return local.sample(range(universe_size), count)

    def sample_without_replacement_mask(self, universe_size: int, count: int,
                                        tag: int = 0) -> int:
        """:meth:`sample_without_replacement` as a bitmask, same draws.

        Membership is all the mask-native harvests need, so the sampled
        order is folded away; the underlying draw sequence is identical
        to the list form.
        """
        return _mask_from_indices(
            self.sample_without_replacement(universe_size, count, tag),
            universe_size,
        )

    def shuffled(self, items: Iterable[int], tag: int = 0) -> list[int]:
        """A uniformly random ordering of ``items`` (public)."""
        self._draws += 1
        local = random.Random(
            (self._seed * _MIX_PRIME + (tag << 9) + self._next_nonce())
            & (2**63 - 1)
        )
        result = list(items)
        local.shuffle(result)
        return result

    def _next_nonce(self) -> int:
        # Advance the main stream so successive primitive calls are
        # independent while remaining reproducible.
        return self._rng.getrandbits(48)
