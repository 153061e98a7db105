"""The word-packed mask kernel: a ``(n, ceil(n/64))`` uint64 matrix.

Row ``u`` stores N(u) as little-endian 64-bit words — bit ``v`` lives at
``word v >> 6``, position ``v & 63`` — so AND / OR / ANDNOT / popcount
run vectorized over the whole matrix, and (unlike a flat bignum) any
single bit is O(1) word-addressable:

    ``(A[a, b >> 6] >> (b & 63)) & 1``

That random-access probe is what the triangle natives exploit.  A plain
edge-AND sweep costs O(m · n/64) words on *either* kernel — CPython's
bignum ``&`` is already memory-bound C over 30-bit digits, so naive
numpy chunking wins nothing — but the wedge scan is a different
algorithm: extract the strictly-upper CSR, enumerate the pairs inside
each above-neighbourhood N⁺(u), and close each wedge with one gathered
single-word bit test.  Work drops to O(Σ deg⁺(u)²) word ops, which on
the sparse instances the paper cares about (d = O(1)) is ~d·m probes —
the measured ~10x at n = 10^5 that opens the scale regime ROADMAP asks
for.  Each triangle is counted exactly once, at its minimum vertex.

Natives (``count_triangles`` / ``greedy_triangle_packing`` /
``find_triangle``) return results identical to the generic int-row
algorithms in :mod:`repro.graphs.triangles` — same values, same order —
and return ``NotImplemented`` when the wedge-pair bound degrades past
the edge-AND bound (dense graphs), letting the dispatcher fall back to
the generic path instead of duplicating it here.

Popcounts use :func:`numpy.bitwise_count` when the installed numpy has
it, else an 8-bit lookup table over the byte view (same values, ~4x
slower, still vectorized).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graphs.kernels.base import (
    Edge,
    edges_touching_rows,
    register_kernel,
)

__all__ = [
    "PackedKernel", "pack_mask", "scatter_bits", "unpack_words", "word_rows",
]

# Feature flag split out so tests can force the LUT path.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# Little-endian word dtype: on little-endian hosts identical to the
# native uint64 (conversions are free views); spelled out so the
# int <-> words byte contract is explicit.
_LE_U64 = np.dtype("<u8")

# Wedge natives hand the work back to the generic edge-AND path once the
# pair count exceeds this multiple of the edge-AND word budget (m words
# per n/64-word row): the wedge scan only wins while neighbourhoods stay
# small.
_DENSE_FALLBACK_FACTOR = 4
# Closure probes are generated in batches of at most this many pairs to
# bound peak memory on skewed degree sequences.
_PAIR_BATCH = 1 << 22


def _popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (bitwise_count or LUT)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(arr)
    flat = np.ascontiguousarray(arr).view(np.uint8)
    return _POP8[flat].reshape(arr.shape + (8,)).sum(
        axis=-1, dtype=np.int64
    )


def _popcount_total(arr: np.ndarray) -> int:
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(arr).sum(dtype=np.int64))
    flat = np.ascontiguousarray(arr).view(np.uint8)
    return int(_POP8[flat].sum(dtype=np.int64))


def pack_mask(mask: int, words: int) -> np.ndarray:
    """A Python-int mask as ``words`` little-endian uint64 words."""
    if mask < 0:
        raise ValueError("masks are non-negative")
    raw = np.frombuffer(mask.to_bytes(words * 8, "little"), dtype=_LE_U64)
    return raw.astype(np.uint64)  # native byte order, writable


def unpack_words(words: np.ndarray) -> int:
    """The exact Python-int mask stored in little-endian uint64 words."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype=np.uint64)
        .astype(_LE_U64, copy=False)
        .tobytes(),
        "little",
    )


def word_rows(words: np.ndarray) -> list[int]:
    """Each row of a 2-D uint64 word matrix as its Python-int mask."""
    stride = words.shape[1] * 8
    raw = (
        np.ascontiguousarray(words)
        .astype(_LE_U64, copy=False)
        .tobytes()
    )
    return [
        int.from_bytes(raw[u * stride:(u + 1) * stride], "little")
        for u in range(words.shape[0])
    ]


def scatter_bits(words: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> None:
    """Set bit ``cols[i]`` of row ``rows[i]`` of a C-contiguous word
    matrix in place, with one ``bitwise_or.at``."""
    np.bitwise_or.at(
        words.reshape(-1),
        rows * words.shape[1] + (cols >> 6),
        np.uint64(1) << (cols & 63).astype(np.uint64),
    )


def _bits_of_words(words: np.ndarray) -> np.ndarray:
    """Set-bit positions of a 1-D word array, ascending (int64)."""
    nz = np.nonzero(words)[0]
    if nz.size == 0:
        return np.empty(0, dtype=np.int64)
    bits = np.unpackbits(
        words[nz].astype(_LE_U64, copy=False).view(np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    word_index, bit_index = np.nonzero(bits)
    return (nz[word_index].astype(np.int64) << 6) + bit_index


class PackedKernel:
    """Word-packed adjacency storage (see module docstring)."""

    name = "packed"

    __slots__ = ("_n", "_words", "_a")

    def __init__(self, n: int) -> None:
        self._n = n
        self._words = (n + 63) >> 6
        self._a = np.zeros((n, self._words), dtype=np.uint64)

    @property
    def n(self) -> int:
        return self._n

    # -- mutation ------------------------------------------------------
    def set_edge(self, u: int, v: int) -> bool:
        a = self._a
        wv, bv = v >> 6, np.uint64(1 << (v & 63))
        if a[u, wv] & bv:
            return False
        a[u, wv] |= bv
        a[v, u >> 6] |= np.uint64(1 << (u & 63))
        return True

    def clear_edge(self, u: int, v: int) -> bool:
        a = self._a
        wv, bv = v >> 6, np.uint64(1 << (v & 63))
        if not a[u, wv] & bv:
            return False
        a[u, wv] &= ~bv
        a[v, u >> 6] &= ~np.uint64(1 << (u & 63))
        return True

    def merge_row(self, u: int, mask: int) -> int:
        row = self._a[u]
        new = pack_mask(mask, self._words)
        np.bitwise_and(new, ~row, out=new)
        if not new.any():
            return 0
        np.bitwise_or(row, new, out=row)
        partners = _bits_of_words(new)  # unique, so fancy |= is safe
        self._a[partners, u >> 6] |= np.uint64(1 << (u & 63))
        return _popcount_total(new)

    def merge_edge_array(self, us: np.ndarray, vs: np.ndarray) -> int:
        """OR canonical edge arrays into the adjacency; returns #new.

        The bulk mutator behind
        :meth:`repro.graphs.graph.Graph.add_edge_arrays`: one gathered
        bit test picks the edges whose bit is not yet set (the input
        has no duplicates, so each is one new edge), and one
        :func:`scatter_bits` sets both directions of those.
        """
        a = self._a
        fresh = (
            a[us, vs >> 6] >> (vs & 63).astype(np.uint64) & np.uint64(1)
        ) == 0
        us, vs = us[fresh], vs[fresh]
        if us.size:
            scatter_bits(
                a, np.concatenate([us, vs]), np.concatenate([vs, us])
            )
        return int(us.size)

    # -- queries -------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._a[u, v >> 6] >> np.uint64(v & 63) & np.uint64(1))

    def row(self, u: int) -> int:
        return unpack_words(self._a[u])

    def rows(self) -> list[int]:
        return word_rows(self._a)

    def row_and(self, u: int, v: int) -> int:
        return unpack_words(self._a[u] & self._a[v])

    def popcount(self, u: int) -> int:
        return _popcount_total(self._a[u])

    def popcounts(self) -> list[int]:
        if self._n == 0:
            return []
        return _popcount(self._a).sum(axis=1, dtype=np.int64).tolist()

    def memory_bytes(self) -> int:
        return int(self._a.nbytes)

    def iter_edges(self) -> Iterator[Edge]:
        for u, mask in enumerate(self.rows()):
            upper = mask >> (u + 1)
            while upper:
                low = upper & -upper
                yield (u, u + low.bit_length())
                upper ^= low

    def edges_touching(self, r_mask: int, rs_mask: int) -> list[Edge]:
        return edges_touching_rows(self.row, r_mask, rs_mask)

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "PackedKernel":
        clone = PackedKernel.__new__(PackedKernel)
        clone._n = self._n
        clone._words = self._words
        clone._a = self._a.copy()
        return clone

    def induced(self, vertex_mask: int) -> tuple["PackedKernel", int]:
        clone = PackedKernel(self._n)
        if self._n:
            keep = pack_mask(vertex_mask, self._words)
            np.bitwise_and(self._a, keep[None, :], out=clone._a)
            selected = np.unpackbits(
                keep.astype(_LE_U64, copy=False).view(np.uint8),
                bitorder="little",
            )[: self._n].astype(bool)
            clone._a[~selected] = 0
        return clone, _popcount_total(clone._a) // 2

    def union_with(self, other: "PackedKernel") -> tuple["PackedKernel", int]:
        merged = PackedKernel.__new__(PackedKernel)
        merged._n = self._n
        merged._words = self._words
        merged._a = self._a | other._a
        return merged, _popcount_total(merged._a) // 2

    def rows_equal(self, other: "PackedKernel") -> bool:
        return bool(np.array_equal(self._a, other._a))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "PackedKernel":
        kernel = cls(n)
        stride = kernel._words * 8
        buf = bytearray(n * stride)
        view = memoryview(buf)
        count = 0
        for u, mask in enumerate(rows):
            view[u * stride:(u + 1) * stride] = mask.to_bytes(
                stride, "little"
            )
            count += 1
        if count != n:
            raise ValueError(f"expected {n} rows, got {count}")
        if n:
            kernel._a = (
                np.frombuffer(buf, dtype=_LE_U64)
                .reshape(n, kernel._words)
                .astype(np.uint64, copy=False)
            )
        return kernel

    @classmethod
    def from_edge_array(cls, n: int, us: np.ndarray,
                        vs: np.ndarray) -> "PackedKernel":
        """Bulk-build from canonical numpy edge arrays: scatter both
        directions into the word matrix with one ``bitwise_or.at``."""
        kernel = cls(n)
        if us.size:
            scatter_bits(
                kernel._a, np.concatenate([us, vs]), np.concatenate([vs, us])
            )
        return kernel

    # ------------------------------------------------------------------
    # Native triangle accelerators (dispatched by repro.graphs.triangles)
    # ------------------------------------------------------------------
    def _upper_csr(self, lo: int = 0,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Strictly-upper adjacency (u, v>u) pairs for rows lo..hi.

        Returned arrays are sorted by (u, v): chunks ascend, nonzero
        walks words row-major, and bits unpack low-to-high.  Only the
        nonzero words are unpacked — the chunk is sliced to start at
        word ``start >> 6``, compared against zero (a bool compare is
        several times faster to ``nonzero`` than the uint64 matrix
        itself), and the v > u filter trims the sub-word remainder.
        """
        if hi is None:
            hi = self._n
        a = self._a
        us_parts: list[np.ndarray] = []
        vs_parts: list[np.ndarray] = []
        chunk = max(1, (1 << 24) // max(8, self._words * 8))
        for start in range(lo, hi, chunk):
            stop = min(hi, start + chunk)
            word0 = start >> 6
            sub = a[start:stop, word0:]
            nz_row, nz_col = np.nonzero(sub != 0)
            if nz_row.size == 0:
                continue
            bits = np.unpackbits(
                sub[nz_row, nz_col]
                .astype(_LE_U64, copy=False)
                .view(np.uint8)
                .reshape(-1, 8),
                axis=1,
                bitorder="little",
            )
            word_index, bit_index = np.nonzero(bits)
            u = start + nz_row[word_index].astype(np.int64)
            v = (
                (word0 + nz_col[word_index].astype(np.int64)) << 6
            ) + bit_index
            keep = v > u
            us_parts.append(u[keep])
            vs_parts.append(v[keep])
        if not us_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(us_parts), np.concatenate(vs_parts)

    def _closed_wedges(self, us: np.ndarray, vs: np.ndarray, *,
                       collect: bool):
        """Count (or collect) wedges (u; a, b) with a, b ∈ N⁺(u) closed
        by an edge {a, b}.  Each triangle appears exactly once, at its
        minimum vertex u.  Returns an int when ``collect`` is false,
        else (u, a, b) int64 arrays; ``NotImplemented`` when the pair
        count says the generic edge-AND path is the better algorithm.
        """
        if us.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty) if collect else 0
        uniq, starts, counts = np.unique(
            us, return_index=True, return_counts=True
        )
        counts64 = counts.astype(np.int64)
        pairs = int((counts64 * (counts64 - 1) // 2).sum())
        if pairs > _DENSE_FALLBACK_FACTOR * us.size * max(1, self._words):
            return NotImplemented
        a = self._a
        total = 0
        hit_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for k in np.unique(counts64):
            if k < 2:
                continue
            group = counts64 == k
            group_starts = starts[group]
            group_u = uniq[group]
            pair_a, pair_b = np.triu_indices(int(k), 1)
            per_row = pair_a.size
            batch = max(1, _PAIR_BATCH // per_row)
            for off in range(0, group_starts.size, batch):
                gs = group_starts[off:off + batch]
                neighbours = vs[gs[:, None] + np.arange(int(k))[None, :]]
                first = neighbours[:, pair_a].ravel()
                second = neighbours[:, pair_b].ravel()
                closed = (
                    a[first, second >> 6]
                    >> (second & 63).astype(np.uint64)
                ) & np.uint64(1)
                if collect:
                    hit = np.nonzero(closed)[0]
                    if hit.size:
                        hit_parts.append((
                            np.repeat(
                                group_u[off:off + batch], per_row
                            )[hit],
                            first[hit],
                            second[hit],
                        ))
                else:
                    total += int(closed.sum(dtype=np.int64))
        if not collect:
            return total
        if not hit_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        return (
            np.concatenate([p[0] for p in hit_parts]),
            np.concatenate([p[1] for p in hit_parts]),
            np.concatenate([p[2] for p in hit_parts]),
        )

    def count_triangles(self):
        """#triangles via the wedge scan; ``NotImplemented`` when dense."""
        us, vs = self._upper_csr()
        return self._closed_wedges(us, vs, collect=False)

    def find_triangle(self):
        """First triangle in the generic order, or None.

        The generic scan returns the lexicographically minimal canonical
        triple; a triangle's canonical triple leads with its minimum
        vertex, and the wedge scan keys every triangle at exactly that
        vertex, so scanning base-vertex blocks ascending and taking the
        lexicographic minimum of the first non-empty block reproduces
        the generic answer while keeping the early exit.
        """
        n = self._n
        block = max(64, (1 << 21) // max(8, self._words * 8))
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            us, vs = self._upper_csr(lo, hi)
            wedges = self._closed_wedges(us, vs, collect=True)
            if wedges is NotImplemented:
                return NotImplemented
            tri_u, tri_a, tri_b = wedges
            if tri_u.size:
                order = np.lexsort((tri_b, tri_a, tri_u))[0]
                return (
                    int(tri_u[order]),
                    int(tri_a[order]),
                    int(tri_b[order]),
                )
        return None

    def greedy_triangle_packing(self):
        """The generic greedy packing, from the full wedge triangle list.

        The generic algorithm is exactly lexicographic greedy: triangles
        in canonical (u, v, w) order, accepted iff all three edges are
        still unused (the per-base-edge "minimum viable apex" rule picks
        the same triangles).  So: enumerate every triangle vectorized,
        lexsort, and replay that greedy in one linear pass with
        per-vertex used-edge masks.
        """
        wedges = self._closed_wedges(*self._upper_csr(), collect=True)
        if wedges is NotImplemented:
            return NotImplemented
        tri_u, tri_a, tri_b = wedges
        if tri_u.size == 0:
            return []
        order = np.lexsort((tri_b, tri_a, tri_u))
        used = [0] * self._n
        packing: list[tuple[int, int, int]] = []
        for u, a, b in zip(
            tri_u[order].tolist(),
            tri_a[order].tolist(),
            tri_b[order].tolist(),
        ):
            if used[u] >> a & 1 or used[u] >> b & 1 or used[a] >> b & 1:
                continue
            used[u] |= (1 << a) | (1 << b)
            used[a] |= (1 << u) | (1 << b)
            used[b] |= (1 << u) | (1 << a)
            packing.append((u, a, b))
        return packing


register_kernel("packed", PackedKernel)
