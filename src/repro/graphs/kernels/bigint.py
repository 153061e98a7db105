"""The bignum mask kernel: one arbitrary-precision int per vertex.

This is the PR 2 bitset representation, refactored behind the
:class:`~repro.graphs.kernels.base.MaskKernel` protocol: bit ``v`` of
``rows()[u]`` is set iff the edge ``{u, v}`` exists.  CPython executes
``&``/``|``/``bit_count`` over 30-bit digits word-at-a-time in C, so a
common-neighbourhood probe is a single allocation-plus-scan — effectively
memory-bound — which keeps this kernel optimal up to tens of thousands
of vertices and makes it the executable specification the packed kernel
is differential-pinned against.

Because the int rows *are* the exchange format, ``rows()`` returns the
live list (no conversion) and ``from_rows`` just materialises the list —
both directions of the conversion seam are free here.

Edge keys.  A kernel built from edge arrays keeps the canonical keys
``lo * n + hi`` it was built from, ascending, as a read-only int64 array
that only the kernel writes: :meth:`BigintKernel.from_edge_array` stores
them, :meth:`BigintKernel.merge_edge_array` merges the inserted keys in
by one sorted insert, and an empty kernel holds the empty array.
:meth:`BigintKernel.edge_keys` and :meth:`BigintKernel.edge_arrays`
serve them, so a partition reads the host's edge list without walking
the rows.  Every other row write (``set_edge``, ``clear_edge``,
``merge_row``, ``from_rows``, ``induced``, ``union_with``) drops the
keys, and the readers fall back to walking the rows.

Array builds set the rows in one of two ways, chosen from the edge and
vertex counts alone: below :data:`_DENSE_EDGES_PER_VERTEX` edges per
vertex, one ``|=`` per edge direction; at or above it, the packed
kernel's word scatter fills a block of rows in a uint64 scratch matrix
of at most :data:`_BLOCK_BYTES`, and each row converts with one
``int.from_bytes``.  A per-edge ``|=`` copies the whole row bignum, so
the loop's cost grows with n per edge while the block build pays about
n/8 bytes per row once; the block build wins on dense inputs only.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.graphs.kernels.base import (
    Edge,
    edges_touching_rows,
    iter_bits,
    register_kernel,
)

__all__ = ["BigintKernel"]

#: Array builds with at least this many edges per vertex take the block
#: build (see the module docstring).  Measured on a 2-core x86-64 host
#: over uniform random edges, n from 400 to 16 384: the block build
#: lost at 2 edges per vertex and won at 6 and above for every n; the
#: crossover lies between 3 and 5.
_DENSE_EDGES_PER_VERTEX = 6

#: Scratch bytes of one row block of the block build.
_BLOCK_BYTES = 1 << 22


def _frozen(keys: np.ndarray) -> np.ndarray:
    keys.flags.writeable = False
    return keys


_NO_KEYS = _frozen(np.empty(0, dtype=np.int64))


def _or_edges(rows: list[int], n: int, us: np.ndarray,
              vs: np.ndarray) -> None:
    """OR canonical edges ``(us[i], vs[i])``, both directions, into rows."""
    if us.size < _DENSE_EDGES_PER_VERTEX * n or not us.size:
        for u, v in zip(us.tolist(), vs.tolist()):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return
    from repro.graphs.kernels.packed import scatter_bits, word_rows

    words = (n + 63) >> 6
    block = max(1, _BLOCK_BYTES // (8 * words))
    src = np.concatenate((us, vs))
    dst = np.concatenate((vs, us))
    for start in range(0, n, block):
        stop = min(n, start + block)
        if stop - start == n:
            block_src, block_dst = src, dst
        else:
            inside = (src >= start) & (src < stop)
            block_src, block_dst = src[inside], dst[inside]
        scratch = np.zeros((stop - start, words), dtype=np.uint64)
        scatter_bits(scratch, block_src - start, block_dst)
        for u, mask in enumerate(word_rows(scratch), start):
            if mask:
                rows[u] |= mask


class BigintKernel:
    """List-of-bignums adjacency storage (see module docstring)."""

    name = "bigint"

    __slots__ = ("_n", "_rows", "_keys")

    def __init__(self, n: int) -> None:
        self._n = n
        self._rows: list[int] = [0] * n
        # Canonical edge keys, ascending, or None once a row write
        # outside the array builds has made them stale.
        self._keys: np.ndarray | None = _NO_KEYS

    def __setstate__(self, state) -> None:
        # Slot state as pickle stores it; pickles written before the
        # kernel kept its edge keys have no "_keys" slot.
        _, slots = state
        self._n = slots["_n"]
        self._rows = slots["_rows"]
        keys = slots.get("_keys")
        self._keys = None if keys is None else _frozen(keys)

    @property
    def n(self) -> int:
        return self._n

    # -- mutation ------------------------------------------------------
    def set_edge(self, u: int, v: int) -> bool:
        rows = self._rows
        if rows[u] >> v & 1:
            return False
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        self._keys = None
        return True

    def clear_edge(self, u: int, v: int) -> bool:
        rows = self._rows
        if not rows[u] >> v & 1:
            return False
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        self._keys = None
        return True

    def merge_row(self, u: int, mask: int) -> int:
        rows = self._rows
        new = mask & ~rows[u]
        if not new:
            return 0
        rows[u] |= new
        bit_u = 1 << u
        for v in iter_bits(new):
            rows[v] |= bit_u
        self._keys = None
        return new.bit_count()

    def merge_edge_array(self, us: np.ndarray, vs: np.ndarray) -> int:
        """OR canonical edge arrays into the adjacency; returns #new.

        The bulk mutator behind
        :meth:`repro.graphs.graph.Graph.add_edge_arrays`.  With the
        edge keys present, the new edges are found by one
        ``searchsorted`` and merged in by one sorted insert; without
        them, each edge is tested against its row.
        """
        n = self._n
        keys = self._keys
        if keys is None:
            rows = self._rows
            fresh = np.fromiter(
                (not rows[u] >> v & 1
                 for u, v in zip(us.tolist(), vs.tolist())),
                dtype=bool, count=us.size,
            )
        else:
            incoming = us * n + vs
            at = np.searchsorted(keys, incoming)
            fresh = np.ones(incoming.size, dtype=bool)
            inside = at < keys.size
            fresh[inside] = keys[at[inside]] != incoming[inside]
            self._keys = _frozen(
                np.insert(keys, at[fresh], incoming[fresh])
            )
        _or_edges(self._rows, n, us[fresh], vs[fresh])
        return int(np.count_nonzero(fresh))

    # -- queries -------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def row(self, u: int) -> int:
        return self._rows[u]

    def rows(self) -> list[int]:
        # The live list — hot loops index it for free; treat as READ-ONLY.
        return self._rows

    def row_and(self, u: int, v: int) -> int:
        return self._rows[u] & self._rows[v]

    def popcount(self, u: int) -> int:
        return self._rows[u].bit_count()

    def popcounts(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    def memory_bytes(self) -> int:
        keys = 0 if self._keys is None else self._keys.nbytes
        return sum(sys.getsizeof(row) for row in self._rows) + keys

    def iter_edges(self) -> Iterator[Edge]:
        for u, mask in enumerate(self._rows):
            upper = mask >> (u + 1)
            while upper:
                low = upper & -upper
                yield (u, u + low.bit_length())
                upper ^= low

    def edges_touching(self, r_mask: int, rs_mask: int) -> list[Edge]:
        return edges_touching_rows(self._rows.__getitem__, r_mask, rs_mask)

    def edge_keys(self) -> np.ndarray:
        """Canonical keys ``lo * n + hi`` of every edge, ascending.

        The stored keys when present (read-only; see the module
        docstring), else read from the rows.
        """
        if self._keys is not None:
            return self._keys
        pairs = np.fromiter(
            chain.from_iterable(self.iter_edges()), dtype=np.int64
        ).reshape(-1, 2)
        return pairs[:, 0] * self._n + pairs[:, 1]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge as canonical int64 ``(lo, hi)`` arrays, ascending."""
        keys = self.edge_keys()
        return keys // self._n, keys % self._n

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "BigintKernel":
        clone = BigintKernel.__new__(BigintKernel)
        clone._n = self._n
        clone._rows = self._rows.copy()
        # Read-only and replaced, never written, so the clone shares it.
        clone._keys = self._keys
        return clone

    def induced(self, vertex_mask: int) -> tuple["BigintKernel", int]:
        clone = BigintKernel(self._n)
        clone._keys = None
        rows = self._rows
        out = clone._rows
        total_degree = 0
        for u in iter_bits(vertex_mask):
            row = rows[u] & vertex_mask
            out[u] = row
            total_degree += row.bit_count()
        return clone, total_degree // 2

    def union_with(self, other: "BigintKernel") -> tuple["BigintKernel", int]:
        merged = BigintKernel(self._n)
        merged._keys = None
        out = merged._rows
        other_rows = other._rows
        total_degree = 0
        for u, row in enumerate(self._rows):
            row |= other_rows[u]
            out[u] = row
            total_degree += row.bit_count()
        return merged, total_degree // 2

    def rows_equal(self, other: "BigintKernel") -> bool:
        return self._rows == other._rows

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "BigintKernel":
        kernel = cls(n)
        kernel._keys = None
        kernel._rows[:] = rows
        if len(kernel._rows) != n:
            raise ValueError(
                f"expected {n} rows, got {len(kernel._rows)}"
            )
        return kernel

    @classmethod
    def from_edge_array(cls, n: int, us, vs) -> "BigintKernel":
        """Bulk-build from canonical numpy edge arrays, keeping their
        keys (see the module docstring)."""
        kernel = cls(n)
        _or_edges(kernel._rows, n, us, vs)
        kernel._keys = _frozen(us * n + vs)
        return kernel


register_kernel("bigint", BigintKernel)
