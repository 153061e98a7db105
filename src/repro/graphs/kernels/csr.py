"""The sparse CSR mask kernel: sorted numpy index arrays, O(m) memory.

Adjacency is stored in compressed-sparse-row form — an ``indptr`` array
of n+1 int64 offsets and an ``indices`` array holding every neighbour
list concatenated, sorted within each row, both directions of every
edge present (the matrix stays symmetric like every other kernel).
Memory is ~8-16 bytes per edge instead of the packed kernel's n²/8-byte
bitmap, which is the difference between ~24 MB and ~125 GB for a
constant-degree host at n = 10^6: this kernel is what opens the
million-vertex regime.

Mutation on a frozen array layout would be O(m) per edge, so single-edge
mutators write into a *delta overlay* (per-vertex added/removed sets,
kept symmetric and disjoint from the base arrays) that every bulk
operation folds back into the arrays on demand.  Point queries
(``has_edge``, ``popcount``, ``row``) consult the overlay directly and
never trigger compaction, so interleaved mutate/probe loops stay cheap.
Bulk construction bypasses the overlay entirely:
:meth:`CsrKernel.from_edge_array` and :meth:`CsrKernel.merge_edge_array`
sort/merge whole edge arrays in a few numpy passes — the fast half of
the vectorized generation plane.

``row()`` materializes the Python-int exchange mask lazily and keeps an
LRU of hot rows (protocol inner loops probe the same planted-triangle
rows repeatedly; rebuilding a 125 KB bignum for a high vertex id on
every probe would swamp the scan).  Any mutation of a vertex evicts its
cached row.

Triangle natives use merge-intersection over the sorted arrays rather
than the packed kernel's bit probes: enumerate each strictly-upper edge
(u, v), take the candidates w ∈ N⁺(v) by one gather, and close the
wedge with a vectorized ``searchsorted`` membership test against the
sorted upper-edge key array ``u * n + w``.  Work is O(Σ wedges · log m)
with no n²-shaped term anywhere, so on sparse hosts (d = O(1)) it beats
the packed scan, whose upper-CSR extraction alone walks the full
n²/64-word bitmap.  Each triangle is produced exactly once, at its
minimum-vertex base edge, in canonical lexicographic order — the same
values and order as the generic int-row algorithms — and the natives
return ``NotImplemented`` on dense hosts (same wedge-budget rule as the
packed kernel) so the dispatcher falls back to the generic path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from repro.graphs.kernels.base import Edge, bit_positions, register_kernel

__all__ = ["CsrKernel"]

#: Same dense-decline rule as the packed kernel: hand back to the
#: generic edge-AND path once the wedge count exceeds this multiple of
#: the edge-AND word budget (m edges × n/64-word rows).
_DENSE_FALLBACK_FACTOR = 4
#: Wedge-closure probes are generated in batches of at most this many
#: candidates to bound peak memory on skewed degree sequences.
_PAIR_BATCH = 1 << 22
#: Hot-row LRU capacity: enough for every row a protocol inner loop
#: touches repeatedly, small enough that cached bignums stay negligible
#: next to the arrays even at n = 10^6.
_ROW_CACHE_SIZE = 256
#: Estimated bookkeeping bytes per overlay entry (a CPython set slot
#: plus a small int), used by :meth:`CsrKernel.memory_bytes`.
_OVERLAY_ENTRY_BYTES = 32

_BIT8 = np.array([1 << b for b in range(8)], dtype=np.uint8)


def _mask_from_sorted_indices(indices: np.ndarray) -> int:
    """The Python-int mask with exactly ``indices``' bits set.

    Byte-buffer assembly sized to the highest bit, so a sparse row of a
    million-vertex host costs O(max_neighbour/8) once instead of
    O(deg · n/64) repeated bignum shifts.
    """
    if indices.size == 0:
        return 0
    idx = indices.astype(np.int64, copy=False)
    buf = np.zeros((int(idx[-1]) >> 3) + 1, dtype=np.uint8)
    np.bitwise_or.at(buf, idx >> 3, _BIT8[idx & 7])
    return int.from_bytes(buf.tobytes(), "little")


class CsrKernel:
    """Sorted-index-array adjacency storage (see module docstring)."""

    name = "csr"

    __slots__ = (
        "_n", "_indptr", "_indices", "_added", "_removed", "_row_cache",
    )

    def __init__(self, n: int) -> None:
        self._n = n
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        self._indices = np.empty(0, dtype=self._index_dtype(n))
        self._added: dict[int, set[int]] = {}
        self._removed: dict[int, set[int]] = {}
        self._row_cache: OrderedDict[int, int] = OrderedDict()

    @staticmethod
    def _index_dtype(n: int):
        return np.int32 if n <= np.iinfo(np.int32).max else np.int64

    @property
    def n(self) -> int:
        return self._n

    # -- pickling (drop the transient row cache) -----------------------
    def __getstate__(self):
        self._compact()
        return (self._n, self._indptr, self._indices)

    def __setstate__(self, state) -> None:
        self._n, self._indptr, self._indices = state
        self._added = {}
        self._removed = {}
        self._row_cache = OrderedDict()

    # -- overlay plumbing ----------------------------------------------
    def _base_slice(self, u: int) -> np.ndarray:
        indptr = self._indptr
        return self._indices[indptr[u]:indptr[u + 1]]

    def _base_has(self, u: int, v: int) -> bool:
        row = self._base_slice(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    def _effective_indices(self, u: int) -> np.ndarray:
        """Row ``u``'s neighbour ids, sorted int64, overlay applied."""
        base = self._base_slice(u).astype(np.int64, copy=False)
        added = self._added.get(u)
        removed = self._removed.get(u)
        if not added and not removed:
            return base
        values = set(base.tolist())
        if removed:
            values -= removed
        if added:
            values |= added
        return np.fromiter(sorted(values), dtype=np.int64, count=len(values))

    def _invalidate(self, u: int, v: int) -> None:
        self._row_cache.pop(u, None)
        self._row_cache.pop(v, None)

    def _delta_keys(self, delta: dict[int, set[int]]) -> np.ndarray:
        n = self._n
        flat = [u * n + v for u, partners in delta.items() for v in partners]
        return np.array(sorted(flat), dtype=np.int64)

    def _base_keys(self) -> np.ndarray:
        n = self._n
        src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self._indptr)
        )
        return src * n + self._indices.astype(np.int64, copy=False)

    def _set_from_keys(self, keys: np.ndarray) -> None:
        n = self._n
        src = keys // n
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._indptr = indptr
        self._indices = (keys % n).astype(self._index_dtype(n), copy=False)

    def _compact(self) -> None:
        """Fold the delta overlay back into the sorted arrays."""
        if not self._added and not self._removed:
            return
        keys = self._base_keys()
        if self._removed:
            keys = np.setdiff1d(
                keys, self._delta_keys(self._removed), assume_unique=True
            )
        if self._added:
            keys = np.union1d(keys, self._delta_keys(self._added))
        self._set_from_keys(keys)
        self._added = {}
        self._removed = {}

    # -- mutation ------------------------------------------------------
    def set_edge(self, u: int, v: int) -> bool:
        if self.has_edge(u, v):
            return False
        for a, b in ((u, v), (v, u)):
            removed = self._removed.get(a)
            if removed is not None and b in removed:
                removed.discard(b)
                if not removed:
                    del self._removed[a]
            else:
                self._added.setdefault(a, set()).add(b)
        self._invalidate(u, v)
        return True

    def clear_edge(self, u: int, v: int) -> bool:
        if not self.has_edge(u, v):
            return False
        for a, b in ((u, v), (v, u)):
            added = self._added.get(a)
            if added is not None and b in added:
                added.discard(b)
                if not added:
                    del self._added[a]
            else:
                self._removed.setdefault(a, set()).add(b)
        self._invalidate(u, v)
        return True

    def merge_row(self, u: int, mask: int) -> int:
        added = 0
        for v in bit_positions(mask).tolist():
            added += self.set_edge(u, v)
        return added

    def merge_edge_array(self, us: np.ndarray, vs: np.ndarray) -> int:
        """OR canonical edge arrays into the adjacency; returns #new.

        The bulk mutator behind
        :meth:`repro.graphs.graph.Graph.add_edge_arrays`: one sorted
        merge instead of per-edge overlay writes.
        """
        self._compact()
        n = self._n
        src = np.concatenate([us, vs]).astype(np.int64, copy=False)
        dst = np.concatenate([vs, us]).astype(np.int64, copy=False)
        old = self._base_keys()
        keys = np.union1d(old, src * n + dst)
        added = (keys.size - old.size) // 2
        if added:
            self._set_from_keys(keys)
            self._row_cache.clear()
        return int(added)

    # -- queries -------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        added = self._added.get(u)
        if added is not None and v in added:
            return True
        removed = self._removed.get(u)
        if removed is not None and v in removed:
            return False
        return self._base_has(u, v)

    def row(self, u: int) -> int:
        cache = self._row_cache
        mask = cache.get(u)
        if mask is not None:
            cache.move_to_end(u)
            return mask
        mask = _mask_from_sorted_indices(self._effective_indices(u))
        cache[u] = mask
        if len(cache) > _ROW_CACHE_SIZE:
            cache.popitem(last=False)
        return mask

    def rows(self) -> list[int]:
        self._compact()
        indptr = self._indptr
        indices = self._indices
        return [
            _mask_from_sorted_indices(indices[indptr[u]:indptr[u + 1]])
            for u in range(self._n)
        ]

    def row_and(self, u: int, v: int) -> int:
        common = np.intersect1d(
            self._effective_indices(u),
            self._effective_indices(v),
            assume_unique=True,
        )
        return _mask_from_sorted_indices(common)

    def popcount(self, u: int) -> int:
        base = int(self._indptr[u + 1] - self._indptr[u])
        return (
            base
            + len(self._added.get(u, ()))
            - len(self._removed.get(u, ()))
        )

    def popcounts(self) -> list[int]:
        base = np.diff(self._indptr)
        if not self._added and not self._removed:
            return base.tolist()
        counts = base.tolist()
        for u, partners in self._added.items():
            counts[u] += len(partners)
        for u, partners in self._removed.items():
            counts[u] -= len(partners)
        return counts

    def memory_bytes(self) -> int:
        overlay = sum(len(s) for s in self._added.values())
        overlay += sum(len(s) for s in self._removed.values())
        return int(
            self._indptr.nbytes
            + self._indices.nbytes
            + overlay * _OVERLAY_ENTRY_BYTES
        )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge as canonical int64 ``(lo, hi)`` arrays, ascending."""
        self._compact()
        return self._upper_arrays()

    def iter_edges(self) -> Iterator[Edge]:
        lo, hi = self.edge_arrays()
        return zip(lo.tolist(), hi.tolist())

    # -- whole-kernel operations ---------------------------------------
    def copy(self) -> "CsrKernel":
        self._compact()
        clone = CsrKernel.__new__(CsrKernel)
        clone._n = self._n
        clone._indptr = self._indptr.copy()
        clone._indices = self._indices.copy()
        clone._added = {}
        clone._removed = {}
        clone._row_cache = OrderedDict()
        return clone

    def induced(self, vertex_mask: int) -> tuple["CsrKernel", int]:
        self._compact()
        n = self._n
        clone = CsrKernel(n)
        if n and self._indices.size:
            selected = np.zeros(n, dtype=bool)
            selected[bit_positions(vertex_mask)] = True
            src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self._indptr)
            )
            dst = self._indices.astype(np.int64, copy=False)
            keep = selected[src] & selected[dst]
            clone._set_from_keys(src[keep] * n + dst[keep])
        return clone, int(clone._indices.size) // 2

    def union_with(self, other: "CsrKernel") -> tuple["CsrKernel", int]:
        self._compact()
        other._compact()
        merged = CsrKernel(self._n)
        keys = np.union1d(self._base_keys(), other._base_keys())
        merged._set_from_keys(keys)
        return merged, int(keys.size) // 2

    def rows_equal(self, other: "CsrKernel") -> bool:
        self._compact()
        other._compact()
        return bool(
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "CsrKernel":
        kernel = cls(n)
        counts = np.zeros(n + 1, dtype=np.int64)
        parts: list[np.ndarray] = []
        count = 0
        for u, mask in enumerate(rows):
            bits = bit_positions(mask)
            if bits.size:
                counts[u + 1] = bits.size
                parts.append(bits)
            count += 1
        if count != n:
            raise ValueError(f"expected {n} rows, got {count}")
        np.cumsum(counts, out=kernel._indptr)
        if parts:
            kernel._indices = np.concatenate(parts).astype(
                cls._index_dtype(n), copy=False
            )
        return kernel

    @classmethod
    def from_edge_array(cls, n: int, us: np.ndarray,
                        vs: np.ndarray) -> "CsrKernel":
        kernel = cls(n)
        if us.size:
            src = np.concatenate([us, vs]).astype(np.int64, copy=False)
            dst = np.concatenate([vs, us]).astype(np.int64, copy=False)
            keys = src * n + dst
            keys.sort()
            kernel._set_from_keys(keys)
        return kernel

    # ------------------------------------------------------------------
    # Native triangle accelerators (dispatched by repro.graphs.triangles)
    # ------------------------------------------------------------------
    def _upper_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Strictly-upper (u, v > u) edge arrays, sorted by (u, v)."""
        src = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
        )
        dst = self._indices.astype(np.int64, copy=False)
        keep = dst > src
        return src[keep], dst[keep]

    def _wedge_scan(self, mode: str):
        """Shared merge-intersection scan behind the three natives.

        Enumerates closed wedges (u, v, w): (u, v) a strictly-upper
        edge ascending, w ∈ N⁺(v), membership of (u, w) tested by
        ``searchsorted`` against the sorted upper-edge keys.  The hit
        stream is every triangle exactly once in canonical
        lexicographic (u, v, w) order — identical values and order to
        the generic int-row algorithms.
        """
        self._compact()
        empty_result = {"count": 0, "find": None, "pack": []}[mode]
        eu, ev = self._upper_arrays()
        m_up = int(eu.size)
        if m_up == 0:
            return empty_result
        n = self._n
        up_counts = np.bincount(eu, minlength=n)
        up_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(up_counts, out=up_indptr[1:])
        edge_keys = eu * n + ev
        reps = up_counts[ev]
        total_wedges = int(reps.sum())
        words = max(1, (n + 63) >> 6)
        if total_wedges > _DENSE_FALLBACK_FACTOR * m_up * words:
            return NotImplemented
        if total_wedges == 0:
            return empty_result
        cum = np.cumsum(reps)
        count = 0
        triangles: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        e0 = 0
        consumed = 0
        while e0 < m_up:
            e1 = int(np.searchsorted(cum, consumed + _PAIR_BATCH, "right"))
            e1 = max(e1, e0 + 1)
            br = reps[e0:e1]
            batch_total = int(cum[e1 - 1]) - consumed
            consumed = int(cum[e1 - 1])
            if batch_total:
                inner = np.arange(batch_total, dtype=np.int64)
                group_start = np.concatenate(
                    ([0], np.cumsum(br[:-1]))
                )
                offsets = inner - np.repeat(group_start, br)
                ws = ev[np.repeat(up_indptr[ev[e0:e1]], br) + offsets]
                wu = np.repeat(eu[e0:e1], br)
                probe_keys = wu * n + ws
                pos = np.searchsorted(edge_keys, probe_keys)
                pos[pos >= m_up] = m_up - 1
                hit = edge_keys[pos] == probe_keys
                if mode == "count":
                    count += int(hit.sum(dtype=np.int64))
                elif hit.any():
                    wv = np.repeat(ev[e0:e1], br)
                    if mode == "find":
                        first = int(np.argmax(hit))
                        return (
                            int(wu[first]), int(wv[first]), int(ws[first])
                        )
                    triangles.append((wu[hit], wv[hit], ws[hit]))
            e0 = e1
        if mode == "count":
            return count
        if mode == "find":
            return None
        return self._replay_greedy(triangles)

    @staticmethod
    def _replay_greedy(
        triangles: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> list[tuple[int, int, int]]:
        """Lexicographic greedy over the canonical triangle stream.

        Mirrors the generic greedy exactly; used-edge bookkeeping is
        per-vertex sets rather than int masks so a packing at n = 10^6
        never allocates megabit bignums.
        """
        used: dict[int, set[int]] = {}
        packing: list[tuple[int, int, int]] = []
        for batch_u, batch_v, batch_w in triangles:
            for u, v, w in zip(
                batch_u.tolist(), batch_v.tolist(), batch_w.tolist()
            ):
                used_u = used.get(u)
                if used_u is not None and (v in used_u or w in used_u):
                    continue
                used_v = used.get(v)
                if used_v is not None and w in used_v:
                    continue
                for a, b in ((u, v), (u, w), (v, w)):
                    used.setdefault(a, set()).add(b)
                    used.setdefault(b, set()).add(a)
                packing.append((u, v, w))
        return packing

    def count_triangles(self):
        """#triangles via merge-intersection; ``NotImplemented`` dense."""
        return self._wedge_scan("count")

    def find_triangle(self):
        """First triangle in the generic order, or None.

        The hit stream is lexicographically sorted and the generic
        edge-scan's first answer is the lexicographic minimum (see
        :meth:`PackedKernel.find_triangle`'s argument), so the first
        batch hit is the generic answer — with the early exit intact.
        """
        return self._wedge_scan("find")

    def greedy_triangle_packing(self):
        """The generic greedy packing, replayed from the hit stream."""
        return self._wedge_scan("pack")


register_kernel("csr", CsrKernel)
