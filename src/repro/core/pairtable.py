"""Phase-concurrent hash table of reachability pairs (paper Sec. 4.3/4.5).

Multi-reachability searches record pairs ``(v, s)`` ("source ``s`` reaches
vertex ``v``").  The paper uses the Shun–Blelloch phase-concurrent hash
table and a new sizing heuristic (Sec. 4.5): size the table for a batch as
``max(0.3 * b, 1.5 * a)`` rounded up to a power of two, where ``a`` is the
number of pairs generated by the previous frontier and ``b`` the number of
unfinished vertices — avoiding the repeated grow-on-demand rebuilds of the
GBBS baseline, whose table starts tiny and doubles whenever it fills.

This port is an open-addressing (linear probing) numpy table keyed by the
packed 64-bit integer ``v * n + s``.  The driver inserts; executor-side
kernels receive the raw ``keys`` array as a read-only snapshot and probe
it with :func:`contains_static`.  ``rehash_cost`` counts every slot
touched by a rebuild — the quantity behind the paper's "hash table
resizing" breakdown bars (Fig. 9).
"""
from __future__ import annotations

import numpy as np

EMPTY = -1


def next_pow2(x: int) -> int:
    return 1 << max(1, int(x - 1).bit_length())


def heuristic_capacity(prev_frontier_pairs: int, unfinished: int) -> int:
    """Paper Sec. 4.5: max(0.3 b, 1.5 a), rounded up to a power of two."""
    want = max(0.3 * unfinished, 1.5 * prev_frontier_pairs, 16)
    return next_pow2(int(np.ceil(want / 0.75)))  # headroom for load factor


def _probe_index(keys: np.ndarray, key: int) -> int:
    """First slot where ``key`` lives or could be placed (linear probe).

    The probe starts at the top b bits of the 64-bit multiplicative hash
    for a table of 2^b slots (Knuth, TAOCP 3 §6.4).  The hash's low bits depend
    only on the low bits of ``key = v * n + s``, which are ``s``'s when
    2^b divides ``n``: they would start all of one source's pairs in one
    probe run."""
    cap = len(keys)
    i = ((key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) >> (65 - cap.bit_length())
    while True:
        k = keys[i]
        if k == key or k == EMPTY:
            return i
        i += 1
        if i == cap:
            i = 0


def contains_static(keys: np.ndarray, v: int, s: int, n: int) -> bool:
    """Probe a read-only snapshot (executor side; no insertion)."""
    return keys[_probe_index(keys, v * n + s)] != EMPTY


class PairTable:
    """Driver-side (v, s) pair table with counted rebuild cost."""

    def __init__(self, n: int, capacity: int = 64):
        self.n = n
        self.capacity = next_pow2(capacity)
        self.keys = np.full(self.capacity, EMPTY, dtype=np.int64)
        self.size = 0
        self.rehash_cost = 0  # slots touched by rebuilds

    def _grow(self, new_capacity: int) -> None:
        old = self.keys
        self.capacity = new_capacity
        self.keys = np.full(new_capacity, EMPTY, dtype=np.int64)
        self.rehash_cost += len(old) + new_capacity
        for k in old[old != EMPTY]:
            self.keys[_probe_index(self.keys, int(k))] = int(k)

    def reserve(self, capacity: int) -> None:
        """Grow (never shrink) to at least ``capacity`` slots."""
        cap = next_pow2(capacity)
        if cap > self.capacity:
            self._grow(cap)

    def insert(self, v: int, s: int) -> bool:
        """Insert pair; returns True iff it was new."""
        if self.size * 4 >= self.capacity * 3:
            self._grow(self.capacity * 2)
        key = v * self.n + s
        i = _probe_index(self.keys, key)
        if self.keys[i] == key:
            return False
        self.keys[i] = key
        self.size += 1
        return True

    def __contains__(self, pair: tuple[int, int]) -> bool:
        v, s = pair
        return contains_static(self.keys, v, s, self.n)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (v, s) pairs as two arrays (unordered)."""
        ks = self.keys[self.keys != EMPTY]
        return (ks // self.n).astype(np.int64), (ks % self.n).astype(np.int64)

    def snapshot(self) -> np.ndarray:
        """Read-only key array for shipping to executor kernels."""
        return self.keys
