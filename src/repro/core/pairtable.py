"""Phase-concurrent hash table of reachability pairs (paper Sec. 4.3/4.5).

Multi-reachability searches record pairs ``(v, s)`` ("source ``s`` reaches
vertex ``v``").  The paper uses the Shun–Blelloch phase-concurrent hash
table and a new sizing heuristic (Sec. 4.5): size the table for a batch as
``max(0.3 * b, 1.5 * a)`` rounded up to a power of two, where ``a`` is the
number of pairs generated by the previous frontier and ``b`` the number of
unfinished vertices — avoiding the repeated grow-on-demand rebuilds of the
GBBS baseline, whose table starts tiny and doubles whenever it fills.

Here the driver inserts one pair at a time and executor-side kernels only
read a snapshot, so none of the table's concurrency is reproduced and only
two things about it can be observed: which pairs it holds, and the slots
its rebuilds touch.  This port keeps exactly those: a Python ``set`` of the
packed keys ``v * n + s``, which kernels receive as a read-only snapshot
and test with ``in``, plus the capacity of the open-addressing table it
stands for.  ``rehash_cost`` counts every slot a rebuild of that table
would touch — the quantity behind the paper's "hash table resizing"
breakdown bars (Fig. 9).
"""
from __future__ import annotations

import numpy as np


def next_pow2(x: int) -> int:
    return 1 << max(1, int(x - 1).bit_length())


def heuristic_capacity(prev_frontier_pairs: int, unfinished: int) -> int:
    """Paper Sec. 4.5: max(0.3 b, 1.5 a), rounded up to a power of two."""
    want = max(0.3 * unfinished, 1.5 * prev_frontier_pairs, 16)
    return next_pow2(int(np.ceil(want / 0.75)))  # headroom for load factor


class PairTable:
    """Driver-side (v, s) pair set with the capacity and rebuild cost of
    an open-addressing table: it doubles before any insert at 3/4 load."""

    def __init__(self, n: int, capacity: int = 64):
        self.n = n
        self.capacity = next_pow2(capacity)
        self.keys: set[int] = set()
        self.rehash_cost = 0  # slots touched by rebuilds

    @property
    def size(self) -> int:
        return len(self.keys)

    def _grow(self, new_capacity: int) -> None:
        """A rebuild reads every old slot and writes every new one."""
        self.rehash_cost += self.capacity + new_capacity
        self.capacity = new_capacity

    def reserve(self, capacity: int) -> None:
        """Grow (never shrink) to at least ``capacity`` slots."""
        cap = next_pow2(capacity)
        if cap > self.capacity:
            self._grow(cap)

    def insert(self, v: int, s: int) -> bool:
        """Insert pair; returns True iff it was new."""
        if len(self.keys) * 4 >= self.capacity * 3:
            self._grow(self.capacity * 2)
        key = v * self.n + s
        if key in self.keys:
            return False
        self.keys.add(key)
        return True

    def __contains__(self, pair: tuple[int, int]) -> bool:
        v, s = pair
        return v * self.n + s in self.keys

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (v, s) pairs as two arrays (unordered)."""
        ks = np.fromiter(self.keys, dtype=np.int64, count=len(self.keys))
        return ks // self.n, ks % self.n

    def snapshot(self) -> set[int]:
        """The key set, for executor kernels to read and never modify."""
        return self.keys
