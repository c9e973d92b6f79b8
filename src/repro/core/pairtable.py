"""Phase-concurrent hash table of reachability pairs (paper Sec. 4.3/4.5).

Multi-reachability searches record pairs ``(v, s)`` ("source ``s`` reaches
vertex ``v``").  The paper uses the Shun–Blelloch phase-concurrent hash
table and a new sizing heuristic (Sec. 4.5): size the table for a batch as
``max(0.3 * b, 1.5 * a)`` rounded up to a power of two, where ``a`` is the
number of pairs generated by the previous frontier and ``b`` the number of
unfinished vertices — avoiding the repeated grow-on-demand rebuilds of the
GBBS baseline, whose table starts tiny and doubles whenever it fills.

Here the driver inserts a round's new keys in one call and executor-side
kernels only read a snapshot, so none of the table's concurrency is
reproduced and only two things about it can be observed: which pairs it
holds, and the slots its rebuilds touch.  This port keeps exactly those: a
Python ``set`` of the packed keys ``v * n + s``, which kernels receive as a
read-only snapshot and test with ``in``, plus the capacity of the
open-addressing table it stands for, fixed when the table is made.
``rehash_cost`` counts every slot a rebuild of that table would touch — the
quantity behind the paper's "hash table resizing" breakdown bars (Fig. 9);
allocating the table is not a rebuild.
"""
from __future__ import annotations

import numpy as np


def next_pow2(x: int) -> int:
    return 1 << max(1, int(x - 1).bit_length())


def heuristic_capacity(prev_frontier_pairs: int, unfinished: int) -> int:
    """Paper Sec. 4.5: max(0.3 b, 1.5 a), rounded up to a power of two; at
    least 64 slots, the size the grow-on-demand table starts at."""
    want = max(0.3 * unfinished, 1.5 * prev_frontier_pairs, 48)
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

    def insert(self, keys: np.ndarray) -> int:
        """Add packed keys ``v * n + s`` that are all new, and return how
        many: raises ``ValueError`` if one repeats or is already held.  The
        table grows as if the keys came one at a time, each doubling it
        first at 3/4 load; a rebuild touches every old and every new slot."""
        new = set(keys.tolist())
        if len(new) < len(keys) or not self.keys.isdisjoint(new):
            raise ValueError("PairTable.insert takes only new, distinct keys")
        if new:
            last = len(self.keys) + len(new) - 1  # the size the last key sees
            while last * 4 >= self.capacity * 3:
                self.rehash_cost += self.capacity * 3  # c read + 2c written
                self.capacity *= 2
        self.keys |= new
        return len(new)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (v, s) pairs as two arrays (unordered)."""
        ks = np.fromiter(self.keys, dtype=np.int64, count=len(self.keys))
        return ks // self.n, ks % self.n

    def snapshot(self) -> set[int]:
        """The key set, for executor kernels to read and never modify."""
        return self.keys
