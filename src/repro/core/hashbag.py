"""Parallel hash bag (paper Sec. 3.3, Fig. 5/6, Thm. 3.1).

A hash bag maintains an unordered multiset-free set of elements (the
frontier of a graph search) supporting:

- ``insert(k)``   — concurrent-safe insertion (no duplicate checking; the
  caller guarantees uniqueness, e.g. via a CAS on a ``visit`` flag).
- ``extract_all`` — pack all elements into an array and empty the bag.

The bag is a single pre-allocated array conceptually split into chunks of
exponentially growing sizes lambda, 2*lambda, 4*lambda, ...  Elements are
always inserted at a random slot of the *current* chunk ``r`` (linear
probing on collision).  Each insertion is *sampled* at rate
``(sigma / alpha) / chunk_size``; when a chunk accumulates ``sigma``
samples its load factor is ~``alpha`` w.h.p. and the bag "resizes" by
bumping ``r`` — no copying, ever (the paper's key difference from a
resizable hash table).

This is a faithful port of the paper's pseudocode.  CPython cannot issue a
hardware CAS, so :func:`_cas` emulates one under a lock; the algorithmic
structure (optimistic insert, probe bound kappa, sampled resize trigger,
CAS-bumped chunk id) is preserved and exercised by multi-threaded tests.
Empty slots store 0; values are stored as ``v + 1`` so any integer
``v >= 0`` can be inserted.
"""
from __future__ import annotations

import math
import random
import threading

import numpy as np

# Paper defaults (Tab. 1): first chunk size lambda = 2^10, resize-trigger
# sample count sigma = 50, target load factor alpha = 0.5, probe bound
# kappa before a forced resize attempt.
DEFAULT_LAMBDA = 1 << 10
DEFAULT_SIGMA = 50
DEFAULT_ALPHA = 0.5
DEFAULT_KAPPA = 64


class HashBag:
    """Pre-allocated chunked frontier bag with sampling-based resizing."""

    def __init__(
        self,
        n: int,
        *,
        lam: int = DEFAULT_LAMBDA,
        sigma: int = DEFAULT_SIGMA,
        alpha: float = DEFAULT_ALPHA,
        kappa: int = DEFAULT_KAPPA,
        seed: int | None = None,
    ):
        if n < 1:
            raise ValueError("hash bag needs a positive element-count upper bound")
        self.n = n
        self.lam = lam
        self.sigma = sigma
        self.alpha = alpha
        self.kappa = kappa
        # Chunks double from lam until the total capacity covers n/alpha,
        # so the bag can always hold all n possible elements at load
        # factor alpha even if sampling never triggers early.
        target = int(math.ceil((n + lam) / alpha))
        tails = [lam]
        while tails[-1] < target:
            tails.append(tails[-1] * 2)
        self.tail = np.asarray(tails, dtype=np.int64)
        self.num_chunks = len(tails)
        self.bag = np.zeros(int(self.tail[-1]), dtype=np.int64)
        self.sample = np.zeros(self.num_chunks, dtype=np.int64)
        self.r = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()  # backs the CAS emulation only

    # -- CAS emulation ----------------------------------------------------
    def _cas_slot(self, i: int, old: int, new: int) -> bool:
        with self._lock:
            if self.bag[i] == old:
                self.bag[i] = new
                return True
            return False

    def _cas_sample(self, chunk: int, old: int, new: int) -> bool:
        with self._lock:
            if self.sample[chunk] == old:
                self.sample[chunk] = new
                return True
            return False

    def _try_resize(self, r_prime: int) -> None:
        # compare_and_swap(&r, r', r'+1): only one thread advances r.
        with self._lock:
            if self.r == r_prime and self.r + 1 < self.num_chunks:
                self.r = self.r + 1

    # -- interface --------------------------------------------------------
    def _chunk_bounds(self, c: int) -> tuple[int, int]:
        lo = 0 if c == 0 else int(self.tail[c - 1])
        return lo, int(self.tail[c])

    def insert(self, k: int) -> None:
        """Insert ``k`` (>= 0). The caller must ensure no duplicates."""
        if k < 0:
            raise ValueError("hash bag stores non-negative integers")
        while True:
            r_prime = self.r
            lo, hi = self._chunk_bounds(r_prime)
            chunk_size = hi - lo
            # Sampled with rate (sigma/alpha)/chunk_size: a chunk resizes
            # after ~sigma successful samples, i.e. ~alpha*chunk_size
            # insertions (Chernoff argument in the paper's Appendix A).
            rate = min(1.0, (self.sigma / self.alpha) / chunk_size)
            if self._rng.random() < rate:
                while True:
                    t = int(self.sample[r_prime])
                    if t >= self.sigma:
                        self._try_resize(r_prime)
                        break
                    if self._cas_sample(r_prime, t, t + 1):
                        break
                if self.sample[r_prime] >= self.sigma and self.r == r_prime:
                    self._try_resize(r_prime)
                if self.r != r_prime:
                    continue  # re-insert into the new chunk
            i = lo + self._rng.randrange(chunk_size)
            probes = 0
            placed = False
            while probes <= self.kappa:
                if self._cas_slot(i, 0, k + 1):
                    placed = True
                    break
                probes += 1
                i += 1
                if i >= hi:
                    i = lo
            if placed:
                return
            # Probed more than kappa times: chunk is (nearly) full.
            self._try_resize(r_prime)
            # loop: retry insert in the (possibly) new chunk

    def __len__(self) -> int:
        hi = int(self.tail[self.r])
        return int(np.count_nonzero(self.bag[:hi]))

    @property
    def used_prefix(self) -> int:
        """Slots the bag currently touches: O(s + lambda) by Thm. 3.1."""
        return int(self.tail[self.r])

    def extract_all(self) -> np.ndarray:
        """Pack all elements into an array and clear the bag.

        Mirrors the paper's parallel pack: only the used prefix
        (``tail[r]`` slots) is scanned, so extracting s elements costs
        O(s + lambda) work, not O(n).
        """
        hi = int(self.tail[self.r])
        prefix = self.bag[:hi]
        out = prefix[prefix != 0] - 1
        prefix[:] = 0
        self.sample[: self.r + 1] = 0
        self.r = 0
        return out
