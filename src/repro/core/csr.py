"""CSR graph substrate.

Every algorithm takes its graph as a CSR (``indptr``/``indices``) built
once per graph from src/dst arrays and broadcast to executors — the Spark
analogue of the paper's shared-memory adjacency arrays.  As a Ligra/GBBS
graph holds in- and out-edges, a CSR keeps its transpose (one per graph).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession


@dataclass(frozen=True)
class CSR:
    """Compressed-sparse-row adjacency: out-neighbors of v are
    ``indices[indptr[v]:indptr[v+1]]``."""

    n: int
    indptr: np.ndarray  # int64, len n+1
    indices: np.ndarray  # int64, len m
    _t: CSR | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return int(len(self.indices))

    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def transpose(self) -> CSR:
        """Gᵀ, built on the first call and kept (``c.transpose().transpose() is
        c``); a CSR whose reverse has equal arrays (symmetric) is its own Gᵀ."""
        if self._t is None:
            src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            t = from_arrays(self.n, self.indices, src)
            if np.array_equal(t.indptr, self.indptr) and np.array_equal(t.indices, self.indices):
                t = self
            object.__setattr__(self, "_t", t)
            object.__setattr__(t, "_t", self)
        return self._t

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The kernels' graph: ``(indptr, indices, indptr_T, indices_T)``."""
        t = self.transpose()
        return self.indptr, self.indices, t.indptr, t.indices


def from_arrays(n: int, src: np.ndarray, dst: np.ndarray) -> CSR:
    """Build a CSR from parallel src/dst arrays (duplicates preserved)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(n=n, indptr=indptr, indices=dst[order])


class GraphBroadcast:
    """Broadcasts one graph's :meth:`CSR.arrays` for one ``Engine``;
    executor kernels read ``bc.value``.  A symmetric graph's Gᵀ is G, so
    its arrays are pickled once."""

    def __init__(self, spark: SparkSession, csr: CSR):
        self.csr, self.csr_t = csr, csr.transpose()  # read by perfbench's tracer
        self.bc = spark.sparkContext.broadcast(csr.arrays())

    def destroy(self) -> None:
        """Drop the executors' copies and unlink the driver's pickle file
        in the SparkContext temp dir (``unpersist`` alone leaves it)."""
        self.bc.destroy()
