"""CSR graph substrate.

Every algorithm takes its graph as a CSR (``indptr``/``indices``) built
once per graph from src/dst arrays and broadcast to executors — the Spark
analogue of the paper's shared-memory adjacency arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession


@dataclass(frozen=True)
class CSR:
    """Compressed-sparse-row adjacency: out-neighbors of v are
    ``indices[indptr[v]:indptr[v+1]]``."""

    n: int
    indptr: np.ndarray  # int64, len n+1
    indices: np.ndarray  # int64, len m

    @property
    def m(self) -> int:
        return int(len(self.indices))

    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def transpose(self) -> "CSR":
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return from_arrays(self.n, self.indices, src)


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
    """Broadcasts (G, G^T) once per graph; executor kernels read
    ``.value`` = (indptr, indices, indptr_T, indices_T)."""

    def __init__(self, spark: SparkSession, csr: CSR, csr_t: CSR | None = None):
        self.csr = csr
        self.csr_t = csr_t if csr_t is not None else csr.transpose()
        self.n = csr.n
        self._bc = spark.sparkContext.broadcast(
            (csr.indptr, csr.indices, self.csr_t.indptr, self.csr_t.indices)
        )

    @property
    def handle(self):
        return self._bc

    def local_value(self):
        return (self.csr.indptr, self.csr.indices, self.csr_t.indptr, self.csr_t.indices)

    def destroy(self) -> None:
        """Drop the executors' copies and unlink the driver's pickle file
        in the SparkContext temp dir (``unpersist`` alone leaves it)."""
        self._bc.destroy()
