"""CSR graph substrate.

Graphs enter the system as Spark edge DataFrames ``(src, dst)``; the
iterative engines traverse a CSR (``indptr``/``indices``) built once per
graph and broadcast to executors — the Spark analogue of the paper's
shared-memory adjacency arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


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


def from_edges_df(edges: DataFrame, n: int | None = None) -> CSR:
    """Collect a Spark edge DataFrame and build the CSR.

    ``n`` defaults to max vertex id + 1. Bench graphs are laptop-scale by
    design (DESIGN.md Sec. 6), so the collect is bounded.
    """
    pdf = edges.select("src", "dst").toPandas()
    src = pdf["src"].to_numpy(dtype=np.int64)
    dst = pdf["dst"].to_numpy(dtype=np.int64)
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(src) else 0
    return from_arrays(n, src, dst)


def to_edges_df(spark: SparkSession, csr: CSR) -> DataFrame:
    src = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    return spark.createDataFrame(pd.DataFrame({"src": src, "dst": csr.indices}))


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
