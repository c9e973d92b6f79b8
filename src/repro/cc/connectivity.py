"""LDD-UF-JTB connectivity (paper Sec. 5.1, Alg. 4).

Phase 1: low-diameter decomposition (``repro.cc.ldd``).  Phase 2: for
every edge whose endpoints landed in different clusters, union the two
cluster labels (the ConnectIt finishing step with the Jayanti-et-al.
union-find; sequential-equivalent on the driver).  Cross-cluster edges
are found with one numpy pass over the CSR's edges.

Variants: ``"dhs21"`` = the ConnectIt baseline (plain BFS LDD, tau=1,
edge-revisit two-pass); ``"ours"`` = hash-bag single-pass + VGC local
search (tau=2^9).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.seq_cc import UnionFind
from repro.core import csr as csrmod
from repro.core.counters import Counters, PhaseTimer
from repro.core.engine import Engine
from repro.core.scc import DEFAULT_TAU
from repro.cc.ldd import ldd

CC_VARIANTS = {
    "dhs21": dict(tau=1, two_pass=True),
    "ours": dict(tau=DEFAULT_TAU, two_pass=False),
}


@dataclass
class CCResult:
    labels: np.ndarray  # component label (root vertex id) per vertex
    counters: Counters
    ldd_rounds: int
    n_components: int = 0

    def finalize(self) -> "CCResult":
        self.n_components = len(np.unique(self.labels))
        return self


def cross_cluster_edges_np(
    src: np.ndarray, dst: np.ndarray, labels: np.ndarray
) -> pd.DataFrame:
    la, lb = labels[src], labels[dst]
    keep = la != lb
    return pd.DataFrame({"la": la[keep], "lb": lb[keep]}).drop_duplicates()


def ldd_uf_jtb(
    spark: SparkSession | None,
    *,
    csr: csrmod.CSR,
    variant: str = "ours",
    beta: float = 1.2,
    seed: int = 42,
    force_spark: bool = False,
    spark_threshold: int = 1 << 30,
    time_budget_s: float | None = None,
    counters: Counters | None = None,
) -> CCResult:
    """Input graph must be symmetric (undirected): every edge (u, v) has
    its reverse (v, u) in ``csr``."""
    cfg = CC_VARIANTS[variant]
    n = csr.n
    counters = counters if counters is not None else Counters()
    engine = Engine(
        spark,
        csr,
        counters,
        csr_t=csr,  # symmetric: G == G^T
        force_spark=force_spark,
        spark_threshold=spark_threshold,
        time_budget_s=time_budget_s,
    )
    try:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n).astype(np.int64)
        with PhaseTimer(counters, "ldd"):
            res = ldd(engine, order, beta=beta, tau=cfg["tau"], two_pass=cfg["two_pass"])
        with PhaseTimer(counters, "union_find"):
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
            cross = cross_cluster_edges_np(src, csr.indices, res.labels)
            uf = UnionFind(n)
            for a, b in zip(cross["la"].tolist(), cross["lb"].tolist()):
                uf.union(int(a), int(b))
            labels = np.fromiter(
                (uf.find(int(l)) for l in res.labels), dtype=np.int64, count=n
            )
        return CCResult(labels=labels, counters=counters, ldd_rounds=res.rounds).finalize()
    finally:
        engine.close()
