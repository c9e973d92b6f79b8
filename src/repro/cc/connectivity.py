"""LDD-UF-JTB connectivity (paper Sec. 5.1, Alg. 4).

Phase 1: low-diameter decomposition (``repro.cc.ldd``).  Phase 2: for
every edge whose endpoints landed in different clusters, union the two
cluster labels (the ConnectIt finishing step with the Jayanti-et-al.
union-find; sequential-equivalent on the driver).  Cross-cluster edges
are found with a Catalyst join over the edge table when a SparkSession is
supplied — an oracle-checkable DataFrame computation — else with numpy.

Variants: ``"dhs21"`` = the ConnectIt baseline (plain BFS LDD, tau=1,
edge-revisit two-pass); ``"ours"`` = hash-bag single-pass + VGC local
search (tau=2^9).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

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


def cross_cluster_edges_df(
    spark: SparkSession, edges: DataFrame, labels: np.ndarray
) -> pd.DataFrame:
    """Distinct (la, lb) cluster-label pairs joined by an edge, via
    Catalyst joins (tested against DuckDB SQL)."""
    lab_df = spark.createDataFrame(
        pd.DataFrame({"v": np.arange(len(labels), dtype=np.int64), "lab": labels})
    )
    la = lab_df.select(F.col("v").alias("src"), F.col("lab").alias("la"))
    lb = lab_df.select(F.col("v").alias("dst"), F.col("lab").alias("lb"))
    return (
        edges.join(la, "src")
        .join(lb, "dst")
        .where(F.col("la") != F.col("lb"))
        .select("la", "lb")
        .distinct()
        .toPandas()
    )


def cross_cluster_edges_np(
    src: np.ndarray, dst: np.ndarray, labels: np.ndarray
) -> pd.DataFrame:
    la, lb = labels[src], labels[dst]
    keep = la != lb
    return pd.DataFrame({"la": la[keep], "lb": lb[keep]}).drop_duplicates()


def ldd_uf_jtb(
    spark: SparkSession | None,
    *,
    edges_df: DataFrame | None = None,
    csr: csrmod.CSR | None = None,
    variant: str = "ours",
    beta: float = 1.2,
    seed: int = 42,
    force_spark: bool = False,
    spark_threshold: int = 1 << 30,
    time_budget_s: float | None = None,
    counters: Counters | None = None,
) -> CCResult:
    """Input graph must be symmetric (undirected); see graphs.ops.symmetrize."""
    cfg = CC_VARIANTS[variant]
    if csr is None:
        if edges_df is None:
            raise ValueError("need edges_df or csr")
        csr = csrmod.from_edges_df(edges_df)
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
            if spark is not None and edges_df is not None:
                cross = cross_cluster_edges_df(spark, edges_df, res.labels)
            else:
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
