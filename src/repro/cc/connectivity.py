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

    @property
    def n_components(self) -> int:
        return len(np.unique(self.labels))


def cross_cluster_edges_np(
    src: np.ndarray, dst: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cluster-label pairs ``(la, lb)`` of the edges that cross
    clusters, in order of first appearance; labels are ids >= 0."""
    keep = labels[src] != labels[dst]
    la, lb = labels[src[keep]], labels[dst[keep]]
    first = np.sort(np.unique(la * (labels.max(initial=0) + 1) + lb, return_index=True)[1])
    return la[first], lb[first]


def ldd_uf_jtb(
    spark: SparkSession | None,
    *,
    csr: csrmod.CSR,
    variant: str = "ours",
    seed: int = 42,
    **engine_kw,
) -> CCResult:
    """Input graph must be symmetric (undirected): every edge (u, v) has
    its reverse (v, u) in ``csr``.  ``engine_kw`` goes to :class:`Engine`."""
    cfg = CC_VARIANTS[variant]
    n = csr.n
    counters = Counters()
    with Engine(spark, csr, counters, **engine_kw) as engine:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n).astype(np.int64)
        with PhaseTimer(counters, "ldd"):
            res = ldd(engine, order, tau=cfg["tau"], two_pass=cfg["two_pass"])
        with PhaseTimer(counters, "union_find"):
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
            la, lb = cross_cluster_edges_np(src, csr.indices, res.labels)
            uf = UnionFind(n)
            for a, b in zip(la.tolist(), lb.tolist()):
                uf.union(a, b)
            clusters, of = np.unique(res.labels, return_inverse=True)
            labels = np.array([uf.find(c) for c in clusters.tolist()], dtype=np.int64)[of]
        return CCResult(labels=labels, counters=counters)
