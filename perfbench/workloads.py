"""Benchmark workloads: seeded graphs, the solve under test, and its oracle.

A run generates ``GRAPHS`` graphs from its seed (graph ``i`` uses generator
seed ``seed * 100 + i``) and rotates its solves over them.  Round counts
depend on the graph, so with a single graph the run-to-run spread of
``solve_s`` would mostly be the spread of round counts between seeds.

Every solve uses the program's default ``Engine`` settings on the
forced-Spark path, exactly as ``repro.bench.harness.run_scc`` / ``run_cc``
call it (``force_spark=True``, ``spark_threshold=0``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.seq_cc import seq_cc
from repro.baselines.tarjan import tarjan_scc
from repro.cc.connectivity import ldd_uf_jtb
from repro.core import csr as csrmod
from repro.core.scc import bgss_scc
from repro.graphs import generators

GRAPHS = 8
ALGO_SEED = 42  # the harness's algorithm seed; the run seed picks the graphs
SOLVE_BUDGET_S = 60.0  # per solve; a TimeoutError counts as a failed solve


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "scc" | "cc"
    generate: Callable[[int], tuple[int, np.ndarray, np.ndarray]]
    smoke: Callable[[int], tuple[int, np.ndarray, np.ndarray]]


def _lattices(side: int, copies: int):
    """Disjoint union of ``copies`` oriented side x side lattices.

    A round's cost depends on its frontier size (``Engine.round`` uses
    ``min(8, rows)`` partitions), so a solve's cost is set by its rounds
    and their frontier sizes.  Over ten seeds one 20x20 lattice took 22-27
    rounds; 24 disjoint 5x5 lattices took 28 on every seed, and the number
    of 4-task waves those rounds need varied by about 1%."""

    def gen(seed: int):
        n = side * side
        parts = [
            generators.lattice_oriented(side, side, seed=seed * copies + j)
            for j in range(copies)
        ]
        src = np.concatenate([s + j * n for j, (s, _) in enumerate(parts)])
        dst = np.concatenate([d + j * n for j, (_, d) in enumerate(parts)])
        return n * copies, src, dst

    return gen


def largest_component(n: int, src: np.ndarray, dst: np.ndarray):
    """The largest connected component of a symmetric graph, its vertices
    renumbered 0..k-1 in their original order."""
    lab = np.arange(n, dtype=np.int64)
    while True:  # min-label propagation with pointer jumping
        new = lab.copy()
        np.minimum.at(new, src, lab[dst])
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    roots, sizes = np.unique(lab, return_counts=True)
    keep = lab == roots[np.argmax(sizes)]
    ids = np.cumsum(keep) - 1
    e = keep[src] & keep[dst]
    return int(keep.sum()), ids[src[e]], ids[dst[e]]


def _road(rows: int, cols: int):
    """Largest component of a ``road(rows, cols)`` grid.

    The grid's 10% edge removal leaves a few isolated vertices and pairs.
    LDD reaches those only when one of them is injected as a source,
    which happens in a late batch at a random position, so on whole grids
    the Spark-path round count varied from 4 to 8 between seeds.  On the
    largest component of 96x192 grids 55 of 60 graphs took 5 rounds and
    the others 4 or 6.
    Each graph is connected, so its oracle partition is one component."""

    def gen(seed: int):
        return largest_component(rows * cols, *generators.road(rows, cols, seed=seed))

    return gen


WORKLOADS = {
    w.name: w
    for w in (
        # Barrier-bound: 28 rounds of small frontiers, so the fixed
        # per-round cost of the engine is nearly all of a solve.
        Workload("scc-lattice", "scc", _lattices(5, 24), _lattices(3, 2)),
        # Second algorithm on the same engine: LDD local search (ldd_reach)
        # plus the driver-side union-find finish.
        Workload("cc-road", "cc", _road(96, 192), _road(6, 12)),
    )
}


@dataclass
class Graph:
    seed: int
    n: int
    src: np.ndarray
    dst: np.ndarray
    csr: csrmod.CSR
    gen_s: float = 0.0
    build_s: float = 0.0
    truth: np.ndarray | None = None  # canonical oracle partition
    verify_s: float = 0.0


def solve(kind: str, spark, csr: csrmod.CSR):
    """One solve of the algorithm under test; returns (labels, counters).
    ``spark=None`` replays it on the driver path."""
    kw = dict(
        seed=ALGO_SEED,
        force_spark=spark is not None,
        spark_threshold=0,
        time_budget_s=SOLVE_BUDGET_S,
    )
    if kind == "scc":
        res = bgss_scc(spark, csr=csr, variant="final", **kw)
    else:
        res = ldd_uf_jtb(spark, csr=csr, variant="ours", **kw)
    return res.labels, res.counters


def canonical(labels: np.ndarray) -> np.ndarray:
    """Partition as 'smallest vertex id in my part', comparable across
    labelings."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def oracle(kind: str, g: Graph) -> np.ndarray:
    """Whole-partition answer from the sequential reference."""
    if kind == "scc":
        labels, _ = tarjan_scc(g.csr)
    else:
        labels = seq_cc(g.n, g.src, g.dst)
    return canonical(labels)
