"""BGSS parallel SCC (Alg. 1) with VGC + one-pass frontier reachability.

The four variants mirror the paper's ablation (Fig. 9):

- ``gbbs``  — the GBBS baseline: tau=1 plain BFS, edge-revisit two-pass
  frontier maintenance, grow-on-demand pair-table sizing;
- ``plain`` — single-pass frontiers (the hash bag's effect), no VGC
  (tau=1), Sec. 4.5 sizing heuristic;
- ``vgc1``  — ``plain`` + local search (tau=2^9) in the *single*-
  reachability search that finds the first SCC;
- ``final`` — local search in single- and multi-reachability (the paper's
  full system, "Ours").

Phases are timed into the Fig. 9 breakdown categories: ``trim``,
``first_scc``, ``multi_search``, ``labeling`` (table-resize cost is a
work counter, see ``counters.py``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core import csr as csrmod
from repro.core.counters import Counters, PhaseTimer
from repro.core.engine import Engine
from repro.core.labeling import label_batch
from repro.core.multireach import multi_reach
from repro.core.reach import single_reach

DEFAULT_TAU = 1 << 9  # paper Tab. 1
DEFAULT_BETA = 1.5

VARIANTS = {
    "gbbs": dict(tau_single=1, tau_multi=1, two_pass=True, sizing="exact"),
    "plain": dict(tau_single=1, tau_multi=1, two_pass=False, sizing="heuristic"),
    "vgc1": dict(tau_single=DEFAULT_TAU, tau_multi=1, two_pass=False, sizing="heuristic"),
    "final": dict(
        tau_single=DEFAULT_TAU, tau_multi=DEFAULT_TAU, two_pass=False, sizing="heuristic"
    ),
}


@dataclass
class SCCResult:
    labels: np.ndarray
    counters: Counters

    @property
    def n_scc(self) -> int:
        return len(np.unique(self.labels))

    @property
    def scc1_size(self) -> int:  # 0 for an empty graph
        return int(np.unique(self.labels, return_counts=True)[1].max(initial=0))


def trim_numpy(csr: csrmod.CSR) -> np.ndarray:
    """Trimming (Sec. 4.1): vertices with zero in- or out-degree are
    singleton SCCs, finished before any search."""
    return (np.diff(csr.indptr) == 0) | (np.diff(csr.transpose().indptr) == 0)


def batches(order: np.ndarray, beta: float = DEFAULT_BETA) -> list[np.ndarray]:
    """Cut ``order`` into consecutive prefix-doubling batches of about 1,
    beta, beta^2, ... elements (Alg. 1, Sec. 5.1's LDD injection and
    Alg. 5 line 2).  Every batch is a non-empty slice of ``order``; the
    last one takes what is left."""
    out = []
    start = 0
    while start < len(order):
        stop = start + max(1, int(round(beta ** len(out))))
        out.append(order[start:stop])
        start = stop
    return out


def bgss_scc(
    spark: SparkSession | None,
    *,
    csr: csrmod.CSR,
    variant: str = "final",
    tau: int | None = None,
    beta: float = DEFAULT_BETA,
    seed: int = 42,
    **engine_kw,
) -> SCCResult:
    """Run BGSS SCC; returns per-vertex labels (equal label <=> same SCC).

    ``tau`` overrides the variant's local-search budget in every search
    kind that has one (the tau study runs ``final`` with each tau).
    ``engine_kw`` goes to :class:`Engine`; raises ``TimeoutError`` if its
    ``time_budget_s`` is exceeded.
    """
    cfg = dict(VARIANTS[variant])
    if tau is not None:
        for kind in ("tau_single", "tau_multi"):
            if cfg[kind] != 1:
                cfg[kind] = tau
    n = csr.n
    counters = Counters()
    with Engine(spark, csr, counters, **engine_kw) as engine:
        # Alg. 1 line 1: labels start uniform (-1) — same label <=> "not
        # yet distinguished"; refinement must only ever split groups.
        labels = np.full(n, -1, dtype=np.int64)
        with PhaseTimer(counters, "trim"):
            finished = trim_numpy(csr)
            # Trimmed vertices are singleton SCCs: unique label = own id.
            labels[finished] = np.flatnonzero(finished)
        result = SCCResult(labels=labels, counters=counters)
        rng = np.random.default_rng(seed)
        order = rng.permutation(np.flatnonzero(~finished)).astype(np.int64)
        if len(order) == 0:
            return result
        first, *rest = batches(order, beta)

        # Batch 1: single source; single-reachability with dense mode.
        s0 = int(first[0])
        with PhaseTimer(counters, "first_scc"):
            r = single_reach(
                engine,
                np.asarray([s0]),
                direction="both",
                tau=cfg["tau_single"],
                two_pass=cfg["two_pass"],
                dense=True,
                finished=finished,
            )
            fw, bw = r.fw, r.bw
            counters.search_rounds += [fw.rounds, bw.rounds]
        with PhaseTimer(counters, "labeling"):
            out_v = np.flatnonzero(fw.visited).astype(np.int64)
            in_v = np.flatnonzero(bw.visited).astype(np.int64)
            label_batch(
                (in_v, np.full(len(in_v), s0, dtype=np.int64)),
                (out_v, np.full(len(out_v), s0, dtype=np.int64)),
                labels,
                finished,
            )

        prev_pairs = len(out_v) + len(in_v)
        for batch in rest:
            sources = batch[~finished[batch]]
            if len(sources) == 0:
                continue
            with PhaseTimer(counters, "multi_search"):
                mr = multi_reach(
                    engine,
                    sources,
                    labels,
                    finished,
                    direction="both",
                    tau=cfg["tau_multi"],
                    two_pass=cfg["two_pass"],
                    sizing=cfg["sizing"],
                    prev_pairs_hint=prev_pairs,
                )
                mr_fw, mr_bw = mr.fw, mr.bw
                counters.search_rounds += [mr_fw.rounds, mr_bw.rounds]
                prev_pairs = len(mr_fw.pairs_v) + len(mr_bw.pairs_v)
            with PhaseTimer(counters, "labeling"):
                label_batch(
                    (mr_bw.pairs_v, mr_bw.pairs_s),
                    (mr_fw.pairs_v, mr_fw.pairs_s),
                    labels,
                    finished,
                )
            if finished.all():
                break
        return result
