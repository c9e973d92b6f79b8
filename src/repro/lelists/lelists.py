"""Parallel LE-lists (BGSS Alg. 5) with one-pass frontier maintenance.

Vertices are processed in prefix-doubling batches 1, 2, 4, ... of a
random priority order, cut by :func:`repro.core.scc.batches` as in BGSS
and LDD.  Each batch runs a multi-BFS from all its sources
simultaneously: level by level (VGC is *not* applicable — the BFS order
must be preserved, paper Sec. 5.2), pruning a pair (u, s) unless its
distance beats the tentative distance delta(u) carried over from previous
batches, and deduplicating pairs in the phase-concurrent pair table.
That is multi-reachability at tau = 1, so each level is one
``multi_reach`` round (:func:`level_params`): the vertices the next level
cannot improve are finished, and one label means no cross edges.  A
round's pairs merge as in :func:`repro.core.multireach.multi_reach`:
sorted distinct keys, all new, in one table insert.  At the end of a
batch, one walk over its (u, s, d) triples, sorted by vertex and then
source priority, keeps a triple when d beats delta(u), lowers delta(u) to
d and appends (s, d) to u's LE-list.

Variants: ``"parlay"`` = the ParlayLib baseline (edge-revisit two-pass
frontier); ``"ours"`` = single-pass frontier, the hash bag's effect.  This
mirrors the paper, where LE-lists only benefit from the hash bag, not VGC.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import csr as csrmod
from repro.core.counters import Counters, PhaseTimer
from repro.core.engine import Engine
from repro.core.pairtable import PairTable, heuristic_capacity
from repro.core.scc import batches

LE_VARIANTS = {
    "parlay": dict(two_pass=True),
    "ours": dict(two_pass=False),
}


def level_params(
    delta: np.ndarray, d: int, table_keys: set[int], labels: np.ndarray, two_pass: bool
) -> dict:
    """The ``multi_reach`` params of the level from distance ``d`` to d + 1:
    tau = 1, forward, ``finished`` where d + 1 does not beat delta, and
    ``labels`` of one value (int8 zeros, made once per ``le_lists`` call)."""
    return {
        "direction": "fwd",
        "tau": 1,
        "two_pass": two_pass,
        "labels": labels,
        "finished": delta <= d + 1,
        "table_keys": table_keys,
    }


@dataclass
class LEListsResult:
    lists: list[list[tuple[int, int]]]  # per vertex: (source, dist), priority order
    counters: Counters

    def total_size(self) -> int:
        return sum(len(l) for l in self.lists)


def le_lists(
    spark,
    *,
    csr: csrmod.CSR,
    order: np.ndarray | None = None,
    variant: str = "ours",
    seed: int = 42,
    **engine_kw,
) -> LEListsResult:
    """``engine_kw`` goes to :class:`Engine`."""
    cfg = LE_VARIANTS[variant]
    n = csr.n
    counters = Counters()
    with Engine(spark, csr, counters, **engine_kw) as engine:
        if order is None:
            order = np.random.default_rng(seed).permutation(n).astype(np.int64)
        order = np.asarray(order, dtype=np.int64)
        priority = np.empty(n, dtype=np.int64)
        priority[order] = np.arange(n, dtype=np.int64)

        INF = np.iinfo(np.int64).max
        delta = np.full(n, INF, dtype=np.int64)
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        labels = np.zeros(n, dtype=np.int8)  # one component: no cross edges

        prev_pairs = 0
        for batch in batches(order, 2.0):  # Alg. 5 line 2
            table = PairTable(n, heuristic_capacity(prev_pairs, n))
            f_v = f_s = batch[delta[batch] > 0]
            table.insert(f_v * (n + 1))
            # This batch's triples (u, s, d): source s reaches u at distance d.
            triples = [(f_v, f_s, np.zeros_like(f_v))]
            d = 0
            with PhaseTimer(counters, "multi_bfs"):
                while len(f_v):
                    out = engine.round(
                        "multi_reach",
                        {"v": f_v, "s": f_s},
                        level_params(delta, d, table.snapshot(), labels, cfg["two_pass"]),
                    )
                    d += 1
                    keys = np.unique(out["v"] * n + out["s"])
                    counters.pair_inserts += table.insert(keys)
                    f_v, f_s = keys // n, keys % n
                    triples.append((f_v, f_s, np.full_like(f_v, d)))
            with PhaseTimer(counters, "collect"):
                # Alg. 5 lines 5-7, for all touched vertices in one walk.
                u, s, du = map(np.concatenate, zip(*triples))
                by = np.lexsort((priority[s], u))
                for ui, si, di in zip(u[by].tolist(), s[by].tolist(), du[by].tolist()):
                    if di < delta[ui]:
                        delta[ui] = di
                        lists[ui].append((si, di))
            prev_pairs = table.size
            counters.table_rehash_cost += table.rehash_cost
        return LEListsResult(lists=lists, counters=counters)
