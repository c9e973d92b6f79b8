"""Parallel LE-lists (BGSS Alg. 5) with one-pass frontier maintenance.

Vertices are processed in prefix-doubling batches of a random priority
order.  Each batch runs a multi-BFS from all its sources simultaneously:
level by level (VGC is *not* applicable — the BFS order must be
preserved, paper Sec. 5.2), pruning a pair (u, s) unless its distance
beats the tentative distance delta(u) carried over from previous batches,
and deduplicating pairs in the phase-concurrent pair table.  At the end
of a batch, each touched vertex filters its candidate (source, distance)
triples in priority order against a running minimum and appends the
survivors to its LE-list; delta is updated to the new minimum.

Variants: ``"parlay"`` = the ParlayLib baseline (edge-revisit two-pass
frontier); ``"ours"`` = single-pass frontier, the hash bag's effect.  This
mirrors the paper, where LE-lists only benefit from the hash bag, not VGC.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import csr as csrmod
from repro.core.counters import Counters, PhaseTimer
from repro.core.engine import Engine, pair_pdf
from repro.core.pairtable import PairTable, heuristic_capacity

LE_VARIANTS = {
    "parlay": dict(two_pass=True),
    "ours": dict(two_pass=False),
}


@dataclass
class LEListsResult:
    lists: list[list[tuple[int, int]]]  # per vertex: (source, dist), priority order
    counters: Counters
    rounds: int = 0

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

        # Prefix-doubling batches 1, 2, 4, ... (Alg. 5 line 2).
        offset = 0
        bsz = 1
        rounds = 0
        prev_pairs = 0
        while offset < n:
            batch = order[offset : offset + bsz]
            offset += bsz
            bsz *= 2
            table = PairTable(n, capacity=64)
            table.reserve(heuristic_capacity(prev_pairs, n))
            # Triples S of this batch: (u, s) -> distance.
            triples: dict[int, list[tuple[int, int]]] = {}
            f_v: list[int] = []
            f_s: list[int] = []
            for s in batch.tolist():
                if 0 < delta[s]:
                    table.insert(s, s)
                    triples.setdefault(s, []).append((s, 0))
                    f_v.append(s)
                    f_s.append(s)
            d = 0
            with PhaseTimer(counters, "multi_bfs"):
                while f_v:
                    out = engine.round(
                        "lelists_round",
                        pair_pdf(f_v, f_s),
                        {
                            "delta": delta,
                            "d": d,
                            "table_keys": table.snapshot(),
                            "n": n,
                            "two_pass": cfg["two_pass"],
                        },
                    )
                    rounds += 1
                    d += 1
                    f_v, f_s = [], []
                    if len(out["v"]) == 0:
                        break
                    # First row of each (v, s) pair, kept in row order: it is the insert order.
                    first = np.sort(np.unique(out["v"] * n + out["s"], return_index=True)[1])
                    for v, s in zip(out["v"][first].tolist(), out["s"][first].tolist()):
                        if table.insert(int(v), int(s)):
                            counters.pair_inserts += 1
                            triples.setdefault(int(v), []).append((int(s), d))
                            f_v.append(int(v))
                            f_s.append(int(s))
            with PhaseTimer(counters, "collect"):
                # Alg. 5 lines 5-7: per-vertex priority-order filter.
                for u, cand in triples.items():
                    cand.sort(key=lambda t: priority[t[0]])
                    cur = delta[u]
                    for s, du in cand:
                        if du < cur:
                            cur = du
                            lists[u].append((s, du))
                    delta[u] = min(delta[u], cur)
            prev_pairs = table.size
            counters.table_rehash_cost += table.rehash_cost
        return LEListsResult(lists=lists, counters=counters, rounds=rounds)
