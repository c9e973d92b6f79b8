"""Multi-reachability search (paper Sec. 2, 4.3, 4.5).

Runs a batch of sources simultaneously, maintaining (vertex, source)
reachability pairs in a :class:`~repro.core.pairtable.PairTable` — the
phase-concurrent hash table of the paper.  Each round ships every
table's key set (:meth:`~repro.core.pairtable.PairTable.snapshot`) to
the ``multi_reach`` kernel, which drops a candidate pair whose key it
holds.  Cross edges (endpoints with different labels) and finished
vertices are skipped inside the kernel, as in BGSS's MultiReach.

Two sizing policies (Sec. 4.5):

- ``"heuristic"`` (ours): make each table with ``max(0.3 b, 1.5 a)``
  slots, where ``a`` = pairs produced by the previous batch and ``b`` =
  unfinished vertices; overflow-resizes are then rare.
- ``"exact"`` (GBBS-style): start tiny and grow on demand, paying the
  repeated rehashing the paper's Fig. 9 green bars show.

A table starts with the sources' keys ``s * (n + 1)``; each round's
distinct keys, which the kernel's snapshot probe has already made new, go
into it in one :meth:`~repro.core.pairtable.PairTable.insert` call.

``direction="both"`` runs a batch's forward and backward searches in
shared rounds, each with its own pair table sized by the same policy and
its own frontier; both only read ``labels`` and ``finished``.

Dense mode is deliberately absent: it is unsound for multi-reachability
(finding one frontier in-neighbor says nothing about the other sources).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine, merge_explored
from repro.core.pairtable import PairTable, heuristic_capacity


@dataclass
class MultiReachResult:
    pairs_v: np.ndarray
    pairs_s: np.ndarray
    rounds: int


@dataclass
class FwBwMultiReach:
    """The two searches of one ``direction="both"`` call."""

    fw: MultiReachResult
    bw: MultiReachResult

    @property
    def pairs_v(self) -> np.ndarray:
        """Vertices of all pairs found, forward then backward."""
        return np.concatenate([self.fw.pairs_v, self.bw.pairs_v])


def multi_reach(
    engine: Engine,
    sources: np.ndarray,
    labels: np.ndarray,
    finished: np.ndarray,
    *,
    direction: str = "fwd",
    tau: int = 1,
    two_pass: bool = False,
    sizing: str = "heuristic",
    prev_pairs_hint: int = 0,
) -> MultiReachResult | FwBwMultiReach:
    """``direction`` is ``"fwd"``, ``"bwd"`` or ``"both"``."""
    n = engine.n
    sources = np.asarray(sources, dtype=np.int64)
    sources = sources[~finished[sources]]
    dirs = ("fwd", "bwd") if direction == "both" else (direction,)
    unfinished = int(n - finished.sum())
    cap = heuristic_capacity(prev_pairs_hint, unfinished) if sizing == "heuristic" else 64
    tables = {d: PairTable(n, cap) for d in dirs}
    for table in tables.values():
        table.insert(sources * (n + 1))
    frontier = dict.fromkeys(dirs, {"v": sources, "s": sources})
    rounds = dict.fromkeys(dirs, 0)

    while live := [d for d in dirs if len(frontier[d]["v"])]:
        queries = [
            (
                "multi_reach",
                frontier[d],
                {
                    "direction": d,
                    "tau": tau,
                    "two_pass": two_pass,
                    "labels": labels,
                    "finished": finished,
                    "table_keys": tables[d].snapshot(),
                },
            )
            for d in live
        ]
        for d, out in zip(live, engine.run(queries)):
            rounds[d] += 1
            keys, explored = merge_explored(out["v"] * n + out["s"], out["explored"])
            engine.counters.pair_inserts += tables[d].insert(keys)
            keys = keys[~explored]  # ascending (v, s): fixes the next round's slicing
            frontier[d] = {"v": keys // n, "s": keys % n}

    res = {}
    for d, table in tables.items():
        engine.counters.table_rehash_cost += table.rehash_cost
        res[d] = MultiReachResult(*table.pairs(), rounds=rounds[d])
    return FwBwMultiReach(res["fwd"], res["bwd"]) if direction == "both" else res[direction]
