"""Multi-reachability search (paper Sec. 2, 4.3, 4.5).

Runs a batch of sources simultaneously, maintaining (vertex, source)
reachability pairs in a :class:`~repro.core.pairtable.PairTable` — the
phase-concurrent hash table of the paper.  Cross edges (endpoints with
different labels) and finished vertices are skipped inside the kernel, as
in BGSS's MultiReach.

Two sizing policies (Sec. 4.5):

- ``"heuristic"`` (ours): pre-reserve ``max(0.3 b, 1.5 a)`` slots, where
  ``a`` = pairs produced by the previous batch and ``b`` = unfinished
  vertices; overflow-resizes are then rare.
- ``"exact"`` (GBBS-style): start tiny and grow on demand, paying the
  repeated rehashing the paper's Fig. 9 green bars show.

``direction="both"`` runs a batch's forward and backward searches in
shared rounds, each with its own pair table sized by the same policy and
its own frontier; both only read ``labels`` and ``finished``.

Dense mode is deliberately absent: it is unsound for multi-reachability
(finding one frontier in-neighbor says nothing about the other sources).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine, pair_pdf
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
    tables = {d: PairTable(n, capacity=64) for d in dirs}
    frontier = dict.fromkeys(dirs, (sources, sources))
    rounds = dict.fromkeys(dirs, 0)
    for table in tables.values():
        if sizing == "heuristic":
            table.reserve(heuristic_capacity(prev_pairs_hint, int(n - finished.sum())))
        for s in sources.tolist():
            table.insert(s, s)

    while live := [d for d in dirs if len(frontier[d][0])]:
        queries = [
            (
                "multi_reach",
                pair_pdf(*frontier[d]),
                {
                    "direction": d,
                    "tau": tau,
                    "two_pass": two_pass,
                    "labels": labels,
                    "finished": finished,
                    "table_keys": tables[d].snapshot(),
                    "n": n,
                },
            )
            for d in live
        ]
        for d, out in zip(live, engine.run(queries)):
            rounds[d] += 1
            grp = out.groupby(["v", "s"])["explored"].max().reset_index()
            nf_v: list[int] = []
            nf_s: list[int] = []
            for v, s, explored in zip(
                grp["v"].tolist(), grp["s"].tolist(), grp["explored"].tolist()
            ):
                if tables[d].insert(int(v), int(s)):
                    engine.counters.pair_inserts += 1
                if not explored:
                    nf_v.append(int(v))
                    nf_s.append(int(s))
            frontier[d] = (np.asarray(nf_v, dtype=np.int64), np.asarray(nf_s, dtype=np.int64))

    res = {}
    for d, table in tables.items():
        engine.counters.table_rehash_cost += table.rehash_cost
        res[d] = MultiReachResult(*table.pairs(), rounds=rounds[d])
    return FwBwMultiReach(res["fwd"], res["bwd"]) if direction == "both" else res[direction]
