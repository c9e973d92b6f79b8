"""Single-reachability search (paper Sec. 3.1-3.2, 4.2).

Driver loop over engine rounds.  Sparse rounds run the tau-bounded local
search kernel (VGC); when the frontier gets large the search flips to the
Ligra *dense* mode (each unvisited vertex scans its in-neighbors and
early-exits on the first frontier hit) — the direction-optimizing trick
the paper keeps for the first-SCC search.  Dense mode is only valid for
single-reachability (the paper explains why it cannot apply to
multi-reachability), which this module enforces by construction.

State lives on the driver as numpy arrays — the shared-memory analogue —
and every round ships a read-only snapshot to the kernel; the driver-side
merge plays the role of the CAS on ``visit[]`` (exactly one winner per
vertex per round, order-insensitive so results are deterministic).

``direction="both"`` runs the forward and the backward search from the
same sources in shared rounds: each keeps its own visited set, frontier
and dense/sparse choice, and every round is one engine call with one
query per direction still running.  Both only read ``finished`` and
``restrict``, so each search's rounds are those it would take alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine, frontier_pdf, merge_explored

DENSE_DENOM = 20  # Ligra/GBBS: go dense when frontier degree sum > m/20


@dataclass
class ReachResult:
    visited: np.ndarray  # bool[n]
    rounds: int = 0
    sparse_rounds: int = 0
    dense_rounds: int = 0


@dataclass
class FwBwReach:
    """The two searches of one ``direction="both"`` call."""

    fw: ReachResult
    bw: ReachResult

    @property
    def sparse_rounds(self) -> int:
        return self.fw.sparse_rounds + self.bw.sparse_rounds

    @property
    def dense_rounds(self) -> int:
        return self.fw.dense_rounds + self.bw.dense_rounds


def single_reach(
    engine: Engine,
    sources: np.ndarray,
    *,
    direction: str = "fwd",
    tau: int = 1,
    two_pass: bool = False,
    dense: bool = True,
    finished: np.ndarray | None = None,
    restrict: np.ndarray | None = None,
) -> ReachResult | FwBwReach:
    """Reach everything reachable from ``sources`` (multi-source allowed;
    all sources share one visited set — used by FW-BW/Multi-step too).
    ``direction`` is ``"fwd"``, ``"bwd"`` or ``"both"``."""
    n = engine.n
    sources = np.asarray(sources, dtype=np.int64)
    if finished is not None:
        sources = sources[~finished[sources]]
    indptr, _, indptr_t, _ = engine._local_g
    dirs = ("fwd", "bwd") if direction == "both" else (direction,)
    deg = {d: np.diff(indptr if d == "fwd" else indptr_t) for d in dirs}
    dense_at = {d: max(1, int(deg[d].sum())) // DENSE_DENOM for d in dirs}
    res = {d: ReachResult(np.zeros(n, dtype=bool)) for d in dirs}
    for r in res.values():
        r.visited[sources] = True
    frontier = dict.fromkeys(dirs, np.unique(sources))

    while live := [d for d in dirs if len(frontier[d])]:
        queries = []
        for d in live:
            visited = res[d].visited
            work = int(len(frontier[d]) + deg[d][frontier[d]].sum())
            if dense and work > dense_at[d]:
                in_frontier = np.zeros(n, dtype=bool)
                in_frontier[frontier[d]] = True
                cand = np.flatnonzero(~visited if finished is None else ~(visited | finished))
                p = {"in_frontier": in_frontier}
                queries.append(("dense_reach", frontier_pdf(cand), p))
            else:
                p = {"visited": visited, "finished": finished, "tau": tau, "two_pass": two_pass}
                queries.append(("sparse_reach", frontier_pdf(frontier[d]), p))
            p.update(direction=d, restrict=restrict)
        for d, (kernel, _, _), out in zip(live, queries, engine.run(queries)):
            r = res[d]
            r.rounds += 1
            # A dense round's rows are unvisited candidates, none explored.
            vs, explored = merge_explored(out["v"], out["explored"])
            r.visited[vs] = True
            frontier[d] = vs[~explored]
            if kernel == "dense_reach":
                r.dense_rounds += 1
            else:
                r.sparse_rounds += 1
    return FwBwReach(res["fwd"], res["bwd"]) if direction == "both" else res[direction]
