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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine, frontier_pdf

DENSE_DENOM = 20  # Ligra/GBBS: go dense when frontier degree sum > m/20


@dataclass
class ReachResult:
    visited: np.ndarray  # bool[n]
    rounds: int
    sparse_rounds: int
    dense_rounds: int


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
) -> ReachResult:
    """Reach everything reachable from ``sources`` (multi-source allowed;
    all sources share one visited set — used by FW-BW/Multi-step too)."""
    n = engine.n
    visited = np.zeros(n, dtype=bool)
    sources = np.asarray(sources, dtype=np.int64)
    if finished is not None:
        sources = sources[~finished[sources]]
    visited[sources] = True
    frontier = np.unique(sources)

    indptr, indices, indptr_t, indices_t = engine._local_g
    deg = np.diff(indptr) if direction == "fwd" else np.diff(indptr_t)
    m_dir = int(deg.sum())

    rounds = sparse_rounds = dense_rounds = 0
    while len(frontier) > 0:
        frontier_work = int(len(frontier) + deg[frontier].sum())
        use_dense = dense and frontier_work > max(1, m_dir) // DENSE_DENOM
        if use_dense:
            in_frontier = np.zeros(n, dtype=bool)
            in_frontier[frontier] = True
            cand = np.flatnonzero(~visited)
            if finished is not None:
                cand = cand[~finished[cand]]
            out = engine.round(
                "dense_reach",
                frontier_pdf(cand),
                {
                    "direction": direction,
                    "in_frontier": in_frontier,
                    "finished": finished,
                    "restrict": restrict,
                },
            )
            new = np.unique(out["v"].to_numpy(dtype=np.int64)) if len(out) else np.empty(0, np.int64)
            new = new[~visited[new]]
            visited[new] = True
            frontier = new
            dense_rounds += 1
        else:
            out = engine.round(
                "sparse_reach",
                frontier_pdf(frontier),
                {
                    "direction": direction,
                    "visited": visited,
                    "tau": tau,
                    "two_pass": two_pass,
                    "finished": finished,
                    "restrict": restrict,
                },
            )
            if len(out):
                grp = out.groupby("v")["explored"].max()
                vs = grp.index.to_numpy(dtype=np.int64)
                explored = grp.to_numpy(dtype=bool)
                visited[vs] = True
                frontier = vs[~explored]
            else:
                frontier = np.empty(0, np.int64)
            sparse_rounds += 1
        rounds += 1
    return ReachResult(
        visited=visited,
        rounds=rounds,
        sparse_rounds=sparse_rounds,
        dense_rounds=dense_rounds,
    )


def bfs_level_count(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    finished: np.ndarray | None = None,
) -> int:
    """Number of BFS levels a plain (tau=1) search would need — the
    x-axis baseline of the paper's Fig. 10 round-reduction study.
    Pure driver computation; does not touch the engine counters."""
    n = len(indptr) - 1
    visited = np.zeros(n, dtype=bool)
    frontier = np.asarray(sources, dtype=np.int64)
    if finished is not None:
        frontier = frontier[~finished[frontier]]
    visited[frontier] = True
    levels = 0
    while len(frontier):
        nxt: list[int] = []
        for v in frontier.tolist():
            for u in indices[indptr[v] : indptr[v + 1]].tolist():
                if (finished is None or not finished[u]) and not visited[u]:
                    visited[u] = True
                    nxt.append(u)
        frontier = np.asarray(nxt, dtype=np.int64)
        levels += 1
    return levels
