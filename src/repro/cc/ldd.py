"""Low-diameter decomposition (Alg. 4's LDD subroutine).

Sources are injected into the running frontier in exponentially growing
batches (x1.2 per round, paper Sec. 5.1); every frontier vertex carries
its cluster label outward.  The paper's two optimizations map directly:

- ``two_pass=True`` (ConnectIt/"DHS'21" baseline) re-scans frontier edges
  — the edge-revisit scheme;
- ``tau > 1`` (ours) runs the local search so a cluster can grow several
  hops per round, over the frontier's edges in one pass (the hash bag's
  effect; the vertices a task admits but does not expand are the next
  frontier).

Each round is a single-reachability sparse round (``k_sparse_reach``,
submitted as ``ldd_reach``) whose frontier rows carry a ``lab`` column.

Label races are resolved deterministically by minimum source priority
(stand-in for first-CAS-wins); a cluster is always contained in one
connected component, which is all the union-find finishing step needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Engine
from repro.core.scc import batches

LDD_BETA = 1.2  # the batches' growth per round, as in Sec. 5.1


@dataclass
class LDDResult:
    labels: np.ndarray  # cluster label (a source vertex id) per vertex
    rounds: int


def ldd(
    engine: Engine,
    order: np.ndarray,
    *,
    tau: int = 1,
    two_pass: bool = False,
) -> LDDResult:
    n = engine.n
    order = np.asarray(order, dtype=np.int64)
    priority = np.empty(n, dtype=np.int64)
    priority[order] = np.arange(n, dtype=np.int64)

    visited = np.zeros(n, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    todo = batches(order, LDD_BETA)[::-1]

    f_v = np.empty(0, dtype=np.int64)
    f_l = np.empty(0, dtype=np.int64)
    rounds = 0
    while todo or len(f_v):
        # Inject the next batch of unvisited sources (Alg. 4 line 17):
        # one batch per round, growing by ~LDD_BETA.
        if todo:
            batch = todo.pop()
            batch = batch[~visited[batch]]
            visited[batch] = True
            labels[batch] = batch
            f_v = np.concatenate([f_v, batch])
            f_l = np.concatenate([f_l, batch])
        if not len(f_v):
            continue
        out = engine.round(
            "ldd_reach",
            {"v": f_v, "lab": f_l},
            {"direction": "fwd", "visited": visited, "tau": tau, "two_pass": two_pass},
        )
        rounds += 1
        f_v = f_l = np.empty(0, dtype=np.int64)
        v, lab, explored = out["v"], out["lab"], out["explored"]
        if len(v):
            by_prio = np.argsort(priority[lab], kind="stable")
            # First row of each vertex in priority order, kept in that order.
            first = by_prio[np.sort(np.unique(v[by_prio], return_index=True)[1])]
            wv = v[first]
            visited[wv] = True
            labels[wv] = lab[first]
            # A vertex continues only if no task finished expanding it.
            f_v = wv[~np.isin(wv, v[explored])]
            f_l = labels[f_v]
    return LDDResult(labels=labels, rounds=rounds)
