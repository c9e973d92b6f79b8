"""Low-diameter decomposition (Alg. 4's LDD subroutine).

Sources are injected into the running frontier in exponentially growing
batches (x1.2 per round, paper Sec. 5.1); every frontier vertex carries
its cluster label outward.  The paper's two optimizations map directly:

- ``two_pass=True`` (ConnectIt/"DHS'21" baseline) re-scans frontier edges
  — the edge-revisit scheme;
- ``tau > 1`` (ours) runs the local search so a cluster can grow several
  hops per round, over the frontier's edges in one pass (the hash bag's
  effect; the kernel's own ``seen`` dict is the next frontier).

Label races are resolved deterministically by minimum source priority
(stand-in for first-CAS-wins); a cluster is always contained in one
connected component, which is all the union-find finishing step needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.engine import Engine
from repro.core.scc import batch_sizes


@dataclass
class LDDResult:
    labels: np.ndarray  # cluster label (a source vertex id) per vertex
    rounds: int


def ldd(
    engine: Engine,
    order: np.ndarray,
    *,
    beta: float = 1.2,
    tau: int = 1,
    two_pass: bool = False,
) -> LDDResult:
    n = engine.n
    order = np.asarray(order, dtype=np.int64)
    priority = np.empty(n, dtype=np.int64)
    priority[order] = np.arange(n, dtype=np.int64)

    visited = np.zeros(n, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    sizes = batch_sizes(n, beta)

    f_v = np.empty(0, dtype=np.int64)
    f_l = np.empty(0, dtype=np.int64)
    offset = 0
    bi = 0
    rounds = 0
    while bi < len(sizes) or len(f_v):
        # Inject the next batch of unvisited sources (Alg. 4 line 17):
        # one batch per round, growing by ~beta.
        if bi < len(sizes):
            batch = order[offset : offset + sizes[bi]]
            offset += sizes[bi]
            bi += 1
            batch = batch[~visited[batch]]
            visited[batch] = True
            labels[batch] = batch
            f_v = np.concatenate([f_v, batch])
            f_l = np.concatenate([f_l, batch])
        if not len(f_v):
            continue
        out = engine.round(
            "ldd_reach",
            pd.DataFrame({"v": f_v, "lab": f_l}),
            {"visited": visited, "tau": tau, "two_pass": two_pass},
        )
        rounds += 1
        f_v = f_l = np.empty(0, dtype=np.int64)
        if len(out):
            out = out.assign(prio=priority[out["lab"].to_numpy(dtype=np.int64)])
            out = out.sort_values("prio", kind="stable")
            explored_any = np.zeros(n, dtype=bool)
            explored = out["explored"].to_numpy(dtype=bool)
            explored_any[out["v"].to_numpy(dtype=np.int64)[explored]] = True
            winner = out.drop_duplicates("v", keep="first")
            wv = winner["v"].to_numpy(dtype=np.int64)
            visited[wv] = True
            labels[wv] = winner["lab"].to_numpy(dtype=np.int64)
            # A vertex continues only if no task finished expanding it.
            f_v = wv[~explored_any[wv]]
            f_l = labels[f_v]
    return LDDResult(labels=labels, rounds=rounds)
