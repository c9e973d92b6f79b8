"""Expansion kernels: the per-round work of every traversal in this repo.

Each kernel is a pure function ``kernel(pdf_in, graph_arrays, params) ->
pdf_out`` over numpy/pandas data.  The same function runs in two places:

- driver-side, for tiny inputs (granularity cutoff), and
- inside Spark executors, one call per frontier slice (see
  ``engine.Engine``), where ``graph_arrays`` comes from a broadcast CSR
  and ``params`` rides in the task closure.  One executor task == one
  "processor" of the paper; one engine round == one global barrier.

The central routine is :func:`local_search`, the paper's tau-bounded
*local search* (Sec. 3.1-3.2, Fig. 4), shared by single-reachability
(:func:`k_sparse_reach`), multi-reachability (:func:`k_multi_reach`,
Sec. 4.3) and LDD (:func:`k_ldd_reach`, Sec. 5.1):

- a frontier vertex with out-degree > tau processes all its neighbors the
  standard (one-hop) way — there is already enough work;
- otherwise it runs a sequential BFS from itself in a local queue,
  counting every neighbor visit (successful or not) and stopping at tau;
  fully-expanded vertices are *not* re-queued, while the unexpanded
  remainder of the local queue is handed back as next-round frontier.
  The start vertex itself is always fully expanded (the budget cannot
  run out inside its own edges), and ``admit`` only adds unvisited
  vertices, so the remainder never holds a vertex visited before the round.

The kernels differ only in their ``admit(x, u)`` test — may edge (x, u)
add u to the search? — and in the rows they emit.  ``tau=1`` degenerates
to plain one-hop BFS (the paper's "plain"/GBBS setting); ``two_pass=True``
re-scans the frontier's edges a second time, reproducing the Ligra/GBBS
*edge-revisit* scheme that the parallel hash bag removes.  The hash bag is
reproduced by that effect, one pass over the frontier's edges as the
visit counter shows, not as a data structure: a task emits the vertices
its own ``seen`` set (or hit list) already holds, and the driver merge
dedupes and sorts across tasks.

Output convention: candidate rows plus one sentinel row with ``v == -1``
whose ``visits`` column carries the task's edge-visit count (all other
rows have ``visits == 0``).
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd

from repro.core.pairtable import contains_static

SENTINEL = -1


def local_search(
    ip, ix, v: int, tau: int, admit: Callable[[int, int], bool]
) -> tuple[list[int], int, int]:
    """Tau-bounded local search from ``v`` over the CSR ``(ip, ix)``.

    ``admit(x, u)`` decides whether edge (x, u) adds u to the search and
    records u if so.  Returns ``(queue, qi, visits)``: ``queue[:qi]`` were
    fully expanded; ``queue[qi:]``, all admitted, go to the next round.
    ``queue[0] == v`` and ``qi >= 1``: the budget cannot run out inside
    v's own edges.  A vertex with out-degree > tau expands one hop and
    returns ``([v] + admitted, 1, deg)``.
    """
    lo, hi = int(ip[v]), int(ip[v + 1])
    if hi - lo > tau:
        # Standard one-hop processing: enough work already (Sec. 3.2).
        return [v] + [u for u in ix[lo:hi].tolist() if admit(v, u)], 1, hi - lo
    queue = [v]
    qi = 0
    t = 0
    while qi < len(queue):
        x = queue[qi]
        lo, hi = int(ip[x]), int(ip[x + 1])
        cut = False
        for j, u in enumerate(ix[lo:hi].tolist()):
            t += 1
            if admit(x, u):
                queue.append(u)
            if t >= tau and j != hi - lo - 1:
                cut = True  # x only partially expanded
                break
        if not cut:
            qi += 1
        if t >= tau:
            break
    return queue, qi, t


def _revisits(ip, vs: np.ndarray) -> int:
    """Edge-revisit second pass: one more scan of every edge incident to
    the frontier (the "output" pass of Ligra/GBBS).  Work only."""
    return int((ip[vs + 1] - ip[vs]).sum())


def _frame(cols: dict[str, np.ndarray], visits: int) -> pd.DataFrame:
    """Candidate columns (``v`` first) plus a ``visits`` column and the
    sentinel row carrying the task's edge-visit count."""
    out = {k: np.concatenate([a, np.zeros(1, a.dtype)]) for k, a in cols.items()}
    out["v"][-1] = SENTINEL
    out["visits"] = np.zeros(len(out["v"]), dtype=np.int64)
    out["visits"][-1] = visits
    return pd.DataFrame(out)


def k_sparse_reach(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """Single-reachability sparse round with VGC local search.

    params: direction ('fwd'|'bwd'), visited (bool[n] snapshot), tau,
    two_pass, finished (bool[n] or None), restrict (int[n] or None —
    traverse edge (x,u) only if restrict[x] == restrict[u]).
    """
    indptr, indices, indptr_t, indices_t = g
    ip, ix = (indptr, indices) if p["direction"] == "fwd" else (indptr_t, indices_t)
    visited = p["visited"]
    finished = p.get("finished")
    restrict = p.get("restrict")
    tau = int(p["tau"])
    sources = pdf["v"].to_numpy(dtype=np.int64)
    seen: set[int] = set()  # task-local "my writes" view of visit[]
    explored: set[int] = set()
    visits = 0

    def admit(x: int, u: int) -> bool:
        if visited[u] or u in seen:
            return False
        if finished is not None and finished[u]:
            return False
        if restrict is not None and restrict[u] != restrict[x]:
            return False
        seen.add(u)
        return True

    for v in sources.tolist():
        queue, qi, t = local_search(ip, ix, v, tau, admit)
        visits += t
        explored.update(queue[:qi])
        explored.difference_update(queue[qi:])
    if p.get("two_pass"):
        visits += _revisits(ip, sources)
    vs = np.fromiter(seen, dtype=np.int64, count=len(seen))
    flags = np.fromiter((u in explored for u in seen), dtype=bool, count=len(seen))
    return _frame({"v": vs, "explored": flags}, visits)


def k_dense_reach(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """Ligra-style dense round (Sec. 4.2): each *unvisited* vertex scans
    its in-neighbors (w.r.t. the search direction) and joins the visited
    set on the first neighbor found in the current frontier.

    params: direction, in_frontier (bool[n]), finished, restrict.
    Input rows: the unvisited candidate vertices.
    """
    indptr, indices, indptr_t, indices_t = g
    # For a forward search, "who can reach me" = in-neighbors = transpose.
    ip, ix = (indptr_t, indices_t) if p["direction"] == "fwd" else (indptr, indices)
    in_frontier = p["in_frontier"]
    finished = p.get("finished")
    restrict = p.get("restrict")
    cand = pdf["v"].to_numpy(dtype=np.int64)
    hits: list[int] = []
    visits = 0
    for u in cand.tolist():
        if finished is not None and finished[u]:
            continue
        for w in ix[ip[u] : ip[u + 1]].tolist():
            visits += 1
            if restrict is not None and restrict[w] != restrict[u]:
                continue
            if in_frontier[w]:
                hits.append(u)
                break  # early exit: skip the rest of u's edges
    vs = np.asarray(hits, dtype=np.int64)
    return _frame({"v": vs, "explored": np.zeros(len(vs), dtype=bool)}, visits)


def k_multi_reach(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """Multi-reachability sparse round over (v, s) pairs (Sec. 4.3).

    params: direction, tau, two_pass, labels (int[n]), finished
    (bool[n]), table_keys (PairTable snapshot), n.
    A pair (v, s) local-searches from v, skipping cross edges
    (labels differ) and finished vertices; a reached vertex u yields the
    candidate pair (u, s) unless the snapshot table already has it.
    """
    indptr, indices, indptr_t, indices_t = g
    ip, ix = (indptr, indices) if p["direction"] == "fwd" else (indptr_t, indices_t)
    labels = p["labels"]
    finished = p["finished"]
    keys = p["table_keys"]
    n = int(p["n"])
    tau = int(p["tau"])
    vs = pdf["v"].to_numpy(dtype=np.int64)
    ss = pdf["s"].to_numpy(dtype=np.int64)
    seen: set[tuple[int, int]] = set()
    out_v: list[int] = []
    out_s: list[int] = []
    out_e: list[bool] = []
    visits = 0

    def admit(x: int, u: int) -> bool:
        if finished[u] or labels[u] != labels[x]:
            return False
        if (u, s) in seen or contains_static(keys, u, s, n):
            return False
        seen.add((u, s))
        return True

    for v, s in zip(vs.tolist(), ss.tolist()):
        queue, qi, t = local_search(ip, ix, v, tau, admit)
        visits += t
        done = set(queue[:qi])
        rows = queue[1:]
        out_v += rows
        out_s += [s] * len(rows)
        out_e += [u in done for u in rows]
    if p.get("two_pass"):
        visits += _revisits(ip, vs)
    return _frame(
        {
            "v": np.asarray(out_v, dtype=np.int64),
            "s": np.asarray(out_s, dtype=np.int64),
            "explored": np.asarray(out_e, dtype=bool),
        },
        visits,
    )


def k_ldd_reach(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """LDD round (Alg. 4 lines 12-16) with optional local search.

    Input rows (v, lab): frontier vertex carrying its cluster label.
    params: visited (bool[n] snapshot), tau, two_pass.
    Candidates (u, lab, explored); the driver resolves label races by
    minimum source priority (deterministic stand-in for first-CAS-wins)
    with a stable sort, so the row order is part of the result: ``seen``
    in insertion order.
    """
    ip, ix, _, _ = g
    visited = p["visited"]
    tau = int(p["tau"])
    vs = pdf["v"].to_numpy(dtype=np.int64)
    labs = pdf["lab"].to_numpy(dtype=np.int64)
    seen: dict[int, int] = {}
    explored: set[int] = set()
    visits = 0

    def admit(x: int, u: int) -> bool:
        if visited[u] or u in seen:
            return False
        seen[u] = lab
        return True

    for v, lab in zip(vs.tolist(), labs.tolist()):
        queue, qi, t = local_search(ip, ix, v, tau, admit)
        visits += t
        explored.update(queue[:qi])
        explored.difference_update(queue[qi:])
    if p.get("two_pass"):
        visits += _revisits(ip, vs)
    return _frame(
        {
            "v": np.asarray(list(seen), dtype=np.int64),
            "lab": np.asarray(list(seen.values()), dtype=np.int64),
            "explored": np.asarray([u in explored for u in seen], dtype=bool),
        },
        visits,
    )


def k_lelists_round(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """One distance level of the batched multi-BFS for LE-lists (Alg. 5).

    VGC is *not* applicable (BFS order must be preserved — paper Sec. 5.2);
    rounds advance exactly one hop.  params: delta (float[n], previous-
    batch tentative distances), d (current distance), table_keys, n,
    two_pass.  A pair (u, s) is a candidate iff d+1 < delta[u] and (u, s)
    is not already in the pair table.
    """
    ip, ix, _, _ = g
    delta = p["delta"]
    d1 = int(p["d"]) + 1
    keys = p["table_keys"]
    n = int(p["n"])
    vs = pdf["v"].to_numpy(dtype=np.int64)
    ss = pdf["s"].to_numpy(dtype=np.int64)
    seen: set[tuple[int, int]] = set()
    out_v: list[int] = []
    out_s: list[int] = []
    visits = 0
    for v, s in zip(vs.tolist(), ss.tolist()):
        for u in ix[ip[v] : ip[v + 1]].tolist():
            visits += 1
            if d1 >= delta[u]:
                continue
            if (u, s) in seen or contains_static(keys, u, s, n):
                continue
            seen.add((u, s))
            out_v.append(u)
            out_s.append(s)
    if p.get("two_pass"):
        visits += _revisits(ip, vs)
    return _frame(
        {"v": np.asarray(out_v, dtype=np.int64), "s": np.asarray(out_s, dtype=np.int64)},
        visits,
    )


def k_color_max(pdf: pd.DataFrame, g, p) -> pd.DataFrame:
    """Multi-step coloring round: propagate max color along out-edges.

    params: colors (int[n]), active (bool[n]).  Input rows: vertices whose
    color changed last round.  Output rows (v, lab): proposed new colors;
    the driver keeps the max per vertex.
    """
    indptr, indices, _, _ = g
    colors = p["colors"]
    active = p["active"]
    vs = pdf["v"].to_numpy(dtype=np.int64)
    best: dict[int, int] = {}
    visits = 0
    for v in vs.tolist():
        cv = int(colors[v])
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            visits += 1
            if active[u] and colors[u] < cv and best.get(u, -1) < cv:
                best[u] = cv
    return _frame(
        {
            "v": np.fromiter(best.keys(), dtype=np.int64, count=len(best)),
            "lab": np.fromiter(best.values(), dtype=np.int64, count=len(best)),
        },
        visits,
    )


KERNELS = {
    "sparse_reach": k_sparse_reach,
    "dense_reach": k_dense_reach,
    "multi_reach": k_multi_reach,
    "ldd_reach": k_ldd_reach,
    "lelists_round": k_lelists_round,
    "color_max": k_color_max,
}
