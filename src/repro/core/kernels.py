"""Expansion kernels: the per-round work of every traversal in this repo.

Each kernel is a pure function ``kernel(cols, graph_arrays, params) ->
(cols_out, visits)`` over numpy data: ``cols`` maps each frontier column
to one slice of it, ``cols_out`` holds the candidate columns (``v``
first) and ``visits`` is the slice's edge-visit count.  The same function
runs in two places:

- driver-side, for tiny inputs (granularity cutoff), and
- inside Spark executors, one call per frontier slice (see
  ``engine.Engine``), where ``graph_arrays`` comes from a broadcast CSR
  and ``params`` rides in each task's input element, beside its slices.
  One executor task == one "processor" of the paper; one engine round ==
  one global barrier.

The central routine is :func:`local_search`, the paper's tau-bounded
*local search* (Sec. 3.1-3.2, Fig. 4), shared by single-reachability
(:func:`k_sparse_reach`; LDD's cluster growth, Sec. 5.1, is its rounds
under the name ``ldd_reach``) and multi-reachability
(:func:`k_multi_reach`, Sec. 4.3; LE-lists' BFS levels are its rounds at
tau = 1, Sec. 5.2):

- a frontier vertex with out-degree > tau processes all its neighbors the
  standard (one-hop) way — there is already enough work;
- otherwise it runs a sequential BFS from itself in a local queue,
  counting every neighbor visit (successful or not) and stopping at tau;
  fully-expanded vertices are *not* re-queued, while the unexpanded
  remainder of the local queue is handed back as next-round frontier.
  The start vertex itself is always fully expanded (the budget cannot
  run out inside its own edges), and ``admit`` only adds unvisited
  vertices, so the remainder never holds a vertex visited before the round.

The kernels differ only in their ``admit(x, nbrs)`` test — which of x's
neighbours join the search? — and in the rows they emit.  ``tau=1``
degenerates to plain one-hop BFS (the paper's "plain"/GBBS setting);
``two_pass=True`` re-scans the frontier's edges a second time,
reproducing the Ligra/GBBS *edge-revisit* scheme that the parallel hash
bag removes.  The hash bag is reproduced by that effect, one pass over
the frontier's edges as the visit counter shows, not as a data
structure: a task emits what its searches admitted, in admission order
(or, in a dense round, its hit list), and the driver merge dedupes and
sorts across tasks.

The paper's local search is a tight sequential loop; here every step of
it is an interpreter step, so the kernels are written to take few of
them per edge visit.  They read the CSR and the n-sized round state
(``visited``, ``finished``, ``restrict``, ``labels``, ...) through
``memoryview``, whose items are plain ints and bools: no numpy scalar
is boxed and no per-vertex slice is copied by ``.tolist()``.  The pair
table's snapshot is a ``set`` of packed keys, probed with ``in``.
``local_search`` applies its budget per vertex and calls ``admit`` once
per expanded vertex with all the neighbours the budget reaches, not once
per edge.  Where a kernel takes each vertex at most once per task
(single-reachability), one ``bytearray`` marks what is visited, finished
or already admitted.  On the driver-path replay of every kernel
call of eight cc-road graphs (4-core host) ``ldd_reach`` cost 0.45 µs per
edge visit with numpy reads and one ``admit`` call per edge, and 0.20 µs
written this way; the rows, their order and the visit counts are the same.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Cols = dict[str, np.ndarray]  # one slice's columns, in or out of a kernel


def local_search(
    ip, ix, v: int, tau: int, admit: Callable[[int, Sequence[int]], list[int]]
) -> tuple[list[int], int, int]:
    """Tau-bounded local search from ``v`` over the CSR ``(ip, ix)``.

    ``admit(x, nbrs)`` takes the neighbours of ``x`` that the budget
    reaches, in CSR order, records the ones that join the search and
    returns them in that order; it is called once per expanded vertex.
    Returns ``(queue, qi, visits)``: ``queue[:qi]`` were fully expanded;
    ``queue[qi:]``, all admitted, go to the next round.  ``queue[0] == v``,
    ``qi >= 1`` (the budget cannot run out inside v's own edges) and
    ``queue[1:]`` is exactly what ``admit`` returned, in order.  A vertex
    x whose edges overrun the budget passes only the first ``tau - t`` of
    them (t: the visits so far) and stays unexpanded.  A vertex with
    out-degree > tau expands one hop and returns ``([v] + admitted, 1,
    deg)``.
    """
    lo, hi = ip[v], ip[v + 1]
    if hi - lo > tau:
        # Standard one-hop processing: enough work already (Sec. 3.2).
        return [v] + admit(v, ix[lo:hi]), 1, hi - lo
    queue = [v]
    qi = t = 0
    while qi < len(queue):
        x = queue[qi]
        lo, hi = ip[x], ip[x + 1]
        if hi - lo > tau - t:
            queue += admit(x, ix[lo : lo + tau - t])  # x only partially expanded
            return queue, qi, tau
        queue += admit(x, ix[lo:hi])
        t += hi - lo
        qi += 1
        if t == tau:
            break
    return queue, qi, t


def _first_visits(mark: bytearray) -> Callable[[int, Sequence[int]], list[int]]:
    """An ``admit`` that takes each vertex whose ``mark`` byte is 0 and marks it."""

    def admit(x: int, nbrs: Sequence[int]) -> list[int]:
        out = []
        for u in nbrs:
            if not mark[u]:
                mark[u] = 1
                out.append(u)
        return out

    return admit


def _revisits(ip, vs: np.ndarray) -> int:
    """Edge-revisit second pass: one more scan of every edge incident to
    the frontier (the "output" pass of Ligra/GBBS).  Work only."""
    return int((ip[vs + 1] - ip[vs]).sum())


def k_sparse_reach(cols: Cols, g, p) -> tuple[Cols, int]:
    """Single-reachability sparse round with VGC local search; LDD's
    round (Alg. 4 lines 12-16) is this kernel too, run as ``ldd_reach``.

    params: direction ('fwd'|'bwd'), visited (bool[n] snapshot, holding
    the frontier), tau, two_pass, finished (bool[n] or None), restrict
    (int[n] or None — traverse edge (x,u) only if restrict[x] ==
    restrict[u]).  Rows (v, explored) come in admission order: each
    source's ``queue[1:]`` in turn.  If the frontier has a ``lab`` column
    (LDD's cluster labels), each row also carries its source's label as
    (v, lab, explored); the LDD driver resolves label races by minimum
    source priority (deterministic stand-in for first-CAS-wins) with a
    stable sort, so the row order is part of its result.
    """
    indptr, indices, indptr_t, indices_t = g
    ip, ix = (indptr, indices) if p["direction"] == "fwd" else (indptr_t, indices_t)
    visited, finished, restrict = p["visited"], p.get("finished"), p.get("restrict")
    # Visited before the round, finished, or admitted by this task.
    mark = bytearray(visited if finished is None else visited | finished)
    if restrict is None:
        admit = _first_visits(mark)
    else:
        rs = memoryview(restrict)

        def admit(x: int, nbrs: Sequence[int]) -> list[int]:
            rx = rs[x]
            out = []
            for u in nbrs:
                if not mark[u] and rs[u] == rx:
                    mark[u] = 1
                    out.append(u)
            return out

    ipm, ixm = memoryview(ip), memoryview(ix)
    tau = int(p["tau"])
    sources = cols["v"]
    out_v: list[int] = []
    out_e: list[bool] = []
    counts: list[int] = []  # rows per source
    visits = 0
    for v in sources.tolist():
        queue, qi, t = local_search(ipm, ixm, v, tau, admit)
        visits += t
        k = len(queue) - 1
        out_v += queue[1:]
        # Final: no later search re-admits a vertex or starts from one.
        out_e += [True] * (qi - 1) + [False] * (k + 1 - qi)
        counts.append(k)
    if p.get("two_pass"):
        visits += _revisits(ip, sources)
    out = {"v": np.asarray(out_v, dtype=np.int64)}
    if "lab" in cols:
        out["lab"] = np.repeat(np.asarray(cols["lab"], dtype=np.int64), counts)
    out["explored"] = np.asarray(out_e, dtype=bool)
    return out, visits


def k_dense_reach(cols: Cols, g, p) -> tuple[Cols, int]:
    """Ligra-style dense round (Sec. 4.2): each candidate vertex scans its
    in-neighbors (w.r.t. the search direction) and joins the visited set
    on the first neighbor found in the current frontier.

    params: direction, in_frontier (bool[n]), restrict (int[n] or None).
    Input rows: the candidates, neither visited nor finished (the driver
    drops finished vertices, as no search enters them).  Rows (v,
    explored): each hit once, in input order, never explored.
    """
    indptr, indices, indptr_t, indices_t = g
    # For a forward search, "who can reach me" = in-neighbors = transpose.
    ip, ix = (indptr_t, indices_t) if p["direction"] == "fwd" else (indptr, indices)
    ip, ix = memoryview(ip), memoryview(ix)
    in_frontier = memoryview(p["in_frontier"])
    restrict = p.get("restrict")
    restrict = None if restrict is None else memoryview(restrict)
    hits: list[int] = []
    visits = 0
    for u in cols["v"].tolist():
        ru = None if restrict is None else restrict[u]
        for w in ix[ip[u] : ip[u + 1]]:
            visits += 1
            if in_frontier[w] and (ru is None or restrict[w] == ru):
                hits.append(u)
                break  # early exit: skip the rest of u's edges
    vs = np.asarray(hits, dtype=np.int64)
    return {"v": vs, "explored": np.zeros(len(vs), dtype=bool)}, visits


def k_multi_reach(cols: Cols, g, p) -> tuple[Cols, int]:
    """Multi-reachability sparse round over (v, s) pairs (Sec. 4.3).

    params: direction, tau, two_pass, labels (int[n]), finished
    (bool[n]: vertices no pair may enter), table_keys (the PairTable's
    key set, holding the frontier's pairs as keys v * n + s).
    A pair (v, s) local-searches from v, skipping cross edges
    (labels differ) and finished vertices; a reached vertex u yields the
    candidate pair (u, s) unless the table already has its key.
    Labels of one value mean no cross edges: LE-lists runs each BFS level
    so, at tau = 1, with finished = delta <= d + 1
    (:func:`repro.lelists.lelists.level_params`).
    """
    indptr, indices, indptr_t, indices_t = g
    ip, ix = (indptr, indices) if p["direction"] == "fwd" else (indptr_t, indices_t)
    labels = memoryview(p["labels"])
    finished = memoryview(p["finished"])
    keys = p["table_keys"]
    n = len(finished)
    tau = int(p["tau"])
    vs, ss = cols["v"], cols["s"]
    seen: set[int] = set()  # keys u * n + s admitted by this task
    out_v: list[int] = []
    out_s: list[int] = []
    out_e: list[bool] = []
    visits = 0

    def admit(x: int, nbrs: Sequence[int]) -> list[int]:
        lx = labels[x]
        out = []
        for u in nbrs:
            if finished[u] or labels[u] != lx:
                continue
            key = u * n + s
            if key in seen or key in keys:
                continue
            seen.add(key)
            out.append(u)
        return out

    ipm, ixm = memoryview(ip), memoryview(ix)
    for v, s in zip(vs.tolist(), ss.tolist()):
        queue, qi, t = local_search(ipm, ixm, v, tau, admit)
        visits += t
        k = len(queue) - 1
        out_v += queue[1:]
        out_s += [s] * k
        out_e += [True] * (qi - 1) + [False] * (k + 1 - qi)
    if p.get("two_pass"):
        visits += _revisits(ip, vs)
    return {
        "v": np.asarray(out_v, dtype=np.int64),
        "s": np.asarray(out_s, dtype=np.int64),
        "explored": np.asarray(out_e, dtype=bool),
    }, visits


def k_color_max(cols: Cols, g, p) -> tuple[Cols, int]:
    """Multi-step coloring round: propagate max color along out-edges.

    params: colors (int[n]), active (bool[n]).  Input rows: vertices whose
    color changed last round.  Output rows (v, lab): proposed new colors;
    the driver keeps the max per vertex.
    """
    indptr, indices, _, _ = g
    ip, ix = memoryview(indptr), memoryview(indices)
    colors = memoryview(p["colors"])
    active = memoryview(p["active"])
    best: dict[int, int] = {}
    visits = 0
    for v in cols["v"].tolist():
        cv = colors[v]
        lo, hi = ip[v], ip[v + 1]
        visits += hi - lo
        for u in ix[lo:hi]:
            if active[u] and colors[u] < cv and best.get(u, -1) < cv:
                best[u] = cv
    return {
        "v": np.fromiter(best.keys(), dtype=np.int64, count=len(best)),
        "lab": np.fromiter(best.values(), dtype=np.int64, count=len(best)),
    }, visits


KERNELS = {
    "sparse_reach": k_sparse_reach,
    "dense_reach": k_dense_reach,
    "multi_reach": k_multi_reach,
    "ldd_reach": k_sparse_reach,  # LDD's rounds: their own counters, slicing, traces
    "color_max": k_color_max,
}
