"""Tarjan's sequential SCC algorithm ("SEQ" in the paper's tables).

Iterative (explicit stack) so Python's recursion limit is never an issue.
Runs on the driver; O(m) work, zero barriers.  ``edge_visits`` is
returned so the cost model can report a modeled sequential time.
Supports an optional ``allowed`` mask so Multi-step/iSpan can use it as
their serial-cutoff subroutine on induced subgraphs, and an optional
``labels_out`` so callers can write into a global label array.
"""
from __future__ import annotations

import numpy as np

from repro.core.csr import CSR


def tarjan_scc(
    csr: CSR,
    *,
    allowed: np.ndarray | None = None,
    labels_out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Returns (labels, edge_visits). Vertices outside ``allowed`` keep
    label -1 (or their existing value in ``labels_out``)."""
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    index = np.full(n, -1, dtype=np.int64)  # discovery order
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    labels = labels_out if labels_out is not None else np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    edge_visits = 0

    verts = range(n) if allowed is None else np.flatnonzero(allowed).tolist()
    for root in verts:
        if index[root] != -1:
            continue
        # Each frame: (v, iterator position into v's adjacency)
        work = [(root, int(indptr[root]))]
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ei = work[-1]
            if ei < indptr[v + 1]:
                work[-1] = (v, ei + 1)
                u = int(indices[ei])
                edge_visits += 1
                if allowed is not None and not allowed[u]:
                    continue
                if index[u] == -1:
                    index[u] = low[u] = next_index
                    next_index += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, int(indptr[u])))
                elif on_stack[u]:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[v])
                if low[v] == index[v]:
                    # v is an SCC root; pop the component.
                    comp: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    lab = max(comp)
                    for w in comp:
                        labels[w] = lab
    return labels, edge_visits


def scc_stats(labels: np.ndarray) -> tuple[int, int]:
    """(#SCC, |SCC_1|) from a label array."""
    _, counts = np.unique(labels, return_counts=True)
    return len(counts), int(counts.max()) if len(counts) else 0


def canon_partition(labels: np.ndarray) -> np.ndarray:
    """Map each label to the smallest vertex id carrying it, so two label
    arrays induce the same partition iff their canon forms are equal."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse].astype(np.int64)
