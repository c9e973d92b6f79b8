"""Multi-step SCC baseline (Slota, Rajamanickam, Madduri, IPDPS 2014).

Phases, as published: (1) iterative trimming; (2) FW-BW from a
high-degree pivot to extract the (hopefully) largest SCC using parallel
BFS with the dense-mode optimization; (3) a *coloring* phase for the
remainder — propagate max vertex id to a fixpoint, then a backward
multi-BFS from each color root inside its color class; (4) a serial
cutoff (Tarjan) once the remainder is small.  Coloring does O(m'D) work,
which is why Multi-step collapses on large-diameter/small-SCC graphs —
the behaviour the paper's Table 2 shows and this reproduction targets.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.tarjan import tarjan_scc
from repro.core.counters import Counters, PhaseTimer
from repro.core.csr import CSR
from repro.core.engine import Engine, frontier_pdf
from repro.core.reach import single_reach
from repro.core.scc import SCCResult


def _iterative_trim(csr: CSR, active: np.ndarray, labels: np.ndarray, counters: Counters) -> None:
    """Repeatedly peel zero-in/out-degree vertices of the active subgraph
    (driver-side; counted as work, not rounds — matches Multi-step's
    cheap trim loops)."""
    indptr, indices, indptr_t, indices_t = csr.arrays()
    changed = True
    while changed:
        changed = False
        act = np.flatnonzero(active)
        if len(act) == 0:
            return
        for v in act.tolist():
            outdeg = 0
            for u in indices[indptr[v] : indptr[v + 1]].tolist():
                counters.edge_visits += 1
                if active[u]:
                    outdeg += 1
                    break
            indeg = 0
            for u in indices_t[indptr_t[v] : indptr_t[v + 1]].tolist():
                counters.edge_visits += 1
                if active[u]:
                    indeg += 1
                    break
            if outdeg == 0 or indeg == 0:
                active[v] = False
                labels[v] = v
                changed = True


def multistep_scc(spark, csr: CSR, *, serial_cutoff: int = 256, **engine_kw) -> SCCResult:
    """``engine_kw`` goes to :class:`Engine`."""
    n = csr.n
    counters = Counters()
    with Engine(spark, csr, counters, **engine_kw) as engine:
        labels = np.full(n, -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        with PhaseTimer(counters, "trim"):
            _iterative_trim(csr, active, labels, counters)

        if active.any():
            with PhaseTimer(counters, "first_scc"):
                deg_prod = np.diff(csr.indptr) * np.diff(csr.transpose().indptr)
                deg_prod[~active] = -1
                pivot = int(np.argmax(deg_prod))
                r = single_reach(
                    engine, np.asarray([pivot]), direction="both", tau=1, finished=~active
                )
                fw, bw = r.fw, r.bw
                scc1 = fw.visited & bw.visited
                labels[scc1] = int(np.flatnonzero(scc1).max())
                active &= ~scc1

        while active.any():
            engine.check_budget()
            with PhaseTimer(counters, "trim"):
                _iterative_trim(csr, active, labels, counters)
            n_active = int(active.sum())
            if n_active == 0:
                break
            if n_active <= serial_cutoff:
                with PhaseTimer(counters, "serial"):
                    _, visits = tarjan_scc(csr, allowed=active, labels_out=labels)
                    counters.edge_visits += visits
                break
            with PhaseTimer(counters, "coloring"):
                # Max-propagation coloring to a fixpoint: O(m'D) work.
                colors = np.where(active, np.arange(n, dtype=np.int64), -1)
                frontier = np.flatnonzero(active).astype(np.int64)
                while len(frontier) > 0:
                    out = engine.round(
                        "color_max",
                        frontier_pdf(frontier),
                        {"colors": colors, "active": active},
                    )
                    if len(out["v"]) == 0:
                        break
                    vs, inv = np.unique(out["v"], return_inverse=True)
                    proposals = np.full(len(vs), np.iinfo(np.int64).min)
                    np.maximum.at(proposals, inv, out["lab"])
                    better = proposals > colors[vs]
                    colors[vs[better]] = proposals[better]
                    frontier = vs[better]
                roots = np.flatnonzero(active & (colors == np.arange(n))).astype(np.int64)
                # Backward multi-BFS from the roots, restricted to each
                # root's color class: reached vertices form the SCCs.
                bwr = single_reach(
                    engine,
                    roots,
                    direction="bwd",
                    tau=1,
                    dense=False,
                    finished=~active,
                    restrict=colors,
                )
                found = bwr.visited
                labels[found] = colors[found]
                active &= ~found
        return SCCResult(labels=labels, counters=counters)
