"""iSpan-style SCC baseline (Ji, Liu, Huang, SC 2018) — simplified.

iSpan identifies the giant SCC with forward/backward searches from a
heuristic pivot and decomposes the remainder with FW-BW divide and
conquer.  The published system builds spanning trees with shared-memory
pointer tricks that have no meaningful Spark analogue (DESIGN.md Sec. 6);
this reproduction keeps its *algorithmic* profile: iterative trim, pivot
FW-BW via parallel BFS rounds, then a worklist of FW-BW subproblems with
a serial cutoff.  Like the original, its work explodes on graphs with
many small SCCs and large diameter, which is the Table-2 behaviour that
matters.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.multistep import _iterative_trim
from repro.baselines.tarjan import tarjan_scc
from repro.core.counters import Counters, PhaseTimer
from repro.core.csr import CSR
from repro.core.engine import Engine
from repro.core.reach import single_reach
from repro.core.scc import SCCResult


def _pivot(csr: CSR, mask: np.ndarray) -> int:
    deg_prod = (np.diff(csr.indptr) + 1) * (np.diff(csr.transpose().indptr) + 1)
    deg_prod = np.where(mask, deg_prod, -1)
    return int(np.argmax(deg_prod))


def ispan_scc(spark, csr: CSR, *, serial_cutoff: int = 256, **engine_kw) -> SCCResult:
    """``engine_kw`` goes to :class:`Engine`."""
    n = csr.n
    counters = Counters()
    with Engine(spark, csr, counters, **engine_kw) as engine:
        labels = np.full(n, -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        with PhaseTimer(counters, "trim"):
            _iterative_trim(csr, active, labels, counters)

        worklist: list[np.ndarray] = []
        if active.any():
            worklist.append(active.copy())

        first = True
        while worklist:
            engine.check_budget()
            mask = worklist.pop()
            size = int(mask.sum())
            if size == 0:
                continue
            if size <= serial_cutoff:
                with PhaseTimer(counters, "serial"):
                    _, visits = tarjan_scc(csr, allowed=mask, labels_out=labels)
                    counters.edge_visits += visits
                continue
            phase = "first_scc" if first else "fwbw"
            first = False
            with PhaseTimer(counters, phase):
                p = _pivot(csr, mask)
                r = single_reach(engine, np.asarray([p]), direction="both", tau=1, finished=~mask)
                fw, bw = r.fw, r.bw
                scc = fw.visited & bw.visited
                labels[scc] = int(np.flatnonzero(scc).max())
                rest_fw = fw.visited & ~scc
                rest_bw = bw.visited & ~scc
                rest = mask & ~fw.visited & ~bw.visited
                for part in (rest_fw, rest_bw, rest):
                    if part.any():
                        worklist.append(part)
        return SCCResult(labels=labels, counters=counters)
