"""Experiment harness: runs one (graph, algo) cell of a paper table or study.

``TABLES`` holds each table and study as data: its graph suite, how each
of its algos runs, and the sequential oracle its answers must equal.
``2`` is SCC (Table 2), ``3cc`` connectivity and ``3le`` LE-lists (Table
3), and ``tau`` the τ study (Sec. 6.3).  Fig. 10 needs no table: Table
2's ``gbbs`` rows run the same searches in the same rounds as τ = 1
``plain``, so its ``gbbs`` and ``ours`` rows hold the rounds per search
without and with VGC.

:func:`run_cell` returns a :class:`RunRow` with measured wall time,
barrier (round) count, edge visits, the modeled 96-core time
(``counters.simulated_time``), each BGSS search's rounds, #SCC / |SCC_1|
and its host (``cores``, ``python``, ``spark_version``).  A run is "ok"
only if its whole answer equals the oracle's: the same SCC or CC
partition, the same LE-lists (the paper checks #SCC and |SCC_1| only).
Given ``spark=None`` every round runs on the driver; given a session,
every round is a Spark job.  If ``$REPRO_RESULTS`` is set, rows are
also appended to that file as JSON lines; unset, a run writes no file.
A graph's CSR and oracle answer are computed once, outside the timed
region, and kept on its ``GraphSpec``.  A run over its time budget is reported as ``"t"``,
as in the paper's Table 2 (their budget: 5 h on 96 cores; ours default
300 s).
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import pyspark

from repro.baselines.ispan import ispan_scc
from repro.baselines.multistep import multistep_scc
from repro.baselines.seq_cc import seq_cc
from repro.baselines.seq_lelists import seq_le_lists
from repro.baselines.tarjan import canon_partition, scc_stats, tarjan_scc
from repro.cc.connectivity import ldd_uf_jtb
from repro.core.counters import Counters, simulated_time, simulated_time_sequential
from repro.core.scc import bgss_scc
from repro.graphs.suite import GraphSpec, lelists_suite, table2_suite, table3_suite, tau_suite
from repro.lelists.lelists import le_lists

DEFAULT_BUDGET_S = 300.0
ALGO_SEED = 42
TAUS = (1, 2, 8, 32, 128, 512, 2048, 8192)


@dataclass
class RunRow:
    table: str
    graph: str
    family: str
    algo: str
    status: str  # "ok" | "t" (timeout) | "wrong"
    wall_s: float
    rounds: int
    edge_visits: int
    sim96_s: float
    n: int
    m: int
    n_scc: int = -1
    scc1: int = -1
    # rounds of each BGSS search, in run order (the paper's Fig. 10)
    search_rounds: list[int] = field(default_factory=list)
    # host context, to compare rows across machines
    cores: int | None = os.cpu_count()
    python: str = platform.python_version()
    spark_version: str = pyspark.__version__

    def record(self) -> "RunRow":
        path = os.environ.get("REPRO_RESULTS")
        if not path:
            return self
        try:
            with open(path, "a") as f:
                f.write(json.dumps(asdict(self)) + "\n")
        except OSError as e:
            print(f"RunRow.record: row not saved to {path}: {e}", file=sys.stderr)
        return self


def _partition(labels) -> list[int]:
    return canon_partition(labels).tolist()


def _tarjan(spark, spec, kw):
    return tarjan_scc(spec.csr)


def _seq_cc(spark, spec, kw):
    return seq_cc(spec.n, spec.src, spec.dst), spec.m


def _seq_le(spark, spec, kw):
    # le_lists orders its vertices the same way from the same seed
    return seq_le_lists(spec.csr, np.random.default_rng(ALGO_SEED).permutation(spec.n)), -1


def _solver(solve, answer: str = "labels", **opts):
    """The algo that runs ``solve(spark, csr=..., **opts)`` with the
    engine keywords and answers with ``result.<answer>``."""

    def run(spark, spec, kw):
        res = solve(spark, csr=spec.csr, **opts, **kw)
        return getattr(res, answer), res.counters

    return run


@dataclass(frozen=True)
class Table:
    """A paper table or study.  Each algo, and the oracle, runs as
    ``run(spark, spec, kw) -> (answer, counters)`` with the engine
    keywords ``kw``; a sequential algo returns its edge visits (-1 if it
    counts none) in place of counters.  ``canon`` maps an answer to the
    form compared with the oracle's, and ``stats`` maps that form to the
    row's ``(n_scc, scc1)``."""

    name: str  # RunRow.table, and the Spark app name
    suite: Callable[[float], list[GraphSpec]]
    algos: dict[str, Callable]
    oracle: Callable = _tarjan
    canon: Callable = _partition
    stats: Callable = scc_stats


def _bgss(variant: str, tau: int | None = None):
    return _solver(bgss_scc, variant=variant, tau=tau, seed=ALGO_SEED)


TABLES = {
    "2": Table("table2", table2_suite, {
        "ours": _bgss("final"),
        "gbbs": _bgss("gbbs"),
        "multistep": _solver(multistep_scc),
        "ispan": _solver(ispan_scc),
        "seq": _tarjan,
    }),
    "tau": Table("tau", tau_suite, {f"tau{t}": _bgss("final", t) for t in TAUS}),
    "3cc": Table("table3cc", table3_suite, {
        "ours": _solver(ldd_uf_jtb, variant="ours", seed=ALGO_SEED),
        "dhs21": _solver(ldd_uf_jtb, variant="dhs21", seed=ALGO_SEED),
        "seq": _seq_cc,
    }, _seq_cc, stats=lambda part: (len(set(part)), -1)),
    "3le": Table("table3le", lelists_suite, {
        "ours": _solver(le_lists, "lists", variant="ours", seed=ALGO_SEED),
        "parlay": _solver(le_lists, "lists", variant="parlay", seed=ALGO_SEED),
        "seq": _seq_le,
    }, _seq_le, canon=lambda lists: lists, stats=lambda lists: (sum(map(len, lists)), -1)),
}


def run_cell(
    spark,
    spec: GraphSpec,
    table: str,
    algo: str,
    *,
    budget_s: float = DEFAULT_BUDGET_S,
) -> RunRow:
    """Run ``algo`` of ``TABLES[table]`` on ``spec``, check its answer
    against the oracle's, and record its row."""
    t = TABLES[table]
    run = t.algos[algo]
    if t.oracle not in spec.oracles:
        spec.oracles[t.oracle] = t.canon(t.oracle(None, spec, {})[0])
    kw = dict(force_spark=spark is not None, time_budget_s=budget_s)
    t0 = time.perf_counter()
    try:
        answer, c = run(spark, spec, kw)
    except TimeoutError:
        wall = time.perf_counter() - t0
        row = RunRow(t.name, spec.name, spec.family, algo, "t", wall, -1, -1, -1.0, spec.n, spec.m)
        return row.record()
    wall = time.perf_counter() - t0
    if isinstance(c, Counters):
        rounds, visits, sim, searches = c.rounds, c.edge_visits, simulated_time(c), c.search_rounds
    else:  # a sequential algo: no rounds, and ``c`` is its edge visits
        rounds, visits, sim, searches = 0, c, simulated_time_sequential(c) if c >= 0 else -1.0, []
    canon = t.canon(answer)
    status = "ok" if canon == spec.oracles[t.oracle] else "wrong"
    return RunRow(
        t.name, spec.name, spec.family, algo, status, wall, rounds, visits, sim,
        spec.n, spec.m, *t.stats(canon), list(searches),
    ).record()


def format_rows(rows: list[RunRow]) -> str:
    """Aligned text table (one line per run) for job output."""
    hdr = (
        f"{'graph':12s} {'algo':10s} {'st':5s} {'wall_s':>8s} {'rounds':>7s} "
        f"{'visits':>10s} {'sim96_s':>9s} {'#SCC':>8s} {'SCC1':>8s}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r.graph:12s} {r.algo:10s} {r.status:5s} {r.wall_s:8.2f} "
            f"{r.rounds:7d} {r.edge_visits:10d} {r.sim96_s:9.4f} "
            f"{r.n_scc:8d} {r.scc1:8d}"
        )
    return "\n".join(lines)
