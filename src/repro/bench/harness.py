"""Experiment harness: runs one (graph, system) cell of a paper table.

Every run returns a :class:`RunRow` with measured wall time, barrier
(round) count, edge visits, the modeled 96-core time
(``counters.simulated_time``), and #SCC / |SCC_1|.  A run is "ok" only
if its whole answer equals the sequential oracle's: the same SCC or CC
partition, the same LE-lists (the paper checks #SCC and |SCC_1| only).
With ``force_spark=False`` the run gets no Spark session, so every round
runs on the driver.
Each row also records its host: ``cores``, ``python`` and
``spark_version``.
Rows are also appended as JSON lines to ``$REPRO_RESULTS`` (default
``bench_results.jsonl`` in the repo root) so EXPERIMENTS.md can be
assembled from a benchmark run.

A run that exceeds its time budget is reported with status ``"t"`` —
the same convention as the paper's Table 2 (their budget: 5 h on 96
cores; ours scales with the substrate, default 300 s).
"""
from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np
import pyspark

from repro.baselines.ispan import ispan_scc
from repro.baselines.multistep import multistep_scc
from repro.baselines.seq_cc import seq_cc
from repro.baselines.seq_lelists import seq_le_lists
from repro.baselines.tarjan import canon_partition, scc_stats, tarjan_scc
from repro.cc.connectivity import ldd_uf_jtb
from repro.core import csr as csrmod
from repro.core.counters import Counters, simulated_time, simulated_time_sequential
from repro.core.scc import bgss_scc
from repro.graphs.suite import GraphSpec
from repro.lelists.lelists import le_lists

DEFAULT_BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET", "300"))


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
    # host context, to compare rows across machines
    cores: int | None = os.cpu_count()
    python: str = platform.python_version()
    spark_version: str = pyspark.__version__

    def record(self) -> "RunRow":
        path = os.environ.get("REPRO_RESULTS", "bench_results.jsonl")
        try:
            with open(path, "a") as f:
                f.write(json.dumps(asdict(self)) + "\n")
        except OSError:
            pass
        return self


def spec_csr(spec: GraphSpec) -> csrmod.CSR:
    return csrmod.from_arrays(spec.n, spec.src, spec.dst)


def run_scc(
    spark,
    spec: GraphSpec,
    algo: str,
    *,
    budget_s: float = DEFAULT_BUDGET_S,
    force_spark: bool = True,
) -> RunRow:
    """algo in {ours, gbbs, multistep, ispan, seq}."""
    c = spec_csr(spec)
    truth = canon_partition(tarjan_scc(c)[0])
    spark = spark if force_spark else None
    kw = dict(force_spark=force_spark, time_budget_s=budget_s)
    t0 = time.perf_counter()
    try:
        if algo == "seq":
            labels, visits = tarjan_scc(c)
            wall = time.perf_counter() - t0
            n_scc, scc1 = scc_stats(labels)
            row = RunRow(
                "table2", spec.name, spec.family, algo, "ok", wall, 0, visits,
                simulated_time_sequential(visits), spec.n, spec.m, n_scc, scc1,
            )
        else:
            if algo == "ours":
                res = bgss_scc(spark, csr=c, variant="final", seed=42, **kw)
            elif algo == "gbbs":
                res = bgss_scc(spark, csr=c, variant="gbbs", seed=42, **kw)
            elif algo == "multistep":
                res = multistep_scc(spark, c, **kw)
            elif algo == "ispan":
                res = ispan_scc(spark, c, **kw)
            else:
                raise ValueError(algo)
            wall = time.perf_counter() - t0
            status = "ok" if np.array_equal(canon_partition(res.labels), truth) else "wrong"
            row = RunRow(
                "table2", spec.name, spec.family, algo, status, wall,
                res.counters.rounds, res.counters.edge_visits,
                simulated_time(res.counters), spec.n, spec.m,
                res.n_scc, res.scc1_size,
            )
    except TimeoutError:
        wall = time.perf_counter() - t0
        row = RunRow(
            "table2", spec.name, spec.family, algo, "t", wall, -1, -1, -1.0,
            spec.n, spec.m,
        )
    return row.record()


def run_cc(
    spark,
    spec: GraphSpec,
    variant: str,
    *,
    budget_s: float = DEFAULT_BUDGET_S,
    force_spark: bool = True,
) -> RunRow:
    """variant in {ours, dhs21, seq}."""
    c = spec_csr(spec)
    truth = canon_partition(seq_cc(spec.n, spec.src, spec.dst))
    n_comp = len(np.unique(truth))
    spark = spark if force_spark else None
    t0 = time.perf_counter()
    try:
        if variant == "seq":
            seq_cc(spec.n, spec.src, spec.dst)
            wall = time.perf_counter() - t0
            row = RunRow(
                "table3cc", spec.name, spec.family, variant, "ok", wall, 0,
                spec.m, simulated_time_sequential(spec.m), spec.n, spec.m,
                n_comp, -1,
            )
        else:
            res = ldd_uf_jtb(
                spark, csr=c, variant=variant, seed=42,
                force_spark=force_spark, time_budget_s=budget_s,
            )
            wall = time.perf_counter() - t0
            status = "ok" if np.array_equal(canon_partition(res.labels), truth) else "wrong"
            row = RunRow(
                "table3cc", spec.name, spec.family, variant, status, wall,
                res.counters.rounds, res.counters.edge_visits,
                simulated_time(res.counters), spec.n, spec.m,
                res.n_components, -1,
            )
    except TimeoutError:
        row = RunRow(
            "table3cc", spec.name, spec.family, variant, "t",
            time.perf_counter() - t0, -1, -1, -1.0, spec.n, spec.m,
        )
    return row.record()


def run_lelists(
    spark,
    spec: GraphSpec,
    variant: str,
    *,
    budget_s: float = DEFAULT_BUDGET_S,
    force_spark: bool = True,
    seed: int = 42,
) -> RunRow:
    """variant in {ours, parlay, seq}."""
    c = spec_csr(spec)
    order = np.random.default_rng(seed).permutation(spec.n).astype(np.int64)
    spark = spark if force_spark else None
    t0 = time.perf_counter()
    try:
        if variant == "seq":
            lists = seq_le_lists(c, order)
            wall = time.perf_counter() - t0
            total = sum(len(l) for l in lists)
            row = RunRow(
                "table3le", spec.name, spec.family, variant, "ok", wall, 0, -1,
                -1.0, spec.n, spec.m, total, -1,
            )
        else:
            res = le_lists(
                spark, csr=c, order=order, variant=variant,
                force_spark=force_spark, time_budget_s=budget_s,
            )
            wall = time.perf_counter() - t0
            truth = seq_le_lists(c, order)
            status = "ok" if res.lists == truth else "wrong"
            row = RunRow(
                "table3le", spec.name, spec.family, variant, status, wall,
                res.counters.rounds, res.counters.edge_visits,
                simulated_time(res.counters), spec.n, spec.m,
                res.total_size(), -1,
            )
    except TimeoutError:
        row = RunRow(
            "table3le", spec.name, spec.family, variant, "t",
            time.perf_counter() - t0, -1, -1, -1.0, spec.n, spec.m,
        )
    return row.record()


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
