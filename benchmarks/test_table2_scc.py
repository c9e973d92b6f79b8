"""Table 2 reproduction: SCC running times of ours / GBBS / Multi-step /
iSpan / SEQ over the 12-graph suite (paper analogues at laptop scale).

One pytest-benchmark cell per (graph, system).  Every parallel run forces
each frontier round through a real Spark job (`force_spark=True`), so all
systems pay identical barrier costs — the quantity VGC optimizes.  Rows
(wall time, rounds, edge visits, modeled 96-core time, #SCC, |SCC1|) are
appended to $REPRO_RESULTS (bench_results.jsonl) for EXPERIMENTS.md.

A run exceeding $REPRO_BENCH_BUDGET seconds (default 300) is recorded
with status "t", mirroring the paper's timeout convention.
"""
import os
from dataclasses import asdict

import pytest

from repro.bench.harness import run_scc
from repro.graphs.suite import table2_suite

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

GRAPHS = [
    "SOC-LJ'",
    "SOC-TW'",
    "WEB-SD'",
    "WEB-CW'",
    "KNN-HH5'",
    "KNN-CH5'",
    "KNN-GL2'",
    "KNN-GL5'",
    "LAT-SQR'",
    "LAT-REC'",
    "LAT-SQRp'",
    "LAT-RECp'",
]
ALGOS = ["ours", "gbbs", "multistep", "ispan", "seq"]


@pytest.fixture(scope="module")
def suite():
    return {g.name: g for g in table2_suite(SCALE)}


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_table2_scc(benchmark, spark, suite, graph, algo):
    spec = suite[graph]
    out = {}

    def run():
        out["row"] = run_scc(spark, spec, algo)

    benchmark.pedantic(run, rounds=1, iterations=1)
    row = out["row"]
    benchmark.extra_info.update(asdict(row))
    # correctness gate: the SCC partition must equal Tarjan's (the paper
    # checks only #SCC and |SCC1|)
    assert row.status in ("ok", "t"), f"{graph}/{algo} produced wrong SCCs"
