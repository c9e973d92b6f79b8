"""Reproduce one of the paper's evaluation tables or studies.

Usage:
    spark-submit jobs/tables.py --table {2,tau,3cc,3le} [--scale S]
                                [--budget SECONDS] [--algos A,B,...]
                                [--driver-only]

Table 2 is SCC (ours, GBBS, Multi-step, iSpan, SEQ), Table 3 is
connectivity (ours, DHS'21, SEQ) and LE-lists (ours, ParlayLib, SEQ),
and ``tau`` is the τ study (BGSS with τ = 1 ... 8192); see
``repro.bench.harness.TABLES``.  The paper's Fig. 10 is read from Table
2's rows by ``jobs/summarize_results.py``.  Prints each (graph, algo) row
as it finishes, then the whole table.  Rows are appended as JSON lines to
$REPRO_RESULTS only if it is set, so a check run writes no file; to
publish a table, run it with ``REPRO_RESULTS=bench_results.jsonl``, the
file ``jobs/summarize_results.py`` reads by default.  Exits 1 if any
row's answer differs from the sequential oracle's.  With a session, the Python workers are started
before the first timed cell, which would otherwise pay for them.
"""
import argparse
import sys

import numpy as np
from pyspark.sql import SparkSession

from repro.bench.harness import DEFAULT_BUDGET_S, TABLES, format_rows, run_cell
from repro.core.counters import Counters
from repro.core.csr import from_arrays
from repro.core.engine import Engine, frontier_pdf


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark: SparkSession) -> None:
    """One untimed round on a 2-vertex graph; making its ``Engine`` runs
    the executor import check on ``SPARK_SLICES`` workers first."""
    params = {"direction": "fwd", "visited": np.zeros(2, bool), "tau": 1, "two_pass": False}
    g = from_arrays(2, np.array([0]), np.array([1]))
    with Engine(spark, g, Counters(), force_spark=True) as eng:
        eng.round("sparse_reach", frontier_pdf([0]), params)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", choices=TABLES, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)
    ap.add_argument("--algos", help="comma-separated; default: all of the table's")
    ap.add_argument(
        "--driver-only",
        action="store_true",
        help="create no Spark session and run every round on the driver; "
        "rounds/visits are identical, wall time is not comparable",
    )
    args = ap.parse_args(argv)
    table = TABLES[args.table]
    algos = args.algos.split(",") if args.algos else table.algos
    spark = None if args.driver_only else get_spark(table.name)
    rows = []
    try:
        if spark is not None:
            warm_up(spark)
        for spec in table.suite(args.scale):
            for algo in algos:
                rows.append(run_cell(spark, spec, args.table, algo, budget_s=args.budget))
                print(format_rows(rows[-1:]).splitlines()[-1], flush=True)
    finally:
        if spark is not None:
            spark.stop()
    print(f"\n=== {table.name} (reproduction) ===")
    print(format_rows(rows))
    return int(any(r.status == "wrong" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
