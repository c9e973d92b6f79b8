"""Reproduce one of the paper's evaluation tables.

Usage:
    spark-submit jobs/tables.py --table {2,3cc,3le} [--scale S]
                                [--budget SECONDS] [--algos A,B,...]
                                [--driver-only]

Table 2 is SCC (ours, GBBS, Multi-step, iSpan, SEQ), Table 3 is
connectivity (ours, DHS'21, SEQ) and LE-lists (ours, ParlayLib, SEQ).
Prints each (graph, algo) row as it finishes, then the whole table; every
row is also appended as a JSON line to $REPRO_RESULTS.  Exits 1 if any
row's answer differs from the sequential oracle's.  With a session, the
Python workers are started before the first timed cell, which would
otherwise pay for them.
"""
import argparse
import sys

import numpy as np
from pyspark.sql import SparkSession

from repro.bench.harness import DEFAULT_BUDGET_S, format_rows, run_cc, run_lelists, run_scc
from repro.core.counters import Counters
from repro.core.csr import from_arrays
from repro.core.engine import Engine, frontier_pdf
from repro.graphs.suite import lelists_suite, table2_suite, table3_suite

# --table -> (Spark app name, graph suite, harness run, default algos)
TABLES = {
    "2": ("table2_scc", table2_suite, run_scc, "ours,gbbs,multistep,ispan,seq"),
    "3cc": ("table3_cc", table3_suite, run_cc, "ours,dhs21,seq"),
    "3le": ("table3_lelists", lelists_suite, run_lelists, "ours,parlay,seq"),
}


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
    eng = Engine(spark, from_arrays(2, np.array([0]), np.array([1])), Counters(), force_spark=True)
    params = {"direction": "fwd", "visited": np.zeros(2, bool), "tau": 1, "two_pass": False}
    try:
        eng.round("sparse_reach", frontier_pdf(np.array([0])), params)
    finally:
        eng.close()


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
    app, suite, run, algos = TABLES[args.table]
    spark = None if args.driver_only else get_spark(app)
    rows = []
    try:
        if spark is not None:
            warm_up(spark)
        for spec in suite(args.scale):
            for algo in (args.algos or algos).split(","):
                rows.append(run(spark, spec, algo, budget_s=args.budget))
                print(format_rows(rows[-1:]).splitlines()[-1], flush=True)
    finally:
        if spark is not None:
            spark.stop()
    print(f"\n=== {app} (reproduction) ===")
    print(format_rows(rows))
    return int(any(r.status == "wrong" for r in rows))


if __name__ == "__main__":
    sys.exit(main())
