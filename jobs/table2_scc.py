"""spark-submit entrypoint reproducing paper Table 2 (SCC running times).

Usage:
    spark-submit jobs/table2_scc.py [--scale S] [--budget SECONDS]
                                    [--algos ours,gbbs,multistep,ispan,seq]

Prints one row per (graph, system) with wall time, rounds, edge visits,
modeled 96-core time and verified SCC stats; also appends JSON lines to
$REPRO_RESULTS.
"""
import argparse
import sys

from pyspark.sql import SparkSession

from repro.bench.harness import format_rows, run_scc
from repro.graphs.suite import table2_suite


def get_spark() -> SparkSession:
    return (
        SparkSession.builder.appName("table2_scc")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--budget", type=float, default=300.0)
    ap.add_argument("--algos", default="ours,gbbs,multistep,ispan,seq")
    ap.add_argument(
        "--driver-only",
        action="store_true",
        help="run kernels on the driver (no per-round Spark barrier); "
        "rounds/visits are identical, wall time is not comparable",
    )
    args = ap.parse_args(argv)
    spark = get_spark()
    spark.sparkContext.setLogLevel("ERROR")
    rows = []
    for spec in table2_suite(args.scale):
        for algo in args.algos.split(","):
            row = run_scc(
                spark,
                spec,
                algo,
                budget_s=args.budget,
                force_spark=not args.driver_only,
            )
            rows.append(row)
            print(format_rows([row]).splitlines()[-1], flush=True)
    print("\n=== Table 2 (reproduction) ===")
    print(format_rows(rows))
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
