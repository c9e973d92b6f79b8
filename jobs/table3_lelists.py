"""spark-submit entrypoint reproducing paper Table 3 (right): LE-lists,
ours (hash-bag frontiers) vs the ParlayLib edge-revisit baseline."""
import argparse
import sys

from pyspark.sql import SparkSession

from repro.bench.harness import format_rows, run_lelists
from repro.graphs.suite import lelists_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--budget", type=float, default=300.0)
    ap.add_argument("--variants", default="ours,parlay,seq")
    ap.add_argument("--driver-only", action="store_true")
    args = ap.parse_args(argv)
    spark = (
        SparkSession.builder.appName("table3_lelists")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    rows = []
    for spec in lelists_suite(args.scale):
        for variant in args.variants.split(","):
            rows.append(
                run_lelists(
                    spark,
                    spec,
                    variant,
                    budget_s=args.budget,
                    force_spark=not args.driver_only,
                )
            )
            print(format_rows(rows[-1:]).splitlines()[-1], flush=True)
    print("\n=== Table 3 LE-lists (reproduction) ===")
    print(format_rows(rows))
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
