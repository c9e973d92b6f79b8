"""spark-submit entrypoint reproducing paper Table 3 (left): connectivity
via LDD-UF-JTB, ours vs ConnectIt's DHS'21 baseline."""
import argparse
import sys

from pyspark.sql import SparkSession

from repro.bench.harness import format_rows, run_cc
from repro.graphs.suite import table3_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--budget", type=float, default=300.0)
    ap.add_argument("--variants", default="ours,dhs21,seq")
    ap.add_argument("--driver-only", action="store_true")
    args = ap.parse_args(argv)
    spark = (
        SparkSession.builder.appName("table3_cc")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    rows = []
    for spec in table3_suite(args.scale):
        for variant in args.variants.split(","):
            rows.append(
                run_cc(
                    spark,
                    spec,
                    variant,
                    budget_s=args.budget,
                    force_spark=not args.driver_only,
                )
            )
            print(format_rows(rows[-1:]).splitlines()[-1], flush=True)
    print("\n=== Table 3 connectivity (reproduction) ===")
    print(format_rows(rows))
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
